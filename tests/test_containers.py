import os
import struct

import numpy as np
import pytest

from hsnct.containers import (
    ContainerError,
    HyperspectralSinogram,
    MAGIC,
    RawScan,
    ScanGeometry,
    SpectralAxis,
    SpectralBasis,
    SubspaceSinogram,
    ToFConverter,
    ValidationError,
    VolumeStack,
    load_basis,
    load_raw_scan,
    load_sinogram,
    load_subspace_sinogram,
    load_volume,
    read_container,
    sinogram_row_count,
    volume_voxel_count,
    write_container,
)


def small_axis(n_k=2, L=10.0):
    edges = np.linspace(1e-3, 2e-3, n_k + 1)
    return SpectralAxis(edges, ToFConverter(flight_path=L))


def small_geometry(n_v=2, n_r=2, n_c=2):
    angles = np.linspace(0.0, np.pi, n_v, endpoint=False)
    return ScanGeometry(n_v, n_r, n_c, angles, flight_path=10.0)


def random_raw_scan(rng, n_v=2, n_r=2, n_c=2, n_k=2):
    geom = small_geometry(n_v, n_r, n_c)
    axis = small_axis(n_k)
    counts = rng.uniform(0.0, 100.0, size=(n_v, n_r, n_c, n_k))
    ob = rng.uniform(1.0, 100.0, size=(n_r, n_c, n_k))
    return RawScan(counts, ob, geom, axis)


class TestScanGeometry:
    def test_angle_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(3, 2, 2, np.array([0.0, 1.0]), flight_path=10.0)

    def test_angles_outside_half_turn_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(2, 2, 2, np.array([0.0, np.pi]), flight_path=10.0)
        with pytest.raises(ValidationError):
            ScanGeometry(2, 2, 2, np.array([-0.1, 1.0]), flight_path=10.0)

    def test_non_increasing_angles_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(2, 2, 2, np.array([1.0, 1.0]), flight_path=10.0)

    def test_nonpositive_flight_path_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(1, 1, 1, np.array([0.0]), flight_path=0.0)


class TestSpectralAxis:
    def test_num_bins(self):
        assert small_axis(n_k=5).num_bins == 5

    def test_wavelength_centers_increasing(self):
        ax = small_axis(n_k=7)
        assert np.all(np.diff(ax.wavelength_centers) > 0)

    def test_center_value(self):
        # one bin, edges 1ms and 3ms at L = 10 m: lambda = (h/m_n) * 2e-3 / 10
        ax = SpectralAxis(np.array([1e-3, 3e-3]), ToFConverter(flight_path=10.0))
        expect = (6.62607015e-34 / 1.67492749804e-27) * 2e-3 / 10.0
        assert np.isclose(ax.wavelength_centers[0], expect, rtol=1e-12)

    def test_decreasing_edges_rejected(self):
        with pytest.raises(ValidationError):
            SpectralAxis(np.array([2e-3, 1e-3]), ToFConverter(flight_path=10.0))

    def test_negative_edge_rejected(self):
        with pytest.raises(ValidationError):
            SpectralAxis(np.array([-1e-3, 1e-3]), ToFConverter(flight_path=10.0))


class TestTypeInvariants:
    def test_raw_scan_negative_counts_rejected(self):
        geom, axis = small_geometry(), small_axis()
        counts = np.zeros((2, 2, 2, 2))
        counts[0, 0, 0, 0] = -1.0
        with pytest.raises(ValidationError):
            RawScan(counts, np.zeros((2, 2, 2)), geom, axis)

    def test_raw_scan_nan_rejected(self):
        geom, axis = small_geometry(), small_axis()
        counts = np.zeros((2, 2, 2, 2))
        counts[1, 1, 1, 1] = np.nan
        with pytest.raises(ValidationError):
            RawScan(counts, np.zeros((2, 2, 2)), geom, axis)

    def test_sinogram_row_bookkeeping_rejected(self):
        geom, axis = small_geometry(), small_axis()
        n_p = sinogram_row_count(geom)
        with pytest.raises(ValidationError):
            HyperspectralSinogram(np.zeros((n_p + 1, axis.num_bins)), geom, axis)

    def test_sinogram_may_hold_negatives(self):
        geom, axis = small_geometry(), small_axis()
        vals = np.full((sinogram_row_count(geom), axis.num_bins), -0.25)
        sino = HyperspectralSinogram(vals, geom, axis)
        assert sino.values.dtype == np.float32

    def test_subspace_sinogram_negative_rejected(self):
        geom = small_geometry()
        coeffs = np.zeros((sinogram_row_count(geom), 3))
        coeffs[0, 0] = -1e-3
        with pytest.raises(ValidationError):
            SubspaceSinogram(coeffs, geom)

    def test_basis_zero_column_rejected(self):
        axis = small_axis(n_k=4)
        basis = np.ones((4, 2))
        basis[:, 1] = 0.0
        with pytest.raises(ValidationError):
            SpectralBasis(basis, axis)

    def test_volume_voxel_bookkeeping_rejected(self):
        with pytest.raises(ValidationError):
            VolumeStack(np.zeros((9, 1)), num_rows=2, num_cols=2)

    def test_volume_voxel_count_helper(self):
        geom = small_geometry(n_v=3, n_r=4, n_c=5)
        assert volume_voxel_count(geom) == 4 * 5 * 5

    def test_slice_image_layout(self):
        # voxel (r, a, b) flattens C-order; slice z=1 channel 0 is rows 8..11
        vox = np.arange(16, dtype=np.float32).reshape(16, 1)
        vol = VolumeStack(vox, num_rows=4, num_cols=2)
        img = vol.slice_image(1, 0)
        assert img.shape == (2, 2)
        assert np.array_equal(img, np.array([[4, 5], [6, 7]], dtype=np.float32))

    def test_arrays_are_read_only(self):
        scan = random_raw_scan(np.random.default_rng(0))
        with pytest.raises(ValueError):
            scan.counts[0, 0, 0, 0] = 1.0


class TestContainerFormat:
    def test_raw_scan_round_trip_bit_exact(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(7))
        path = tmp_path / "scan.hsnct"
        write_container(path, scan)
        back = load_raw_scan(path)
        assert back.counts.tobytes() == scan.counts.tobytes()
        assert back.open_beam.tobytes() == scan.open_beam.tobytes()
        assert back.geometry.num_views == scan.geometry.num_views
        assert back.geometry.flight_path == scan.geometry.flight_path
        np.testing.assert_array_equal(back.geometry.view_angles, scan.geometry.view_angles)
        np.testing.assert_array_equal(back.axis.tof_edges, scan.axis.tof_edges)

    def test_write_is_deterministic(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(7))
        p1, p2 = tmp_path / "a.hsnct", tmp_path / "b.hsnct"
        write_container(p1, scan)
        write_container(p2, scan)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_header_layout(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(1))
        path = tmp_path / "scan.hsnct"
        write_container(path, scan)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        hlen = int.from_bytes(raw[8:12], "little")
        header = raw[12 : 12 + hlen].decode("utf-8")
        assert header.startswith("{") and '"dtype":"f32le"' in header

    def test_empty_shape_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(tmp_path / "x.hsnct", np.float32(1.0).reshape(()),
                            {"axis_order": "bin,channel"})

    def test_unknown_axis_order_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(tmp_path / "x.hsnct", np.zeros((2, 2), dtype=np.float32),
                            {"axis_order": "col,row"})

    def test_bad_magic_rejected(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(2))
        path = tmp_path / "scan.hsnct"
        write_container(path, scan)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError):
            read_container(path)

    def test_truncated_by_one_byte_rejected(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(3))
        path = tmp_path / "scan.hsnct"
        write_container(path, scan)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(ContainerError):
            read_container(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        scan = random_raw_scan(np.random.default_rng(4))
        path = tmp_path / "scan.hsnct"
        write_container(path, scan)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ContainerError):
            read_container(path)

    def test_nan_payload_rejected(self, tmp_path):
        # write a raw array with a NaN, bypassing type validation
        path = tmp_path / "x.hsnct"
        arr = np.zeros((2, 2), dtype=np.float32)
        arr[0, 0] = np.nan
        write_container(path, arr, {"axis_order": "bin,channel", "role": "basis"})
        with pytest.raises(ValidationError):
            read_container(path)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(ContainerError):
            read_container(tmp_path / "does-not-exist.hsnct")
        assert issubclass(ContainerError, OSError)

    @pytest.mark.parametrize("fail_at", ["payload", "rename", "interrupt"])
    def test_failed_write_keeps_target_and_leaves_no_temp(self, tmp_path, monkeypatch,
                                                          fail_at):
        path = tmp_path / "scan.hsnct"
        write_container(path, random_raw_scan(np.random.default_rng(5)))
        before = path.read_bytes()

        def fail(*args, **kwargs):
            if fail_at == "interrupt":
                raise KeyboardInterrupt
            raise OSError(28, "No space left on device")

        # "payload" and "interrupt" fail after the magic is already written
        target = (os, "replace") if fail_at == "rename" else (struct, "pack")
        monkeypatch.setattr(*target, fail)
        expected = KeyboardInterrupt if fail_at == "interrupt" else ContainerError
        with pytest.raises(expected):
            write_container(path, random_raw_scan(np.random.default_rng(6)))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.hsnct"]

    def test_write_replaces_existing_target(self, tmp_path):
        path = tmp_path / "scan.hsnct"
        write_container(path, random_raw_scan(np.random.default_rng(5)))
        scan = random_raw_scan(np.random.default_rng(6))
        write_container(path, scan)
        assert load_raw_scan(path).counts.tobytes() == scan.counts.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.hsnct"]

    def test_four_voxel_volume_round_trip(self, tmp_path):
        vol = VolumeStack(np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32),
                          num_rows=1, num_cols=2, voxel_pitch=0.5)
        path = tmp_path / "vol.hsnct"
        write_container(path, vol)
        back, header = load_volume(path)
        assert back.voxels.shape == (4, 1)
        assert np.all(np.isfinite(back.voxels))
        np.testing.assert_array_equal(back.voxels, vol.voxels)
        assert back.voxel_pitch == 0.5
        assert header["axis_order"] == "row,col,slice,channel"

    def test_role_mismatch_rejected(self, tmp_path):
        vol = VolumeStack(np.ones((4, 1), dtype=np.float32), num_rows=1, num_cols=2)
        path = tmp_path / "vol.hsnct"
        write_container(path, vol)
        with pytest.raises(ValidationError):
            load_basis(path)

    def test_all_types_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n_v = int(rng.integers(1, 4))
            n_r = int(rng.integers(1, 4))
            n_c = int(rng.integers(1, 4))
            n_k = int(rng.integers(1, 6))
            n_s = int(rng.integers(1, n_k + 1))
            geom = small_geometry(n_v, n_r, n_c)
            axis = small_axis(n_k)
            n_p = sinogram_row_count(geom)

            sino = HyperspectralSinogram(
                rng.normal(size=(n_p, n_k)), geom, axis)
            sub = SubspaceSinogram(rng.uniform(0, 1, size=(n_p, n_s)), geom)
            basis = SpectralBasis(rng.uniform(0.1, 1, size=(n_k, n_s)), axis)
            vol = VolumeStack(rng.normal(size=(n_r * n_c * n_c, n_s)), n_r, n_c)

            for obj, loader in ((sino, load_sinogram), (sub, load_subspace_sinogram),
                                (basis, load_basis), (vol, load_volume)):
                path = tmp_path / f"t{trial}_{type(obj).__name__}.hsnct"
                write_container(path, obj)
                back = loader(path)
                if isinstance(back, tuple):
                    back = back[0]
                a = getattr(obj, ("values", "coeffs", "basis", "voxels")[
                    (sino, sub, basis, vol).index(obj)])
                b = getattr(back, ("values", "coeffs", "basis", "voxels")[
                    (sino, sub, basis, vol).index(obj)])
                assert a.tobytes() == b.tobytes()
