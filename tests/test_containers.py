import json
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
    load_container,
    load_raw_scan,
    load_sinogram,
    load_volume,
    read_container,
    require_nonneg,
    require_positive,
    sinogram_row_count,
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

    @pytest.mark.parametrize("count", [2.0, True, "2"])
    def test_non_integer_count_rejected(self, count):
        angles = np.array([0.0, 1.0])
        with pytest.raises(ValidationError, match="num_views must be >= 1 and an integer"):
            ScanGeometry(count, 1, 2, angles, flight_path=10.0)
        with pytest.raises(ValidationError, match="num_cols must be >= 1 and an integer"):
            ScanGeometry(2, 1, count, angles, flight_path=10.0)

    def test_non_increasing_angles_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(2, 2, 2, np.array([1.0, 1.0]), flight_path=10.0)

    def test_nonpositive_flight_path_rejected(self):
        with pytest.raises(ValidationError):
            ScanGeometry(1, 1, 1, np.array([0.0]), flight_path=0.0)

    @pytest.mark.parametrize("field", ["flight_path", "pixel_pitch"])
    def test_infinite_length_rejected(self, field):
        lengths = {"flight_path": 10.0, field: np.inf}
        with pytest.raises(ValidationError, match=f"{field} must be > 0 and finite"):
            ScanGeometry(1, 1, 1, np.array([0.0]), **lengths)

    @pytest.mark.parametrize("rule", [require_positive, require_nonneg])
    def test_integer_beyond_float64_range_rejected(self, rule):
        # float64 cannot hold 10**400, so it is not a finite real number here
        with pytest.raises(ValidationError, match="flight_path must be .* finite"):
            rule(10**400, "flight_path")


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

    @pytest.mark.parametrize("field", ["flight_path", "planck_h", "neutron_mass"])
    def test_infinite_converter_constant_rejected(self, field):
        constants = {"flight_path": 10.0, field: np.inf}
        with pytest.raises(ValidationError, match=f"{field} must be > 0 and finite"):
            ToFConverter(**constants)


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

    def test_plus_and_minus_inf_rejected(self):
        vox = np.ones((4, 2))
        vox.flat[-2:] = [np.inf, -np.inf]
        with pytest.raises(ValidationError, match="voxels contains non-finite"):
            VolumeStack(vox, 1, 2)

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

    def test_volume_infinite_pitch_rejected(self):
        with pytest.raises(ValidationError, match="voxel_pitch must be > 0 and finite"):
            VolumeStack(np.zeros((4, 1)), num_rows=1, num_cols=2, voxel_pitch=np.inf)

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
        payload = np.concatenate([scan.counts, scan.open_beam[None]])
        assert raw[12 + hlen:] == payload.astype("<f4").tobytes()

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
        # patch a NaN into the payload of a valid container, bypassing type
        # validation on the write side
        path = tmp_path / "x.hsnct"
        write_container(path, SpectralBasis(np.ones((2, 2)), small_axis(n_k=2)))
        raw = bytearray(path.read_bytes())
        payload = 12 + int.from_bytes(raw[8:12], "little")
        raw[payload:payload + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            read_container(path)

    @pytest.mark.parametrize("tail", [[np.nan], [np.inf, -np.inf]])
    def test_non_finite_payload_tail_rejected(self, tmp_path, tail):
        path = tmp_path / "x.hsnct"
        write_container(path, SpectralBasis(np.ones((2, 2)), small_axis(n_k=2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4 * len(tail)] + struct.pack(f"<{len(tail)}f", *tail))
        with pytest.raises(ValidationError, match="x.hsnct: payload contains non-finite"):
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
        back, axis = load_volume(path)
        assert back.voxels.shape == (4, 1)
        assert np.all(np.isfinite(back.voxels))
        np.testing.assert_array_equal(back.voxels, vol.voxels)
        assert back.voxel_pitch == 0.5 and axis is None
        assert read_container(path)[0]["axis_order"] == "row,col,slice,channel"

    def test_role_mismatch_rejected(self, tmp_path):
        vol = VolumeStack(np.ones((4, 1), dtype=np.float32), num_rows=1, num_cols=2)
        path = tmp_path / "vol.hsnct"
        write_container(path, vol)
        with pytest.raises(ValidationError):
            load_basis(path)

    def test_load_container_accepts_any_listed_role(self, tmp_path):
        geom = small_geometry()
        sub = SubspaceSinogram(np.ones((sinogram_row_count(geom), 2)), geom)
        path = tmp_path / "v.hsnct"
        write_container(path, sub)
        back, axis = load_container(path, "sinogram", "subspace-sinogram")
        assert isinstance(back, SubspaceSinogram) and axis is None
        with pytest.raises(ValidationError, match="'sinogram' or 'basis'"):
            load_container(path, "sinogram", "basis")

    @pytest.mark.parametrize("role", ["sinogram", "subspace-sinogram"])
    @pytest.mark.parametrize("shape", [[8, 2, 4, 16], [64, 16]],
                             ids=["views-rows-swapped", "flat"])
    def test_sinogram_shape_must_match_geometry(self, tmp_path, role, shape):
        # the payload keeps its byte count, so the header's shape is all
        # that tells the layouts apart
        geom = small_geometry(n_v=2, n_r=4, n_c=8)
        values = np.ones((sinogram_row_count(geom), 16))
        path = tmp_path / "p.hsnct"
        write_container(path, HyperspectralSinogram(values, geom, small_axis(n_k=16))
                        if role == "sinogram" else SubspaceSinogram(values, geom))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        header["shape"] = shape
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])
        with pytest.raises(ValidationError) as err:
            load_container(path, role)
        assert str(path) in str(err.value)
        assert str(shape) in str(err.value) and "[2, 4, 8, C]" in str(err.value)

    def test_raw_array_not_writable(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(tmp_path / "x.hsnct", np.zeros((2, 2), dtype=np.float32),
                            {"axis_order": "bin,channel", "role": "basis"})
        assert list(tmp_path.iterdir()) == []

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

            for obj, loader in ((sino, load_sinogram),
                                (sub, lambda p: load_container(p, "subspace-sinogram")[0]),
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


def tiny_containers():
    """One fixed tiny container of each role."""
    geom = ScanGeometry(2, 1, 2, [0.0, 1.5], flight_path=10.0, pixel_pitch=0.5)
    axis = SpectralAxis([1e-3, 2e-3, 4e-3], ToFConverter(flight_path=10.0))
    return {"raw-scan": RawScan(np.ones((2, 1, 2, 2)), np.ones((1, 2, 2)), geom, axis),
            "sinogram": HyperspectralSinogram(np.zeros((4, 2)), geom, axis),
            "subspace-sinogram": SubspaceSinogram(np.zeros((4, 1)), geom),
            "basis": SpectralBasis(np.ones((2, 1)), axis),
            "volume": VolumeStack(np.ones((4, 1)), 1, 2, voxel_pitch=0.5)}


_GEOMETRY = ('"geometry":{"flight_path":10.0,"num_cols":2,"num_rows":1,"num_views":2,'
             '"pixel_pitch":0.5,"view_angles":[0.0,1.5]}')
_SPECTRAL = ('"spectral":{"flight_path":10.0,"neutron_mass":1.67492749804e-27,'
             '"planck_h":6.62607015e-34,"tof_edges":[0.001,0.002,0.004]}')
_GRID = '"axis_order":"view,row,col,bin","dtype":"f32le",'


class TestHeaderSchema:
    @pytest.mark.parametrize("role, text", [
        ("raw-scan", "{" + _GRID + _GEOMETRY + ',"role":"raw-scan","shape":[3,1,2,2],'
         + _SPECTRAL + "}"),
        ("sinogram", "{" + _GRID + _GEOMETRY + ',"role":"sinogram","shape":[2,1,2,2],'
         + _SPECTRAL + "}"),
        ("subspace-sinogram", "{" + _GRID + _GEOMETRY
         + ',"role":"subspace-sinogram","shape":[2,1,2,1]}'),
        ("basis", '{"axis_order":"bin,channel","dtype":"f32le","role":"basis","shape":[2,1],'
         + _SPECTRAL + "}"),
        ("volume", '{"axis_order":"row,col,slice,channel","dtype":"f32le","role":"volume",'
         '"shape":[1,2,2,1],"voxel_pitch":0.5}'),
    ])
    def test_header_text_is_fixed(self, tmp_path, role, text):
        # the on-disk format: these exact bytes, key order and number spelling included
        path = tmp_path / "x.hsnct"
        write_container(path, tiny_containers()[role])
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        assert raw[12 : 12 + hlen].decode("utf-8") == text

    def test_numpy_scalars_round_trip(self, tmp_path):
        # numpy counts and lengths are written as the JSON kinds the reader demands
        geom = ScanGeometry(np.int64(2), np.int32(1), np.int64(2), [0.0, 1.5],
                            flight_path=np.float64(10.0), pixel_pitch=np.float32(0.5))
        axis = SpectralAxis([1e-3, 2e-3, 4e-3], ToFConverter(flight_path=np.float32(10.0)))
        sino = HyperspectralSinogram(np.zeros((4, 2)), geom, axis)
        vol = VolumeStack(np.ones((4, 1)), np.int64(1), np.int64(2),
                          voxel_pitch=np.float32(0.5))
        tiny = tiny_containers()
        for obj, role in ((sino, "sinogram"), (vol, "volume")):
            path, ref = tmp_path / f"{role}.hsnct", tmp_path / f"{role}_ref.hsnct"
            write_container(path, obj)
            write_container(ref, tiny[role])
            assert path.read_bytes() == ref.read_bytes()
            back, back_axis = load_container(path, role)
            assert type(back) is type(obj)
        assert back_axis is None
        back, back_axis = load_container(tmp_path / "sinogram.hsnct", "sinogram")
        assert back.geometry.num_views == 2 and back_axis.converter.flight_path == 10.0
