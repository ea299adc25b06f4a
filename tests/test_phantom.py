import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hsnct import phantom, tomo
from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    ToFConverter,
    ValidationError,
    VolumeStack,
)
from hsnct.phantom import (
    EdgeFeature,
    MaterialSpectrum,
    PhantomSpec,
    ShapeSpec,
    build_ground_truth,
    default_benchmark_phantom,
    simulate_scan,
    spec_from_dict,
    spec_to_dict,
)
from hsnct.preprocess import NormalizationOptions, normalize
from hsnct.subspace import NmfOptions, nmf_factorize
from hsnct.tomo import project_volume, slice_geometry_for

ANG = 1e-10


def small_axis(n_k=32):
    return SpectralAxis(np.linspace(2.5e-3, 1.31e-2, n_k + 1),
                        ToFConverter(flight_path=10.0))


def small_setup():
    """2 slices of 32x32, 8 views, 32 bins, 3 materials with distinct edges."""
    mats = (
        MaterialSpectrum("m0", 0.01, (EdgeFeature(2.0 * ANG, 0.002, 0.01, 0.08 * ANG),)),
        MaterialSpectrum("m1", 0.008, (EdgeFeature(3.0 * ANG, 0.012, 0.004, 0.05 * ANG),)),
        MaterialSpectrum("m2", 0.006, (EdgeFeature(4.2 * ANG, 0.004, 0.02, 0.1 * ANG),)),
    )
    shapes = (
        ShapeSpec("ellipse", (0.5, 0.5), (0.35, 0.35), 0),
        ShapeSpec("rectangle", (0.45, 0.4), (0.12, 0.1), 1),
        ShapeSpec("ellipse", (0.6, 0.6), (0.1, 0.12), 2),
    )
    spec = PhantomSpec(32, 2, shapes, mats, 200.0, 7)
    geom = ScanGeometry(8, 2, 32, np.linspace(0, np.pi, 8, endpoint=False),
                        flight_path=10.0)
    return spec, small_axis(), geom


class TestMaterialSpectrum:
    def test_flat_material(self):
        m = MaterialSpectrum("flat", 0.02)
        lam = np.linspace(1.0, 5.0, 40) * ANG
        np.testing.assert_array_equal(m.attenuation(lam), np.full(40, 0.02))

    def test_edge_asymptotes_and_midpoint(self):
        m = MaterialSpectrum("e", 0.01, (EdgeFeature(3.0 * ANG, 0.004, 0.016, 0.05 * ANG),))
        far = 30 * 0.05 * ANG
        assert m.attenuation(3.0 * ANG - far) == pytest.approx(0.014, rel=1e-9)
        assert m.attenuation(3.0 * ANG + far) == pytest.approx(0.026, rel=1e-9)
        assert m.attenuation(3.0 * ANG) == pytest.approx(0.01 + 0.010, rel=1e-12)

    def test_rising_edge_is_monotone(self):
        m = MaterialSpectrum("e", 0.0, (EdgeFeature(3.0 * ANG, 0.002, 0.02, 0.1 * ANG),))
        vals = m.attenuation(np.linspace(1.0, 5.0, 200) * ANG)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals >= 0)

    def test_benchmark_materials_non_negative(self):
        spec, _, _ = default_benchmark_phantom()
        lam = np.linspace(0.5, 6.0, 500) * ANG
        for m in spec.materials:
            assert float(m.attenuation(lam).min()) >= 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            MaterialSpectrum("", 0.01)
        with pytest.raises(ValidationError):
            MaterialSpectrum("x", -0.01)
        with pytest.raises(ValidationError):
            EdgeFeature(3.0 * ANG, -0.1, 0.2, 0.1 * ANG)
        with pytest.raises(ValidationError):
            EdgeFeature(3.0 * ANG, 0.1, 0.2, 0.0)
        with pytest.raises(ValidationError):
            EdgeFeature(0.0, 0.1, 0.2, 0.1 * ANG)


class TestShapeSpec:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            ShapeSpec("ellipse", (0.9, 0.5), (0.2, 0.1), 0)
        with pytest.raises(ValidationError):
            ShapeSpec("rectangle", (0.5, 0.05), (0.1, 0.1), 0)
        with pytest.raises(ValidationError):
            ShapeSpec("ellipse", (0.5, 0.5), (0.0, 0.1), 0)

    def test_bad_kind_and_slices(self):
        with pytest.raises(ValidationError):
            ShapeSpec("triangle", (0.5, 0.5), (0.1, 0.1), 0)
        with pytest.raises(ValidationError):
            ShapeSpec("ellipse", (0.5, 0.5), (0.1, 0.1), 0, slices=(3, 3))
        with pytest.raises(ValidationError):
            ShapeSpec("ellipse", (0.5, 0.5), (0.1, 0.1), 0, slices=(-1, 2))

    @pytest.mark.parametrize("field", ["center", "half_size"])
    @pytest.mark.parametrize("value", [["0.2", "0.2"], [0.2, 0.2, 0.2], [0.2], [True, 0.2],
                                       0.2, [10**400, 0.2]],
                             ids=["strings", "three", "one", "bool", "scalar", "huge-int"])
    def test_pair_is_two_numbers(self, field, value):
        # nothing is parsed, cut to two or indexed past its end
        pairs = {"center": (0.5, 0.5), "half_size": (0.2, 0.2), field: value}
        with pytest.raises(ValidationError, match=f"{field} must be a pair"):
            ShapeSpec("ellipse", material=0, **pairs)

    def test_rectangle_mask_pixel_exact(self):
        # pixel centers at (i + 0.5)/8; the box [0.25, 0.75] catches i = 2..5
        s = ShapeSpec("rectangle", (0.5, 0.5), (0.25, 0.25), 0)
        m = s.mask(8)
        expect = np.zeros((8, 8), dtype=bool)
        expect[2:6, 2:6] = True
        np.testing.assert_array_equal(m, expect)

    def test_ellipse_mask_area(self):
        s = ShapeSpec("ellipse", (0.5, 0.5), (0.3, 0.2), 0)
        n = 256
        area = s.mask(n).sum() / (n * n)
        assert area == pytest.approx(np.pi * 0.3 * 0.2, rel=0.02)


class TestPhantomSpec:
    def test_validation(self):
        mat = (MaterialSpectrum("m", 0.01),)
        shape = ShapeSpec("ellipse", (0.5, 0.5), (0.2, 0.2), 0)
        with pytest.raises(ValidationError):
            PhantomSpec(16, 2, (shape,), (), 100.0, 0)
        with pytest.raises(ValidationError):
            PhantomSpec(16, 2, (shape,), mat, 0.0, 0)
        with pytest.raises(ValidationError):
            PhantomSpec(16, 2, (ShapeSpec("ellipse", (0.5, 0.5), (0.2, 0.2), 3),),
                        mat, 100.0, 0)
        with pytest.raises(ValidationError):
            PhantomSpec(16, 2, (ShapeSpec("ellipse", (0.5, 0.5), (0.2, 0.2), 0,
                                          slices=(0, 5)),), mat, 100.0, 0)

    def test_json_round_trip(self):
        spec, _, _ = default_benchmark_phantom()
        blob = json.dumps(spec_to_dict(spec))
        assert spec_from_dict(json.loads(blob)) == spec

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValidationError):
            spec_from_dict({"image_size": 16})
        # integer fields are parsed as they are, not rounded
        spec, _, _ = default_benchmark_phantom()
        for key in ("image_size", "num_slices", "seed"):
            for value in (2.9, True, "4"):
                blob = json.loads(json.dumps(spec_to_dict(spec)))
                blob[key] = value
                with pytest.raises(ValidationError, match=key):
                    spec_from_dict(blob)
        for key in ("material", "slices"):
            for value in (0.5, True, "0", [0.5, 2]):
                blob = json.loads(json.dumps(spec_to_dict(spec)))
                blob["shapes"][1][key] = value
                with pytest.raises(ValidationError):
                    spec_from_dict(blob)


class TestBuildGroundTruth:
    def test_empty_shapes_all_zero(self):
        spec = PhantomSpec(16, 2, (), (MaterialSpectrum("m", 0.01),), 100.0, 0)
        vol = build_ground_truth(spec, small_axis(8))
        assert np.all(vol.voxels == 0.0)
        assert vol.voxels.shape == (2 * 16 * 16, 8)

    def test_flat_material_fills_uniformly(self):
        mat = (MaterialSpectrum("m", 0.025),)
        shape = ShapeSpec("rectangle", (0.5, 0.5), (0.25, 0.25), 0)
        spec = PhantomSpec(8, 1, (shape,), mat, 100.0, 0)
        vol = build_ground_truth(spec, small_axis(4))
        img = vol.voxels.reshape(8, 8, 4)
        inside = shape.mask(8)
        assert np.all(img[inside] == np.float32(0.025))
        assert np.all(img[~inside] == 0.0)

    def test_spectral_difference_localizes_edge_material(self):
        # material 1 carries the only edge; the bin difference across that
        # edge must vanish everywhere except inside material-1 voxels
        mats = (MaterialSpectrum("flat", 0.02),
                MaterialSpectrum("edgy", 0.01,
                                 (EdgeFeature(3.0 * ANG, 0.002, 0.02, 0.03 * ANG),)))
        shapes = (ShapeSpec("ellipse", (0.5, 0.5), (0.4, 0.4), 0),
                  ShapeSpec("rectangle", (0.5, 0.5), (0.15, 0.15), 1))
        spec = PhantomSpec(32, 1, shapes, mats, 100.0, 0)
        axis = small_axis(32)
        vol = build_ground_truth(spec, axis)
        lam = axis.wavelength_centers
        k_lo = int(np.argmin(np.abs(lam - 2.2 * ANG)))
        k_hi = int(np.argmin(np.abs(lam - 3.8 * ANG)))
        diff = (vol.voxels[:, k_hi] - vol.voxels[:, k_lo]).reshape(32, 32)
        inside = shapes[1].mask(32)
        assert np.all(diff[inside] > 0)
        assert np.all(diff[~inside] == 0)

    def test_overlap_is_last_wins(self):
        mats = (MaterialSpectrum("a", 0.01), MaterialSpectrum("b", 0.03))
        shapes = (ShapeSpec("rectangle", (0.5, 0.5), (0.3, 0.3), 0),
                  ShapeSpec("rectangle", (0.5, 0.5), (0.1, 0.1), 1))
        spec = PhantomSpec(16, 1, shapes, mats, 100.0, 0)
        vol = build_ground_truth(spec, small_axis(4))
        img = vol.voxels[:, 0].reshape(16, 16)
        assert np.all(img[shapes[1].mask(16)] == np.float32(0.03))
        outer_only = shapes[0].mask(16) & ~shapes[1].mask(16)
        assert np.all(img[outer_only] == np.float32(0.01))

    def test_slice_ranges_respected(self):
        mats = (MaterialSpectrum("m", 0.02),)
        shapes = (ShapeSpec("ellipse", (0.5, 0.5), (0.2, 0.2), 0, slices=(0, 1)),)
        spec = PhantomSpec(16, 2, shapes, mats, 100.0, 0)
        vol = build_ground_truth(spec, small_axis(4))
        per_slice = vol.voxels.reshape(2, 16 * 16, 4)
        assert per_slice[0].max() > 0
        assert np.all(per_slice[1] == 0.0)

    def test_slice_range_labels_exactly_its_slices(self):
        # material 1 on the half-open range [1, 3), material 0 on every slice
        mats = (MaterialSpectrum("all", 0.01), MaterialSpectrum("ranged", 0.03))
        shapes = (ShapeSpec("rectangle", (0.25, 0.25), (0.2, 0.2), 0),
                  ShapeSpec("rectangle", (0.75, 0.75), (0.2, 0.2), 1, slices=(1, 3)))
        spec = PhantomSpec(8, 4, shapes, mats, 100.0, 0)
        img = build_ground_truth(spec, small_axis(4)).voxels[:, 0].reshape(4, 8, 8)
        for shape, level, covered in ((shapes[0], 0.01, [0, 1, 2, 3]),
                                      (shapes[1], 0.03, [1, 2])):
            inside = img[:, shape.mask(8)]
            assert [z for z in range(4) if np.all(inside[z] == np.float32(level))] == covered
            assert [z for z in range(4) if np.all(inside[z] == 0.0)] == sorted(
                set(range(4)) - set(covered))

    def test_edge_outside_axis_rejected(self):
        mats = (MaterialSpectrum("m", 0.01,
                                 (EdgeFeature(9.0 * ANG, 0.0, 0.01, 0.05 * ANG),)),)
        spec = PhantomSpec(16, 1, (ShapeSpec("ellipse", (0.5, 0.5), (0.2, 0.2), 0),),
                           mats, 100.0, 0)
        with pytest.raises(ValidationError):
            build_ground_truth(spec, small_axis(8))


class TestSimulateScan:
    def test_high_flux_recovers_line_integrals(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        ell = project_volume(truth, geom)
        scan = simulate_scan(truth, geom, axis, 1e9, 11)
        p = normalize(scan, NormalizationOptions(clamp_negative=False))
        rmse = np.sqrt(((p.values.astype(np.float64) - ell) ** 2).mean())
        assert rmse <= 0.01 * ell.max()

    def test_empty_truth_counts_near_flux(self):
        _, axis, geom = small_setup()
        empty = VolumeStack(np.zeros((2 * 32 * 32, axis.num_bins), dtype=np.float32),
                            2, 32)
        scan = simulate_scan(empty, geom, axis, 200.0, 3)
        sigma_mean = np.sqrt(200.0 / scan.counts.size)
        assert abs(float(scan.counts.astype(np.float64).mean()) - 200.0) <= 5 * sigma_mean

    def test_seeded_determinism(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        a = simulate_scan(truth, geom, axis, 200.0, 5)
        b = simulate_scan(truth, geom, axis, 200.0, 5)
        assert a.counts.tobytes() == b.counts.tobytes()
        assert a.open_beam.tobytes() == b.open_beam.tobytes()
        c = simulate_scan(truth, geom, axis, 200.0, 6)
        assert a.counts.tobytes() != c.counts.tobytes()

    def test_negative_seed_rejected(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        with pytest.raises(ValidationError, match="seed"):
            simulate_scan(truth, geom, axis, 200.0, -1)

    def test_noiseless_matches_forward_projection(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        ell = project_volume(truth, geom)
        scan = simulate_scan(truth, geom, axis, spec.flux, 0, noise=False)
        p = normalize(scan, NormalizationOptions(clamp_negative=False))
        rel = np.abs(p.values.astype(np.float64) - ell).max() / ell.max()
        assert rel <= 1e-6
        np.testing.assert_array_equal(scan.open_beam, np.float32(spec.flux))
        # the counts and project_volume come from one projection
        expected = (spec.flux * np.exp(-ell)).astype(np.float32)
        assert scan.counts.reshape(ell.shape).tobytes() == expected.tobytes()

    def test_line_integrals_within_the_float32_rounding_bound(self):
        # the simulator's products run in float32 on the cached A^T's
        # weights; against the same weights in float64 a ray of k nonzero
        # weights is off by at most k * eps32 * (|A| |x|): k roundings of
        # its products and running sum, each at most eps32 / 2 relative
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        n_v, n_r, n_c, n2 = geom.num_views, geom.num_rows, geom.num_cols, geom.num_cols ** 2
        A = tomo._operators(slice_geometry_for(geom)).T.astype(np.float64)
        k = np.diff(A.tocsr().indptr)[:, None]
        ell = project_volume(truth, geom).reshape(n_v, n_r, n_c, -1)
        for r in range(n_r):
            x = truth.voxels[r * n2:(r + 1) * n2].astype(np.float64)
            err = np.abs(ell[:, r].reshape(n_v * n_c, -1) - A @ x)
            assert np.all(err <= k * np.finfo(np.float32).eps * (abs(A) @ np.abs(x)))
            assert err.max() > 0  # the product is float32's, not float64's

    def test_float32_overflow_of_a_line_integral_rejected(self):
        # 2e37 is a finite float32, but 32 pixels of it on one ray sum past
        # float32's largest value (3.4e38)
        _, axis, geom = small_setup()
        huge = VolumeStack(np.full((2 * 32 * 32, axis.num_bins), 2e37, dtype=np.float32),
                           2, 32)
        with pytest.raises(ValidationError, match="line integrals are not finite"):
            simulate_scan(huge, geom, axis, 200.0, 0)

    def test_bin_count_mismatch_rejected(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        with pytest.raises(ValidationError):
            simulate_scan(truth, geom, small_axis(16), 200.0, 0)

    def test_grid_mismatch_rejected(self):
        spec, axis, _ = small_setup()
        truth = build_ground_truth(spec, axis)
        other = ScanGeometry(8, 2, 16, np.linspace(0, np.pi, 8, endpoint=False),
                             flight_path=10.0)
        with pytest.raises(ValidationError):
            simulate_scan(truth, other, axis, 200.0, 0)

    def test_flight_path_mismatch_rejected_before_projecting(self, monkeypatch):
        spec, axis, _ = small_setup()
        truth = build_ground_truth(spec, axis)
        other = ScanGeometry(8, 2, 32, np.linspace(0, np.pi, 8, endpoint=False),
                             flight_path=12.5)

        def project(*args):
            raise AssertionError("projected a scan that RawScan refuses")
        monkeypatch.setattr(phantom, "_project", project)
        with pytest.raises(ValidationError,
                           match="geometry flight_path 12.5 != spectral flight_path 10.0"):
            simulate_scan(truth, other, axis, 200.0, 0)

    def test_bad_flux_rejected(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        with pytest.raises(ValidationError):
            simulate_scan(truth, geom, axis, 0.0, 0)


class TestSimulateScanWorkers:
    """The line integrals are projected in the caller's thread; the draws
    run one task per detector row on min(rows, CPUs, draws // 2**18)
    threads, in the caller's thread when that is 1; the bytes do not depend
    on the count."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(tomo, "ThreadPoolExecutor", RecordingPool)
        return sizes

    @staticmethod
    def four_rows():
        spec, axis, _ = small_setup()
        spec = PhantomSpec(32, 4, spec.shapes, spec.materials, spec.flux, spec.seed)
        geom = ScanGeometry(8, 4, 32, np.linspace(0, np.pi, 8, endpoint=False),
                            flight_path=10.0)
        return build_ground_truth(spec, axis), geom, axis

    @pytest.mark.parametrize("noise", [True, False])
    def test_bytes_equal_at_1_2_and_5_cpus(self, monkeypatch, pools, noise):
        truth, geom, axis = self.four_rows()
        monkeypatch.setattr(phantom, "_DRAWS_PER_WORKER", 1)
        scans = {}
        for cpus in (1, 2, 5):
            monkeypatch.setattr(phantom, "_usable_cpus", lambda: cpus)
            scan = simulate_scan(truth, geom, axis, 200.0, 9, noise=noise)
            scans[cpus] = (scan.counts.tobytes(), scan.open_beam.tobytes())
        assert pools == [2, 4]  # none at 1 CPU; 5 CPUs capped at the 4 rows
        assert scans[1] == scans[2] == scans[5]

    def test_a_small_scan_runs_in_the_callers_thread(self, monkeypatch, pools):
        truth, geom, axis = self.four_rows()  # 32,768 draws
        monkeypatch.setattr(phantom, "_usable_cpus", lambda: 64)
        simulate_scan(truth, geom, axis, 200.0, 9)
        monkeypatch.setattr(phantom, "_DRAWS_PER_WORKER", 32768 // 3)
        simulate_scan(truth, geom, axis, 200.0, 9)
        assert pools == [3]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_line_integrals_reach_the_caller(self, monkeypatch, pools, cpus):
        monkeypatch.setattr(phantom, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(phantom, "_DRAWS_PER_WORKER", 1)
        _, axis, geom = small_setup()
        huge = VolumeStack(np.full((2 * 32 * 32, axis.num_bins), 2e37, dtype=np.float32),
                           2, 32)
        with pytest.raises(ValidationError, match="line integrals are not finite"):
            simulate_scan(huge, geom, axis, 200.0, 0)
        assert pools == []  # raised while projecting, before any draw

    def test_cpus_are_those_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert phantom._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert phantom._usable_cpus() == 64


class TestNoiselessLowRank:
    def test_three_material_sinogram_is_rank_three(self):
        spec, axis, geom = small_setup()
        truth = build_ground_truth(spec, axis)
        scan = simulate_scan(truth, geom, axis, spec.flux, 0, noise=False)
        sino = normalize(scan)
        _, _, report = nmf_factorize(sino, NmfOptions(rank=3, seed=0))
        assert report.residual_energy <= 1e-4


class TestDefaultBenchmarkPhantom:
    def test_fixed_dimensions(self):
        spec, axis, geom = default_benchmark_phantom()
        assert (spec.image_size, spec.num_slices) == (64, 16)
        assert (geom.num_views, geom.num_rows, geom.num_cols) == (32, 16, 64)
        assert axis.num_bins == 256
        assert spec.flux == 200.0
        assert len(spec.materials) == 3
        assert axis.num_bins // 4 == 64  # bins per subspace channel at rank 4

    def test_deterministic_construction(self):
        a = default_benchmark_phantom()
        b = default_benchmark_phantom()
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].tof_edges, b[1].tof_edges)
        np.testing.assert_array_equal(a[2].view_angles, b[2].view_angles)

    def test_truth_has_three_distinct_spectra(self):
        spec, axis, _ = default_benchmark_phantom()
        vol = build_ground_truth(spec, axis)
        nonzero = vol.voxels[np.any(vol.voxels > 0, axis=1)]
        assert np.unique(nonzero, axis=0).shape[0] == 3
