import inspect
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

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
    simulate_scan,
)
from hsnct.pipeline import (
    CSV_COLUMNS,
    PipelineConfig,
    RunReport,
    run_benchmark,
    run_dhr,
    run_fhr,
    snr_db,
)
from hsnct.preprocess import NormalizationOptions, normalize
from hsnct.subspace import NmfOptions, expand, nmf_factorize
from hsnct.tomo import MbirOptions, SliceGeometry, reconstruct_stack

ANG = 1e-10

# every value a caller can set, by type: a new knob is a deliberate edit here
OPTION_FIELDS = {
    MbirOptions: ("prior", "regularization_weight", "max_iters", "rel_tol"),
    NmfOptions: ("rank", "seed", "max_iters", "rel_tol"),
    NormalizationOptions: ("clamp_negative",),
    PipelineConfig: ("subspace", "recon_engine", "recon", "threads"),
    SliceGeometry: ("angles", "num_detector_bins", "pixel_pitch"),
    # the JSON inputs' schemas: their fields are the keys of --spec, --geom
    # and the container headers
    ScanGeometry: ("num_views", "num_rows", "num_cols", "view_angles", "flight_path",
                   "pixel_pitch"),
    ToFConverter: ("flight_path", "planck_h", "neutron_mass"),
    PhantomSpec: ("image_size", "num_slices", "shapes", "materials", "flux", "seed"),
    ShapeSpec: ("kind", "center", "half_size", "material", "slices"),
    MaterialSpectrum: ("name", "baseline", "edges"),
    EdgeFeature: ("edge_wavelength", "pre_level", "post_level", "smoothing_width"),
}


def small_phantom(n=32, n_r=2, n_v=24, n_k=16):
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
    spec = PhantomSpec(n, n_r, shapes, mats, 200.0, 7)
    axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, n_k + 1),
                        ToFConverter(flight_path=10.0))
    geom = ScanGeometry(n_v, n_r, n, np.linspace(0, np.pi, n_v, endpoint=False),
                        flight_path=10.0)
    return spec, axis, geom


def noiseless_sinogram(**kw):
    spec, axis, geom = small_phantom(**kw)
    truth = build_ground_truth(spec, axis)
    return normalize(simulate_scan(truth, geom, axis, spec.flux, 0, noise=False))


def noisy_sinogram(seed=1, **kw):
    spec, axis, geom = small_phantom(**kw)
    truth = build_ground_truth(spec, axis)
    return truth, normalize(simulate_scan(truth, geom, axis, spec.flux, seed))


def fbp_cfg(rank, **kw):
    return PipelineConfig(subspace=NmfOptions(rank=rank, seed=0, **kw),
                          recon_engine="fbp")


class TestConfigValidation:
    def test_bad_engine(self):
        with pytest.raises(ValidationError):
            PipelineConfig(subspace=NmfOptions(rank=2, seed=0), recon_engine="art")

    def test_engine_option_mismatch(self):
        with pytest.raises(ValidationError):
            PipelineConfig(subspace=NmfOptions(rank=2, seed=0),
                           recon_engine="fbp", recon=MbirOptions())
        with pytest.raises(ValidationError):
            PipelineConfig(subspace=NmfOptions(rank=2, seed=0),
                           recon_engine="mbir", recon="ramp")
        with pytest.raises(ValidationError):
            PipelineConfig(subspace=NmfOptions(rank=2, seed=0),
                           recon_engine="fbp", recon="hann")

    @pytest.mark.parametrize("cls", list(OPTION_FIELDS), ids=lambda cls: cls.__name__)
    def test_option_fields_are_pinned(self, cls):
        assert tuple(f.name for f in fields(cls)) == OPTION_FIELDS[cls]

    def test_bad_threads(self):
        with pytest.raises(ValidationError):
            PipelineConfig(subspace=NmfOptions(rank=2, seed=0), threads=0)

    def test_report_validation(self):
        with pytest.raises(ValidationError):
            RunReport("fhr", "fbp", 16, 4, -1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="n_s"):
            RunReport("fhr", "fbp", 16, 0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="n_k"):
            RunReport("fhr", "fbp", 0, 4, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            RunReport("fhr", "fbp", 16, 4, 0.0, 0.0, 0.0, 1.0, snr_db=np.nan)


class TestSnrDb:
    def make(self, arr):
        a = np.asarray(arr, dtype=np.float32).reshape(-1, 1)
        n = int(round(a.size ** (1 / 2)))
        return VolumeStack(a, 1, n)

    def test_equal_error_norm_is_zero_db(self):
        ref = self.make(np.arange(1, 17, dtype=np.float64))
        recon = self.make(2 * np.arange(1, 17, dtype=np.float64))
        assert snr_db(recon, ref) == pytest.approx(0.0, abs=1e-6)

    def test_tenth_error_norm_is_twenty_db(self):
        base = np.arange(1, 17, dtype=np.float64)
        ref = self.make(base)
        recon = self.make(base * 1.1)
        assert snr_db(recon, ref) == pytest.approx(20.0, abs=1e-3)

    def test_perfect_match_is_an_error(self):
        ref = self.make(np.arange(1, 17, dtype=np.float64))
        with pytest.raises(ValidationError, match="perfect"):
            snr_db(ref, ref)

    def test_zero_reference_rejected(self):
        z = self.make(np.zeros(16))
        r = self.make(np.ones(16))
        with pytest.raises(ValidationError):
            snr_db(r, z)

    def test_shape_mismatch_rejected(self):
        a = VolumeStack(np.ones((16, 2), dtype=np.float32), 1, 4)
        b = VolumeStack(np.ones((16, 3), dtype=np.float32), 1, 4)
        with pytest.raises(ValidationError):
            snr_db(a, b)

    def test_grid_mismatch_rejected(self):
        # 16 slices of 64^2 and 4 slices of 128^2 hold as many voxels and
        # channels, but they are different grids
        rng = np.random.default_rng(0)
        a = VolumeStack(rng.uniform(1, 2, (16 * 64 * 64, 2)).astype(np.float32), 16, 64)
        b = VolumeStack(a.voxels * np.float32(1.1), 4, 128)
        assert a.voxels.shape == b.voxels.shape
        with pytest.raises(ValidationError, match=r"\(16, 64, 2\) vs reference \(4, 128, 2\)"):
            snr_db(a, b)


class TestRunFhr:
    def test_matches_dhr_on_noiseless_low_rank_data(self):
        # noiseless 3-material data is exactly rank 3, so factorize ->
        # reconstruct -> expand and per-bin reconstruction agree (both are
        # the same linear map on the same data, 180 views, fbp)
        p = noiseless_sinogram(n_v=180)
        cfg = fbp_cfg(rank=3, max_iters=2000, rel_tol=1e-10)
        fhr_vol, basis, rep = run_fhr(p, cfg)
        dhr_vol, _ = run_dhr(p, cfg)
        diff = fhr_vol.voxels.astype(np.float64) - dhr_vol.voxels.astype(np.float64)
        rel = np.sqrt((diff ** 2).mean()) / np.sqrt(
            (dhr_vol.voxels.astype(np.float64) ** 2).mean())
        assert rel <= 0.02
        assert rep.n_s == 3
        assert basis.rank == 3

    def test_full_rank_subspace_fits_exactly(self):
        geom = ScanGeometry(8, 1, 16, np.linspace(0, np.pi, 8, endpoint=False),
                            flight_path=10.0)
        axis = SpectralAxis(np.linspace(1e-3, 2e-3, 9), ToFConverter(flight_path=10.0))
        rng = np.random.default_rng(5)
        p = HyperspectralSinogram(rng.uniform(0.1, 1.0, (8 * 16, 8)), geom, axis)
        cfg = PipelineConfig(subspace=NmfOptions(rank=8, seed=0, max_iters=20000,
                                                 rel_tol=1e-14),
                             recon_engine="fbp")
        _, _, rep = run_fhr(p, cfg)
        assert rep.epsilon_frac <= 1e-6
        assert rep.n_s == 8

    def test_negative_input_rejected(self):
        geom = ScanGeometry(4, 1, 8, np.linspace(0, np.pi, 4, endpoint=False),
                            flight_path=10.0)
        axis = SpectralAxis(np.linspace(1e-3, 2e-3, 3), ToFConverter(flight_path=10.0))
        vals = np.full((4 * 8, 2), -0.5)
        p = HyperspectralSinogram(vals, geom, axis)
        with pytest.raises(ValidationError):
            run_fhr(p, fbp_cfg(rank=2))

    def test_report_times_present(self):
        _, p = noisy_sinogram()
        _, _, rep = run_fhr(p, fbp_cfg(rank=3))
        assert rep.total_s > 0
        assert rep.total_s + 1e-3 >= rep.extract_s + rep.recon_s + rep.expand_s
        assert rep.algorithm == "fhr" and rep.epsilon_frac is not None

    def test_missing_subspace_rejected(self):
        # the dhr config carries no NMF options, so fhr cannot run on it
        _, p = noisy_sinogram(n_k=2)
        with pytest.raises(ValidationError, match="subspace"):
            run_fhr(p, PipelineConfig(recon_engine="mbir"))

    def test_deterministic_at_fixed_seed(self):
        _, p = noisy_sinogram()
        v1, b1, r1 = run_fhr(p, fbp_cfg(rank=3))
        v2, b2, r2 = run_fhr(p, fbp_cfg(rank=3))
        assert v1.voxels.tobytes() == v2.voxels.tobytes()
        assert b1.basis.tobytes() == b2.basis.tobytes()
        assert r1.epsilon_frac == r2.epsilon_frac


class TestRunDhr:
    def test_single_bin_equals_direct_reconstruction(self):
        _, p = noisy_sinogram(n_k=1)
        vol, rep = run_dhr(p, PipelineConfig())
        direct = reconstruct_stack(p, p.geometry, "fbp")
        assert vol.voxels.tobytes() == direct.voxels.tobytes()
        assert rep.n_s == 1
        assert rep.extract_s == 0.0 and rep.expand_s == 0.0

    def test_duplicated_bin_gives_identical_channels(self):
        _, p = noisy_sinogram(n_k=2)
        dup = HyperspectralSinogram(
            np.stack([p.values[:, 0], p.values[:, 0]], axis=1), p.geometry, p.axis)
        vol, _ = run_dhr(dup, PipelineConfig())
        assert vol.voxels[:, 0].tobytes() == vol.voxels[:, 1].tobytes()

    def test_channel_count_is_bin_count(self):
        _, p = noisy_sinogram(n_k=16)
        _, rep = run_dhr(p, PipelineConfig())
        assert rep.n_s == 16
        assert rep.algorithm == "dhr" and rep.epsilon_frac is None

    @pytest.mark.parametrize("route,engine", [("dhr", "mbir"), ("dhr", "fbp"),
                                              ("fhr", "mbir"), ("fhr", "fbp")])
    def test_mbir_without_nmf_options(self, route, engine):
        # with recon=None both routes hand the engine's defaults to
        # reconstruct_stack, so each equals its stages called one by one
        _, p = noisy_sinogram(n_k=4)
        cfg = PipelineConfig(recon_engine=engine)
        assert cfg.subspace is None and cfg.recon is None
        opts = MbirOptions() if engine == "mbir" else None
        if route == "dhr":
            vol, rep = run_dhr(p, cfg)
            staged = reconstruct_stack(p, p.geometry, engine, opts)
        else:
            nmf = NmfOptions(rank=2, seed=0)
            vol, _, rep = run_fhr(p, replace(cfg, subspace=nmf))
            coeffs, basis, _ = nmf_factorize(p, nmf)
            staged = expand(reconstruct_stack(coeffs, p.geometry, engine, opts), basis)
        assert vol.voxels.tobytes() == staged.voxels.tobytes()
        assert rep.engine == engine and rep.n_s == (4 if route == "dhr" else 2)


class TestFbpCommutation:
    def test_expand_commutes_with_linear_reconstruction(self):
        # reconstruct-then-expand vs expand-then-reconstruct; fbp is linear
        # so the two orders agree to float precision
        _, p = noisy_sinogram(n_v=32)
        coeffs, basis, _ = nmf_factorize(p, NmfOptions(rank=3, seed=0))
        x_s = reconstruct_stack(coeffs, p.geometry, "fbp")
        lhs = expand(x_s, basis).voxels.astype(np.float64)

        resynth = coeffs.coeffs.astype(np.float64) @ basis.basis.astype(np.float64).T
        rhs_sino = HyperspectralSinogram(resynth, p.geometry, p.axis)
        rhs = reconstruct_stack(rhs_sino, p.geometry, "fbp").voxels.astype(np.float64)

        denom = max(float(np.abs(rhs).max()), 1e-12)
        assert np.abs(lhs - rhs).max() / denom <= 1e-5


@pytest.fixture(scope="module")
def small_bench():
    spec, axis, geom = small_phantom(n_v=16)
    cfg = fbp_cfg(rank=3)
    return spec, axis, geom, run_benchmark(spec, axis, geom, cfg)


class TestRunBenchmark:
    def test_csv_schema(self, small_bench):
        _, _, _, res = small_bench
        lines = res.csv_text.split("\n")
        assert lines[0] == "algorithm,engine,n_k,n_s,snr_db,extract_s,recon_s,expand_s,total_s,speedup"
        assert len(lines) == 4 and lines[3] == ""
        assert "\r" not in res.csv_text
        for line in lines[1:3]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_row_contents(self, small_bench):
        # a row is its route's RunReport plus the speedup, nothing restated
        _, axis, _, res = small_bench
        fhr_row, dhr_row = res.rows
        fhr, dhr = res.fhr_report, res.dhr_report
        assert fhr_row == {**asdict(fhr), "speedup": dhr.total_s / fhr.total_s}
        assert dhr_row == {**asdict(dhr), "speedup": 1.0}
        assert fhr_row["algorithm"] == "fhr" and dhr_row["algorithm"] == "dhr"
        assert fhr_row["n_k"] == dhr_row["n_k"] == axis.num_bins
        assert fhr_row["n_s"] == 3 and dhr_row["n_s"] == axis.num_bins
        assert dhr_row["speedup"] == 1.0
        assert np.isfinite(fhr_row["snr_db"]) and np.isfinite(dhr_row["snr_db"])

    def test_snr_deterministic_across_reruns(self, small_bench):
        spec, axis, geom, res = small_bench
        cfg = fbp_cfg(rank=3)
        again = run_benchmark(spec, axis, geom, cfg)
        assert again.fhr_report.snr_db == res.fhr_report.snr_db
        assert again.dhr_report.snr_db == res.dhr_report.snr_db

    def test_one_config_for_both_routes(self):
        # identical settings on fhr and dhr hold by construction
        params = inspect.signature(run_benchmark).parameters
        assert tuple(params) == ("spec", "axis", "geom", "cfg")
        assert params["cfg"].annotation == "PipelineConfig"

    def test_slice_images_exported(self, small_bench):
        _, _, geom, res = small_bench
        names = sorted(res.slice_images)
        assert any(k.startswith("truth_") for k in names)
        assert any(k.startswith("fhr_") for k in names)
        assert any(k.startswith("dhr_") for k in names)
        for img in res.slice_images.values():
            assert img.shape == (geom.num_cols, geom.num_cols)
