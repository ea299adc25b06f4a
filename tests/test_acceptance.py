"""Acceptance gate: the seven headline claims, one test per criterion.

Each test computes its measurements first, then emits exactly one
"criterion N PASS/FAIL (...)" line on the real stdout (capture suspended
via capfd) before asserting, so every criterion's outcome and measured
margin is visible in the plain test log.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    SpectralBasis,
    SubspaceSinogram,
    ToFConverter,
    geometry_header,
    spectral_header,
)
from hsnct.phantom import (
    EdgeFeature,
    MaterialSpectrum,
    PhantomSpec,
    ShapeSpec,
    build_ground_truth,
    simulate_scan,
    spec_to_dict,
)
from hsnct.pipeline import PipelineConfig, run_dhr, run_fhr
from hsnct.preprocess import NormalizationOptions, normalize, tof_to_wavelength
from hsnct.subspace import NmfOptions, nmf_factorize, subspace_residual
from hsnct.tomo import (
    SliceGeometry,
    back_project,
    fbp_reconstruct,
    forward_project,
    project_volume,
)

ANG = 1e-10
CSV_HEADER = "algorithm,engine,n_k,n_s,snr_db,extract_s,recon_s,expand_s,total_s,speedup"
TIMING_KEYS = {"extract_s", "recon_s", "expand_s", "total_s"}


def _verdict(capfd, num: int, slug: str, ok: bool, detail: str):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({slug}): {detail}"
    with capfd.disabled():
        sys.stdout.write("\n" + line + "\n")
        sys.stdout.flush()
    assert ok, line


def _cli(*args) -> subprocess.CompletedProcess:
    # pytest's filterwarnings does not reach a subprocess, so the flag makes
    # an overflow or NaN there fail the run as it does in process
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hsnct",
                           *map(str, args)], capture_output=True, text=True)


def _sino_from(mat: np.ndarray) -> HyperspectralSinogram:
    n_p, n_k = mat.shape
    geom = ScanGeometry(1, 1, n_p, np.array([0.0]), flight_path=10.0)
    axis = SpectralAxis(np.linspace(1e-3, 2e-3, n_k + 1),
                        ToFConverter(flight_path=10.0))
    return HyperspectralSinogram(mat, geom, axis)


def _small_phantom(n_v=8):
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
    axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, 17),
                        ToFConverter(flight_path=10.0))
    geom = ScanGeometry(n_v, 2, 32, np.linspace(0, np.pi, n_v, endpoint=False),
                        flight_path=10.0)
    return spec, axis, geom


@pytest.fixture(scope="module")
def desk_bench(tmp_path_factory):
    """One desk-preset benchmark run through the CLI; criteria 1 and 2 both
    read from it so the expensive DHR pass happens once."""
    d = tmp_path_factory.mktemp("bench")
    out = d / "results.csv"
    proc = _cli("bench", "--out", out, "--preset", "desk")
    assert proc.returncode == 0, proc.stderr
    text = out.read_text(encoding="ascii")
    rows = list(csv.DictReader(text.splitlines()))
    return d, text, rows


class TestCriterion1Speedup:
    def test_criterion_1_desk_scale_speedup(self, desk_bench, capfd):
        d, text, rows = desk_bench
        assert text.splitlines()[0] == CSV_HEADER
        assert len(rows) == 2
        assert "\r" not in text
        fhr = next(r for r in rows if r["algorithm"] == "fhr")
        dhr = next(r for r in rows if r["algorithm"] == "dhr")
        assert fhr["engine"] == dhr["engine"] == "mbir"
        assert (fhr["n_k"], fhr["n_s"]) == ("256", "4")
        assert (dhr["n_k"], dhr["n_s"]) == ("256", "256")
        assert len(list(d.glob("*.pgm"))) >= 6  # comparison slice exports
        t_fhr, t_dhr = float(fhr["total_s"]), float(dhr["total_s"])
        _verdict(capfd, 1, "speedup", t_fhr <= t_dhr / 8.0,
                 f"FHR {t_fhr:.1f}s vs DHR {t_dhr:.1f}s = {t_dhr / t_fhr:.1f}x "
                 f"(need >= 8x), benchmark N_k=256 N_s=4, mbir both")


class TestCriterion2SnrGain:
    def test_criterion_2_desk_scale_snr_gap(self, desk_bench, capfd):
        _, _, rows = desk_bench
        fhr = next(r for r in rows if r["algorithm"] == "fhr")
        dhr = next(r for r in rows if r["algorithm"] == "dhr")
        gap = float(fhr["snr_db"]) - float(dhr["snr_db"])
        _verdict(capfd, 2, "snr-gain", gap >= 5.0,
                 f"FHR {float(fhr['snr_db']):.2f} dB vs DHR "
                 f"{float(dhr['snr_db']):.2f} dB = {gap:+.2f} dB (need >= +5 dB), "
                 f"engine-matched mbir")


class TestCriterion3NmfSuite:
    def test_criterion_3_factorization_correctness(self, capfd):
        # (a) objective trace non-increasing on 100 seeded random instances
        worst_rise = -np.inf
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            mat = rng.uniform(0.0, 1.0, (30, 8))
            _, _, rep = nmf_factorize(
                _sino_from(mat),
                NmfOptions(rank=3, seed=s, max_iters=60, rel_tol=1e-15))
            t = rep.objective_trace
            floor = 1e-12 * t[0]
            rise = np.max(t[1:] - (t[:-1] + 1e-10 * np.maximum(t[:-1], floor)))
            worst_rise = max(worst_rise, float(rise))
        mono_ok = worst_rise <= 0.0

        # (b) exact non-negative rank-r inputs recovered with N_s = r
        eps = {}
        for r in (1, 2, 3):
            rng = np.random.default_rng(2000 + r)
            mat = rng.uniform(0.2, 1.0, (150, r)) @ rng.uniform(0.2, 1.0, (24, r)).T
            _, _, rep = nmf_factorize(
                _sino_from(mat),
                NmfOptions(rank=r, seed=42, max_iters=4000, rel_tol=1e-10))
            eps[r] = float(rep.residual_energy)
        rank_ok = all(v <= 1e-6 for v in eps.values())

        # (c) residual invariant under the V/D column-rescaling gauge
        # (power-of-two scales, exact in the f32 container precision)
        rng = np.random.default_rng(77)
        p = _sino_from(rng.uniform(0.1, 1.0, (60, 12)))
        v, dbasis, _ = nmf_factorize(p, NmfOptions(rank=4, seed=1))
        _, e0 = subspace_residual(p, v, dbasis)
        scales = np.array([2.0, 0.5, 4.0, 0.25])
        _, e1 = subspace_residual(
            p, SubspaceSinogram(v.coeffs * scales, v.geometry),
            SpectralBasis(dbasis.basis / scales, dbasis.axis))
        gauge_diff = abs(e1 - e0)
        gauge_ok = gauge_diff <= 1e-10 * max(e0, 1e-300)

        _verdict(capfd, 3, "nmf-suite", mono_ok and rank_ok and gauge_ok,
                 f"monotone worst rise {worst_rise:.2e} over 100 instances; "
                 f"exact-rank eps r1={eps[1]:.1e} r2={eps[2]:.1e} r3={eps[3]:.1e} "
                 f"(need <= 1e-6); gauge residual shift {gauge_diff:.1e} "
                 f"(need <= 1e-10 relative)")


class TestCriterion4ProjectorSuite:
    def test_criterion_4_projector_and_fbp(self, capfd):
        # inner-product adjoint identity on 20 random pairs
        geom = SliceGeometry(np.linspace(0, np.pi, 32, endpoint=False), 64)
        rng = np.random.default_rng(0)
        worst_adj = 0.0
        for _ in range(20):
            x = rng.normal(size=(64, 64))
            y = rng.normal(size=(32, 64))
            lhs = float(np.sum(forward_project(x, geom) * y))
            rhs = float(np.sum(x * back_project(y, geom)))
            worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        adj_ok = worst_adj <= 1e-5

        # disk chord lengths within the 2-pixel discretization bound
        n, radius = 64, 8.0
        u = np.arange(n) - (n - 1) / 2
        UA, UB = np.meshgrid(u, u, indexing="ij")
        off = (np.arange(8) + 0.5) / 8 - 0.5
        SA = UA[..., None, None] + off[None, None, :, None]
        SB = UB[..., None, None] + off[None, None, None, :]
        disk = (SA**2 + SB**2 <= radius**2).mean(axis=(2, 3))
        chord = 2 * np.sqrt(np.maximum(radius**2 - u**2, 0.0))
        worst_chord = 0.0
        for ang in (0.0, np.pi / 7, np.pi / 4, 1.2, 3 * np.pi / 4, 2.9):
            sino = forward_project(disk, SliceGeometry(np.array([ang]), n))
            worst_chord = max(worst_chord, float(np.abs(sino[0] - chord).max()))
        chord_ok = worst_chord <= 2.0

        # FBP disk round trip at 180 views
        big = ((UA**2 + UB**2) <= 16.0**2).astype(np.float64)
        g180 = SliceGeometry(np.linspace(0, np.pi, 180, endpoint=False), n)
        rec = fbp_reconstruct(forward_project(big, g180), g180)
        interior = UA**2 + UB**2 <= 14.0**2
        fbp_rmse = float(np.sqrt(((rec[interior] - 1.0) ** 2).mean()))
        fbp_ok = fbp_rmse <= 0.1

        _verdict(capfd, 4, "projector-suite", adj_ok and chord_ok and fbp_ok,
                 f"adjoint worst {worst_adj:.1e} (need <= 1e-5); chord worst "
                 f"{worst_chord:.2f} px (need <= 2); FBP interior RMSE "
                 f"{fbp_rmse:.3f} (need <= 0.1)")


class TestCriterion5LinearCommutation:
    def test_criterion_5_fhr_equals_dhr_on_noiseless_low_rank(self, capfd):
        spec, axis, geom = _small_phantom(n_v=180)
        truth = build_ground_truth(spec, axis)
        p = normalize(simulate_scan(truth, geom, axis, spec.flux, 0, noise=False))
        cfg = PipelineConfig(
            subspace=NmfOptions(rank=3, seed=0, max_iters=2000, rel_tol=1e-10),
            recon_engine="fbp")
        fhr_vol, _, _ = run_fhr(p, cfg)
        dhr_vol, _ = run_dhr(p, cfg)
        diff = fhr_vol.voxels.astype(np.float64) - dhr_vol.voxels.astype(np.float64)
        rel = float(np.sqrt((diff**2).mean())
                    / np.sqrt((dhr_vol.voxels.astype(np.float64) ** 2).mean()))
        _verdict(capfd, 5, "linear-commutation", rel <= 0.02,
                 f"relative volume RMSE {rel:.2e} between fbp FHR and fbp DHR "
                 f"on noiseless rank-3 data, 180 views (need <= 2e-2)")


class TestCriterion6PhysicsRoundTrip:
    def test_criterion_6_normalization_and_wavelength(self, capfd):
        spec, axis, geom = _small_phantom()
        truth = build_ground_truth(spec, axis)
        ell = project_volume(truth, geom)
        scan = simulate_scan(truth, geom, axis, 1e9, 11)
        p = normalize(scan, NormalizationOptions(clamp_negative=False))
        rmse = float(np.sqrt(((p.values.astype(np.float64) - ell) ** 2).mean()))
        frac = rmse / float(ell.max())
        flux_ok = frac <= 0.01

        conv = ToFConverter(flight_path=10.0)
        dt = 2.5e-3
        expect = (6.62607015e-34 / 1.67492749804e-27) * (dt / 10.0)
        got = tof_to_wavelength(conv, dt)
        lam_rel = abs(got - expect) / expect
        lam_ok = lam_rel <= 1e-12

        _verdict(capfd, 6, "physics-round-trip", flux_ok and lam_ok,
                 f"normalize(simulate) at flux 1e9: RMSE {frac:.1e} of max "
                 f"line integral (need <= 1e-2); wavelength vs direct CODATA "
                 f"evaluation {lam_rel:.1e} relative (need <= 1e-12)")


@pytest.fixture(scope="module")
def cli_input(tmp_path_factory):
    d = tmp_path_factory.mktemp("determinism")
    spec, axis, geom = _small_phantom(n_v=16)
    (d / "spec.json").write_text(json.dumps(
        {"phantom": spec_to_dict(spec), "spectral": spectral_header(axis)}))
    (d / "geom.json").write_text(json.dumps(geometry_header(geom)))
    for args in (("phantom", "--spec", d / "spec.json",
                  "--out-truth", d / "t.hsnct"),
                 ("simulate", "--truth", d / "t.hsnct", "--geom",
                  d / "geom.json", "--flux", "200", "--out", d / "scan.hsnct",
                  "--seed", "7"),
                 ("normalize", "--scan", d / "scan.hsnct",
                  "--out", d / "p.hsnct")):
        proc = _cli(*args)
        assert proc.returncode == 0, proc.stderr
    return d


class TestCriterion7Determinism:
    def test_criterion_7_repeated_fhr_is_bit_identical(self, cli_input, capfd):
        d = cli_input
        for tag in ("a", "b"):
            proc = _cli("fhr", "--in", d / "p.hsnct", "--rank", "3",
                        "--engine", "fbp", "--seed", "3", "--threads", "1",
                        "--out", d / f"x_{tag}.hsnct",
                        "--report", d / f"r_{tag}.json")
            assert proc.returncode == 0, proc.stderr
        vol_same = (d / "x_a.hsnct").read_bytes() == (d / "x_b.hsnct").read_bytes()
        ra = json.loads((d / "r_a.json").read_text())
        rb = json.loads((d / "r_b.json").read_text())
        ra_static = {k: v for k, v in ra.items() if k not in TIMING_KEYS}
        rb_static = {k: v for k, v in rb.items() if k not in TIMING_KEYS}
        rep_same = ra_static == rb_static and set(ra) == set(rb)
        _verdict(capfd, 7, "determinism", vol_same and rep_same,
                 f"two fhr runs, same flags/seed/--threads 1: volume containers "
                 f"byte-identical={vol_same}, reports identical outside timing "
                 f"fields={rep_same}")
