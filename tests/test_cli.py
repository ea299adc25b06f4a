import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hsnct import cli, containers, tomo
from hsnct.cli import _build_parser, main
from hsnct.containers import (
    ContainerError,
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    ToFConverter,
    VolumeStack,
    geometry_header,
    load_basis,
    load_container,
    load_raw_scan,
    load_sinogram,
    load_volume,
    spectral_header,
    write_container,
)
from hsnct.phantom import (
    EdgeFeature,
    MaterialSpectrum,
    PhantomSpec,
    ShapeSpec,
    spec_to_dict,
)
from hsnct.pipeline import RunReport
from hsnct.preprocess import normalize
from hsnct.subspace import NmfOptions, nmf_factorize
from hsnct.tomo import MbirOptions, reconstruct_stack

ANG = 1e-10
REPORT_KEYS = {"algorithm", "engine", "n_k", "n_s", "extract_s", "recon_s",
               "expand_s", "total_s", "epsilon_frac", "snr_db"}
TIMING_KEYS = {"extract_s", "recon_s", "expand_s", "total_s"}

# every optional flag of each subcommand: a command takes --seed or
# --threads only where it reads it, so a new flag is a deliberate edit here
COMMAND_FLAGS = {
    "phantom": {"--verbose"},
    "simulate": {"--seed", "--verbose"},
    "normalize": {"--verbose", "--no-clamp"},
    "extract": {"--seed", "--verbose", "--max-iters", "--tol"},
    "reconstruct": {"--threads", "--verbose", "--beta", "--prior"},
    "expand": {"--verbose"},
    "fhr": {"--seed", "--threads", "--verbose"},
    "dhr": {"--threads", "--verbose"},
    "bench": {"--seed", "--threads", "--verbose", "--preset"},
    "slice": {"--verbose"},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small end-to-end workspace: spec/geom JSON plus the stage outputs up
    to normalized projections, their rank-3 extraction (v, d) and its fbp
    volume (xs), so that each test reads only what this fixture wrote."""
    d = tmp_path_factory.mktemp("cli")
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
    axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, 17), ToFConverter(flight_path=10.0))
    geom = ScanGeometry(16, 2, 32, np.linspace(0, np.pi, 16, endpoint=False),
                        flight_path=10.0)
    (d / "spec.json").write_text(json.dumps(
        {"phantom": spec_to_dict(spec), "spectral": spectral_header(axis)}))
    (d / "geom.json").write_text(json.dumps(geometry_header(geom)))
    assert main(["phantom", "--spec", str(d / "spec.json"),
                 "--out-truth", str(d / "t.hsnct")]) == 0
    assert main(["simulate", "--truth", str(d / "t.hsnct"),
                 "--geom", str(d / "geom.json"), "--flux", "200",
                 "--out", str(d / "scan.hsnct"), "--seed", "7"]) == 0
    assert main(["normalize", "--scan", str(d / "scan.hsnct"),
                 "--out", str(d / "p.hsnct")]) == 0
    assert main(["extract", "--in", str(d / "p.hsnct"), "--rank", "3",
                 "--out-v", str(d / "v.hsnct"), "--out-d", str(d / "d.hsnct"),
                 "--max-iters", "300", "--tol", "0.05"]) == 0
    assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "fbp",
                 "--out", str(d / "xs.hsnct")]) == 0
    return d


def patch_header(src, dst, mutate):
    """Copy container ``src`` to ``dst`` with ``mutate`` applied to its JSON
    header; the payload is left as it is."""
    raw = src.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    mutate(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])


def write_wide_sinogram(d):
    """A noisy rank-3 sinogram of 2,048 rays x 256 bins at ``d``/p.hsnct: at
    this size OpenBLAS splits the Gram matrix and the factor products over
    its threads (at 4,096 x 64 it does not)."""
    rng = np.random.default_rng(12)
    geom = ScanGeometry(16, 2, 64, np.linspace(0, np.pi, 16, endpoint=False),
                        flight_path=10.0)
    axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, 257), ToFConverter(flight_path=10.0))
    clean = rng.uniform(0.0, 1.0, (2048, 3)) @ rng.uniform(0.0, 1.0, (256, 3)).T
    noisy = np.maximum(clean + 0.05 * rng.standard_normal(clean.shape), 0.0)
    write_container(d / "p.hsnct", HyperspectralSinogram(noisy, geom, axis))
    return d / "p.hsnct"


def run_hsnct(args, blas_threads):
    """Run the CLI in a child process with OPENBLAS_NUM_THREADS set; it must succeed."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hsnct", *args],
        env={**os.environ, "OPENBLAS_NUM_THREADS": blas_threads},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestStageCommands:
    def test_phantom_truth_container(self, workdir):
        vol, axis = load_volume(workdir / "t.hsnct")
        assert vol.num_channels == 16 and vol.num_rows == 2
        assert axis.num_bins == 16
        nonzero = vol.voxels[np.any(vol.voxels > 0, axis=1)]
        assert np.unique(nonzero, axis=0).shape[0] == 3

    def test_simulate_seed_determinism(self, workdir):
        a, b, c = (str(workdir / f"scan_{k}.hsnct") for k in "abc")
        base = ["simulate", "--truth", str(workdir / "t.hsnct"),
                "--geom", str(workdir / "geom.json"), "--flux", "200"]
        assert main(base + ["--out", a, "--seed", "9"]) == 0
        assert main(base + ["--out", b, "--seed", "9"]) == 0
        assert main(base + ["--out", c, "--seed", "10"]) == 0
        ba, bb, bc = (open(p, "rb").read() for p in (a, b, c))
        assert ba == bb
        assert ba != bc

    def test_normalize_clamp_flags(self, workdir):
        clamped = load_sinogram(workdir / "p.hsnct")
        assert float(clamped.values.min()) >= 0.0
        out = str(workdir / "p_raw.hsnct")
        assert main(["normalize", "--scan", str(workdir / "scan.hsnct"),
                     "--out", out, "--no-clamp"]) == 0
        raw = load_sinogram(out)
        assert float(raw.values.min()) < 0.0

    def test_extract_reconstruct_expand(self, workdir):
        # the fixture ran extract and reconstruct
        d = workdir
        coeffs = load_container(d / "v.hsnct", "subspace-sinogram")[0]
        basis = load_basis(d / "d.hsnct")
        assert coeffs.rank == 3 and basis.rank == 3
        assert basis.basis.shape == (16, 3)

        xs, _ = load_volume(d / "xs.hsnct")
        assert xs.num_channels == 3
        assert xs.voxels.shape == (2 * 32 * 32, 3)

        assert main(["expand", "--in", str(d / "xs.hsnct"),
                     "--basis", str(d / "d.hsnct"),
                     "--out", str(d / "xh.hsnct")]) == 0
        xh, axis = load_volume(d / "xh.hsnct")
        assert xh.num_channels == 16
        assert axis.num_bins == 16

    def test_extract_defaults_are_nmf_options_defaults(self, workdir, capsys):
        # without --tol and --max-iters, extract runs what nmf_factorize runs by default
        d = workdir
        assert main(["extract", "--in", str(d / "p.hsnct"), "--rank", "3", "--verbose",
                     "--out-v", str(d / "v_def.hsnct"), "--out-d", str(d / "d_def.hsnct")]) == 0
        log = capsys.readouterr().err
        coeffs, basis, report = nmf_factorize(load_sinogram(d / "p.hsnct"),
                                              NmfOptions(rank=3, seed=0))
        write_container(d / "v_ref.hsnct", coeffs)
        write_container(d / "d_ref.hsnct", basis)
        assert (d / "v_def.hsnct").read_bytes() == (d / "v_ref.hsnct").read_bytes()
        assert (d / "d_def.hsnct").read_bytes() == (d / "d_ref.hsnct").read_bytes()
        assert f"in {report.iterations_run} passes" in log
        assert f"gap {report.gap:.3g}" in log

    def test_extract_logs_the_rows_it_fitted(self, workdir, capsys):
        # 16 views x 2 rows x 32 columns at 16 bins: the passes run on 8 N_k rows
        d = workdir
        assert main(["extract", "--in", str(d / "p.hsnct"), "--rank", "3", "--verbose",
                     "--out-v", str(d / "v_rows.hsnct"), "--out-d", str(d / "d_rows.hsnct")]) == 0
        report = nmf_factorize(load_sinogram(d / "p.hsnct"), NmfOptions(rank=3, seed=0))[2]
        assert report.fit_rows == 128
        assert (f"factorized rank 3 on 128 of 1024 rows in {report.iterations_run} passes"
                in capsys.readouterr().err)

    def test_extract_warns_when_it_stops_at_the_pass_cap(self, workdir, capsys):
        # the warning shows without --verbose; a run that meets --tol prints nothing
        d = workdir
        args = ["extract", "--in", str(d / "p.hsnct"), "--rank", "3",
                "--out-v", str(d / "v_cap.hsnct"), "--out-d", str(d / "d_cap.hsnct")]
        assert main(args + ["--max-iters", "1"]) == 0
        _, _, report = nmf_factorize(load_sinogram(d / "p.hsnct"),
                                     NmfOptions(rank=3, seed=0, max_iters=1))
        assert not report.converged
        assert capsys.readouterr().err == (
            f"hsnct extract: warning: stopped at the pass cap after 1 passes, "
            f"gap {report.gap:.3g} above --tol {NmfOptions.rel_tol:g}\n")
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    def test_extract_warns_when_a_column_collapses(self, tmp_path, capsys):
        # values in only 3 of 8 bins leave one of 5 columns nothing to fit
        X = np.zeros((40, 8))
        X[:, 2:5] = np.random.default_rng(0).uniform(0.0, 1.0, (40, 3))
        geom = ScanGeometry(40, 1, 1, np.linspace(0, np.pi, 40, endpoint=False),
                            flight_path=10.0)
        axis = SpectralAxis(np.linspace(1e-3, 2e-3, 9), ToFConverter(flight_path=10.0))
        write_container(tmp_path / "p.hsnct", HyperspectralSinogram(X, geom, axis))
        assert main(["extract", "--in", str(tmp_path / "p.hsnct"), "--rank", "5",
                     "--seed", "2", "--max-iters", "50",
                     "--out-v", str(tmp_path / "v.hsnct"),
                     "--out-d", str(tmp_path / "d.hsnct")]) == 0
        assert capsys.readouterr().err.endswith(
            "hsnct extract: warning: columns 4 collapsed to zero, so fewer than "
            "--rank 5 channels carry signal\n")

    def test_reconstruct_defaults_are_mbir_options_defaults(self, workdir):
        # without --beta and --prior, mbir runs what MbirOptions() sets
        d = workdir
        assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "mbir",
                     "--out", str(d / "xs_def.hsnct")]) == 0
        coeffs, _ = load_container(d / "v.hsnct", "subspace-sinogram")
        write_container(d / "xs_ref.hsnct",
                        reconstruct_stack(coeffs, coeffs.geometry, "mbir", MbirOptions()))
        assert (d / "xs_def.hsnct").read_bytes() == (d / "xs_ref.hsnct").read_bytes()

    def test_normalize_defaults_are_normalization_options_defaults(self, workdir):
        # without --no-clamp, normalize runs what normalize(scan) runs
        d = workdir
        assert main(["normalize", "--scan", str(d / "scan.hsnct"),
                     "--out", str(d / "p_def.hsnct")]) == 0
        write_container(d / "p_ref.hsnct", normalize(load_raw_scan(d / "scan.hsnct")))
        assert (d / "p_def.hsnct").read_bytes() == (d / "p_ref.hsnct").read_bytes()

    def test_reconstruct_mbir_flags(self, workdir):
        d = workdir
        assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "mbir",
                     "--beta", "2.0", "--prior", "huber",
                     "--out", str(d / "xs_mbir.hsnct")]) == 0
        vol, _ = load_volume(d / "xs_mbir.hsnct")
        assert float(vol.voxels.min()) >= 0.0

    def test_reconstruct_rejects_infinite_beta(self, workdir, capsys):
        out = workdir / "inf_beta.hsnct"
        rc = main(["reconstruct", "--in", str(workdir / "v.hsnct"), "--engine", "mbir",
                   "--beta", "inf", "--out", str(out)])
        assert rc == 1
        assert "regularization_weight" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["reconstruct", "fhr", "dhr", "bench"])
    def test_reconstruct_rejects_zero_threads(self, workdir, capsys, command, threads):
        # the library's threads rule, the one rule, reports a bad budget
        tag = f"bad_threads_{command}{threads}"
        assert main([command, *_command_args(workdir, command, tag),
                     "--threads", threads]) == 1
        assert "threads" in capsys.readouterr().err
        assert not list(workdir.glob(f"{tag}*"))

    @pytest.mark.parametrize("command", ["fhr", "dhr", "reconstruct"])
    def test_bad_threads_is_reported_before_the_input_is_read(self, tmp_path, capsys,
                                                               command):
        extra = {"fhr": ["--rank", "3", "--report", str(tmp_path / "r.json")],
                 "dhr": ["--report", str(tmp_path / "r.json")], "reconstruct": []}[command]
        assert main([command, "--in", str(tmp_path / "missing.hsnct"), *extra,
                     "--engine", "fbp", "--out", str(tmp_path / "x.hsnct"),
                     "--threads", "0"]) == 1
        assert "threads" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, setting", [
        ("--rank", "0", "rank"), ("--max-iters", "0", "max_iters"), ("--tol", "0", "rel_tol"),
    ])
    def test_bad_extract_setting_is_reported_before_the_input_is_read(
            self, tmp_path, capsys, flag, value, setting):
        args = {"--rank": "3", flag: value}
        assert main(["extract", "--in", str(tmp_path / "missing.hsnct"),
                     *(a for kv in args.items() for a in kv),
                     "--out-v", str(tmp_path / "v.hsnct"),
                     "--out-d", str(tmp_path / "d.hsnct")]) == 1
        assert f"{setting} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fractional_threads_is_a_usage_error(self, workdir, capsys):
        out = workdir / "frac_threads.hsnct"
        assert main(["reconstruct", "--in", str(workdir / "v.hsnct"), "--engine", "fbp",
                     "--threads", "1.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--threads" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--beta", "1.0", "regularization_weight"), ("--prior", "huber", "prior")],
        ids=["beta", "prior"])
    def test_reconstruct_fbp_rejects_mbir_flags(self, workdir, capsys, flag, value, setting):
        out = workdir / "nope.hsnct"
        rc = main(["reconstruct", "--in", str(workdir / "v.hsnct"),
                   "--engine", "fbp", flag, value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mbir" in err and setting in err
        assert not out.exists()

    def test_prior_takes_the_library_name(self, workdir, capsys):
        d = workdir
        assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "mbir",
                     "--prior", "quadratic-difference", "--out", str(d / "xs_qd.hsnct")]) == 0
        assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "mbir",
                     "--out", str(d / "xs_nqd.hsnct")]) == 0
        assert (d / "xs_qd.hsnct").read_bytes() == (d / "xs_nqd.hsnct").read_bytes()
        assert main(["reconstruct", "--in", str(d / "v.hsnct"), "--engine", "mbir",
                     "--prior", "quadratic", "--out", str(d / "xs_q.hsnct")]) == 1
        assert "usage" in capsys.readouterr().err
        assert not (d / "xs_q.hsnct").exists()

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        # every writer renames a finished temporary file onto its target, so
        # a failed write leaves the old bytes and no temporary file behind
        targets = [tmp_path / name for name in ("v.hsnct", "r.json", "s.pgm")]
        for path in targets:
            path.write_bytes(b"old " + path.name.encode())

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(containers.os, "replace", refuse)
        with pytest.raises(ContainerError, match="rename refused"):
            write_container(targets[0], VolumeStack(np.ones((2 * 4 * 4, 1)), 2, 4))
        with pytest.raises(OSError, match="rename refused"):
            cli._write_json(targets[1], {"snr_db": 1.0})
        with pytest.raises(OSError, match="rename refused"):
            cli._write_pgm(targets[2], np.ones((4, 4)))
        assert sorted(tmp_path.iterdir()) == sorted(targets)
        for path in targets:
            assert path.read_bytes() == b"old " + path.name.encode()

    def test_expand_rank_mismatch_names_both_counts(self, workdir, capsys):
        d = workdir
        assert main(["extract", "--in", str(d / "p.hsnct"), "--rank", "2",
                     "--out-v", str(d / "v2.hsnct"),
                     "--out-d", str(d / "d2.hsnct")]) == 0
        rc = main(["expand", "--in", str(d / "xs.hsnct"),
                   "--basis", str(d / "d2.hsnct"), "--out", str(d / "bad.hsnct")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "3" in err and "2" in err


class TestPipelineCommands:
    def test_report_keys_are_the_run_report_fields(self):
        assert REPORT_KEYS == {f.name for f in dataclasses.fields(RunReport)}

    def test_fhr_report_schema_and_determinism(self, workdir):
        d = workdir
        base = ["fhr", "--in", str(d / "p.hsnct"), "--rank", "3",
                "--engine", "fbp", "--seed", "3", "--threads", "1"]
        assert main(base + ["--out", str(d / "f1.hsnct"),
                            "--report", str(d / "r1.json")]) == 0
        assert main(base + ["--out", str(d / "f2.hsnct"),
                            "--report", str(d / "r2.json")]) == 0
        assert (d / "f1.hsnct").read_bytes() == (d / "f2.hsnct").read_bytes()
        r1 = json.loads((d / "r1.json").read_text())
        r2 = json.loads((d / "r2.json").read_text())
        assert set(r1) == REPORT_KEYS
        for k in REPORT_KEYS - TIMING_KEYS:
            assert r1[k] == r2[k]
        assert r1["algorithm"] == "fhr" and r1["n_s"] == 3 and r1["n_k"] == 16
        assert r1["snr_db"] is None and r1["epsilon_frac"] > 0
        vol, axis = load_volume(d / "f1.hsnct")
        assert vol.num_channels == 16 and axis.num_bins == 16

    def test_fhr_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a --threads budget above the CPU count is checked end to end too
        sino = write_wide_sinogram(tmp_path)
        volumes, reports = [], []
        for blas, threads in (("1", "1"), ("3", "1"), ("1", "64")):
            out, report = tmp_path / f"x{blas}{threads}.hsnct", tmp_path / "r.json"
            run_hsnct(["fhr", "--in", str(sino), "--rank", "3", "--engine", "fbp",
                       "--out", str(out), "--report", str(report), "--threads", threads], blas)
            volumes.append(out.read_bytes())
            reports.append({k: v for k, v in json.loads(report.read_text()).items()
                            if k not in TIMING_KEYS})
        assert volumes[0] == volumes[1] == volumes[2]
        assert reports[0] == reports[1] == reports[2]

    def test_dhr_fbp_bytes_do_not_depend_on_thread_counts(self, tmp_path):
        # FBP's float32 filter and backprojection give each column the same
        # bits at any OpenBLAS thread count and any --threads split
        sino = write_wide_sinogram(tmp_path)
        volumes = []
        for blas, threads in (("1", "1"), ("3", "1"), ("1", "2")):
            out = tmp_path / f"x{blas}{threads}.hsnct"
            run_hsnct(["dhr", "--in", str(sino), "--engine", "fbp", "--out", str(out),
                       "--report", str(tmp_path / "r.json"), "--threads", threads], blas)
            volumes.append(out.read_bytes())
        assert volumes[0] == volumes[1] == volumes[2]

    def test_dhr_report(self, workdir):
        d = workdir
        assert main(["dhr", "--in", str(d / "p.hsnct"), "--engine", "fbp",
                     "--out", str(d / "dh.hsnct"),
                     "--report", str(d / "rd.json")]) == 0
        r = json.loads((d / "rd.json").read_text())
        assert set(r) == REPORT_KEYS
        assert r["algorithm"] == "dhr" and r["n_s"] == 16 and r["n_k"] == 16
        assert r["epsilon_frac"] is None
        vol, _ = load_volume(d / "dh.hsnct")
        assert vol.num_channels == 16

    def test_bench_rejects_unknown_preset(self, workdir, capsys):
        rc = main(["bench", "--out", str(workdir / "r.csv"), "--preset", "pocket"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err


class TestSliceCommand:
    def test_pgm_output(self, workdir):
        out = workdir / "img.pgm"
        assert main(["slice", "--in", str(workdir / "t.hsnct"), "--z", "1",
                     "--bin", "8", "--out", str(out)]) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n32 32\n255\n")
        assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_all_zero_volume_is_all_black(self, workdir):
        zpath = workdir / "zero.hsnct"
        write_container(zpath, VolumeStack(np.zeros((16, 2), dtype=np.float32), 1, 4))
        out = workdir / "black.pgm"
        assert main(["slice", "--in", str(zpath), "--z", "0", "--bin", "0",
                     "--out", str(out)]) == 0
        blob = out.read_bytes()
        assert blob == b"P5\n4 4\n255\n" + bytes(16)

    def test_out_of_range_indices(self, workdir):
        args = ["slice", "--in", str(workdir / "t.hsnct"),
                "--out", str(workdir / "x.pgm")]
        assert main(args + ["--z", "5", "--bin", "0"]) == 1
        assert main(args + ["--z", "0", "--bin", "99"]) == 1


class TestExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (containers.ValidationError("bad value"), 1),
        (json.JSONDecodeError("bad json", "{", 0), 1),
        (ContainerError("bad header"), 2),
        (FileNotFoundError("no file"), 2),
        (io.UnsupportedOperation("both a ValueError and an OSError"), 1),
    ])
    def test_error_kind_sets_the_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_slice", fail)
        assert main(["slice", "--in", "x", "--z", "0", "--bin", "0", "--out", "y"]) == code
        assert capsys.readouterr().err == f"hsnct slice: error: {exc}\n"

    def test_missing_file_is_io_error(self, workdir):
        assert main(["normalize", "--scan", str(workdir / "ghost.hsnct"),
                     "--out", str(workdir / "o.hsnct")]) == 2

    def test_corrupt_container_is_io_error(self, workdir):
        bad = workdir / "corrupt.hsnct"
        bad.write_bytes((workdir / "p.hsnct").read_bytes()[:40])
        assert main(["normalize", "--scan", str(bad),
                     "--out", str(workdir / "o.hsnct")]) == 2

    @pytest.mark.parametrize("command", ["reconstruct", "dhr"])
    @pytest.mark.parametrize("section,value", [
        ("geometry", {"num_views": None}),
        ("geometry", [1, 2]),
        ("spectral", {"flight_path": None}),
        ("geometry", {"num_views": "four"}),
        ("spectral", {"flight_path": "far"}),
        ("geometry", {"num_views": 2.9}),
        ("geometry", {"num_views": True}),
        ("geometry", {"num_views": "4"}),
        ("spectral", {"flight_path": "10"}),
        ("geometry", {"pixel_pitch": True}),
        ("geometry", {"view_angles": [str(a) for a in np.linspace(0, np.pi, 16,
                                                                  endpoint=False)]}),
        ("spectral", {"tof_edges": [False] + list(np.linspace(2.5e-3, 1.31e-2, 17)[1:])}),
    ], ids=["null-num-views", "list-geometry", "null-flight-path", "string-num-views",
            "string-flight-path", "float-num-views", "bool-num-views",
            "numeric-string-num-views", "numeric-string-flight-path", "bool-pixel-pitch",
            "string-view-angles", "bool-tof-edge"])
    def test_malformed_header_is_container_error(self, workdir, capsys, command,
                                                 section, value):
        # a header whose values have the wrong JSON type is a malformed
        # container (exit 2), as a missing key already is
        bad = workdir / f"bad_{command}_{section}.hsnct"
        if isinstance(value, dict):
            patch_header(workdir / "p.hsnct", bad, lambda h: h[section].update(value))
        else:
            patch_header(workdir / "p.hsnct", bad, lambda h: h.update({section: value}))
        args = [command, "--in", str(bad), "--engine", "fbp",
                "--out", str(workdir / "bad_out.hsnct")]
        if command == "dhr":
            args += ["--report", str(workdir / "bad_out.json")]
        assert main(args) == 2
        assert f"{section} header" in capsys.readouterr().err
        assert not (workdir / "bad_out.hsnct").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "dhr"])
    @pytest.mark.parametrize("section,value,message", [
        ("geometry", {"num_views": 0}, "num_views must be >= 1"),
        ("spectral", {"flight_path": -1.0}, "flight_path must be > 0"),
        ("geometry", {"pixel_pitch": float("inf")}, "pixel_pitch must be > 0 and finite"),
    ], ids=["zero-num-views", "negative-flight-path", "infinite-pixel-pitch"])
    def test_invalid_header_value_is_validation_error(self, workdir, capsys, command,
                                                      section, value, message):
        # a well-formed header whose values break the geometry's or the
        # spectral axis's own checks is a validation error (exit 1)
        bad = workdir / f"invalid_{command}_{section}.hsnct"
        patch_header(workdir / "p.hsnct", bad, lambda h: h[section].update(value))
        args = [command, "--in", str(bad), "--engine", "fbp",
                "--out", str(workdir / "invalid_out.hsnct")]
        if command == "dhr":
            args += ["--report", str(workdir / "invalid_out.json")]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not (workdir / "invalid_out.hsnct").exists()

    @pytest.mark.parametrize("shape", [[2, 16, 32, 16], [1024, 16]],
                             ids=["views-rows-swapped", "flat"])
    def test_sinogram_shape_mismatch_is_validation_error(self, workdir, capsys, shape):
        # p.hsnct is 16 views x 2 rows x 32 cols x 16 bins; the patched
        # shapes hold as many values, so the payload still reads whole
        bad = workdir / "bad_shape.hsnct"
        patch_header(workdir / "p.hsnct", bad, lambda h: h.update({"shape": shape}))
        out = workdir / "bad_shape_out.hsnct"
        assert main(["dhr", "--in", str(bad), "--engine", "fbp", "--out", str(out),
                     "--report", str(workdir / "bad_shape_out.json")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and str(shape) in err and "[16, 2, 32, C]" in err
        assert not out.exists()

    def test_axis_order_must_match_role(self, workdir, capsys):
        # the axis order is a known one, but not the one of a basis
        bad = workdir / "bad_axis_order.hsnct"
        patch_header(workdir / "d.hsnct", bad,
                     lambda h: h.update({"axis_order": "row,col,slice,channel"}))
        out = workdir / "bad_axis_order_out.hsnct"
        assert main(["expand", "--in", str(workdir / "xs.hsnct"), "--basis", str(bad),
                     "--out", str(out)]) == 2
        assert "axis_order 'row,col,slice,channel'" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_beyond_int64_is_container_error(self, workdir, capsys):
        # 2**62 x 4 values and no payload: a short file, not a wrapped count of 0
        bad = workdir / "huge_shape.hsnct"
        patch_header(workdir / "d.hsnct", bad, lambda h: h.update({"shape": [2**62, 4]}))
        raw = bad.read_bytes()
        bad.write_bytes(raw[:12 + int.from_bytes(raw[8:12], "little")])
        out = workdir / "huge_shape_out.hsnct"
        assert main(["expand", "--in", str(workdir / "xs.hsnct"), "--basis", str(bad),
                     "--out", str(out)]) == 2
        assert f"hsnct expand: error: {bad}: truncated payload" in capsys.readouterr().err
        assert not out.exists()

    def test_null_voxel_pitch_is_container_error(self, workdir, capsys):
        bad = workdir / "bad_pitch.hsnct"
        patch_header(workdir / "t.hsnct", bad, lambda h: h.update({"voxel_pitch": None}))
        assert main(["slice", "--in", str(bad), "--z", "0", "--bin", "0",
                     "--out", str(workdir / "bad_pitch.pgm")]) == 2
        assert "voxel_pitch" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate,key", [
        (lambda h: h.update({"voxel_pitch": "0.5"}), "voxel_pitch"),
        (lambda h: h["spectral"].update({"flight_path": "far"}), "flight_path"),
    ], ids=["string-voxel-pitch", "string-spectral-flight-path"])
    def test_malformed_volume_header_names_the_file(self, workdir, capsys, mutate, key):
        # a volume's pitch and spectral section are read like any other header
        bad = workdir / f"bad_volume_{key}.hsnct"
        patch_header(workdir / "t.hsnct", bad, mutate)
        out = workdir / "bad_volume.pgm"
        assert main(["slice", "--in", str(bad), "--z", "0", "--bin", "0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and err.count(str(bad)) == 1
        assert not out.exists()

    def test_fbp_on_one_view_is_validation_error(self, tmp_path, capsys):
        geom = ScanGeometry(1, 1, 4, [0.0], flight_path=10.0)
        axis = SpectralAxis(np.linspace(1e-3, 2e-3, 3), ToFConverter(flight_path=10.0))
        write_container(tmp_path / "one_view.hsnct",
                        HyperspectralSinogram(np.ones((4, 2)), geom, axis))
        assert main(["reconstruct", "--in", str(tmp_path / "one_view.hsnct"),
                     "--engine", "fbp", "--out", str(tmp_path / "x.hsnct")]) == 1
        assert "2 view angles" in capsys.readouterr().err
        assert not (tmp_path / "x.hsnct").exists()

    def test_wrong_role_is_validation_error(self, workdir):
        # the file is well formed, it is just not a raw scan
        assert main(["normalize", "--scan", str(workdir / "p.hsnct"),
                     "--out", str(workdir / "o.hsnct")]) == 1

    def test_unknown_flag_usage_on_stderr(self, capsys):
        assert main(["fhr", "--bogus"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out

    def test_malformed_spec_json_is_validation_error(self, workdir):
        bad = workdir / "bad_spec.json"
        bad.write_text("{\"phantom\": {}}")
        assert main(["phantom", "--spec", str(bad),
                     "--out-truth", str(workdir / "t2.hsnct")]) == 1

    @pytest.mark.parametrize("name", ["spec", "geom"])
    def test_json_input_missing_key_is_validation_error(self, workdir, capsys, name):
        # a JSON input is not a container: a key missing from it is a
        # validation error (exit 1) that names the file
        blob = json.loads((workdir / f"{name}.json").read_text())
        del (blob["spectral"] if name == "spec" else blob)["flight_path"]
        bad = workdir / f"missing_key_{name}.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "missing_key_out.hsnct"
        args = (["phantom", "--spec", str(bad), "--out-truth", str(out)] if name == "spec"
                else ["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                      "--flux", "200", "--out", str(out)])
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "flight_path" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["spec", "geom"])
    @pytest.mark.parametrize("value", [2.9, True, "4"])
    def test_json_input_non_integer_count_is_validation_error(self, workdir, capsys,
                                                              name, value):
        # in a JSON input, as in a container header, a count is not rounded
        blob = json.loads((workdir / f"{name}.json").read_text())
        key = "num_slices" if name == "spec" else "num_rows"
        (blob["phantom"] if name == "spec" else blob)[key] = value
        bad = workdir / f"non_integer_{name}.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "non_integer_out.hsnct"
        args = (["phantom", "--spec", str(bad), "--out-truth", str(out)] if name == "spec"
                else ["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                      "--flux", "200", "--out", str(out)])
        assert main(args) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_json_input_non_number_length_is_validation_error(self, workdir, capsys):
        # a real value must be a JSON number, as a count must be an integer
        blob = json.loads((workdir / "geom.json").read_text())
        blob["flight_path"] = "10"
        bad = workdir / "non_number_geom.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "non_number_out.hsnct"
        assert main(["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                     "--flux", "200", "--out", str(out)]) == 1
        assert "flight_path" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source,where,key,typo", [
        ("spec", [], "spectral", "spectrum"),
        ("spec", ["phantom"], "seed", "sead"),
        ("spec", ["phantom", "shapes", 1], "slices", "slice"),
        ("spec", ["phantom", "materials", 0], "edges", "edge"),
        ("spec", ["phantom", "materials", 0, "edges", 0], "pre_level", "pre_lvl"),
        ("spec", ["spectral"], "planck_h", "planck"),
        ("geom", [], "pixel_pitch", "pixel_pich"),
        ("header", ["geometry"], "pixel_pitch", "pixel_pich"),
        ("header", ["spectral"], "neutron_mass", "neutron_mas"),
        ("basis", ["spectral"], "neutron_mass", "neutron_mas"),
    ], ids=["spec-file", "phantom", "shape", "material", "edge", "spec-spectral", "geom",
            "header-geometry", "header-spectral", "basis-spectral"])
    def test_misspelled_key_fails_loudly(self, workdir, capsys, source, where, key, typo):
        # every key must be a field of its dataclass: a misspelled one is
        # neither dropped nor replaced by the field's default, but exits 1
        # in a JSON input and 2 in a container header, naming the file once
        def rename(blob):
            for step in where:
                blob = blob[step]
            blob[typo] = blob.pop(key)

        out = workdir / f"typo_{source}_out.hsnct"
        container = source in ("header", "basis")
        bad = workdir / f"typo_{source}.{'hsnct' if container else 'json'}"
        if source == "header":
            patch_header(workdir / "p.hsnct", bad, rename)
            args = ["reconstruct", "--in", str(bad), "--engine", "fbp", "--out", str(out)]
        elif source == "basis":
            patch_header(workdir / "d.hsnct", bad, rename)
            args = ["expand", "--in", str(workdir / "xs.hsnct"), "--basis", str(bad),
                    "--out", str(out)]
        else:
            blob = json.loads((workdir / f"{source}.json").read_text())
            rename(blob)
            bad.write_text(json.dumps(blob))
            args = (["phantom", "--spec", str(bad), "--out-truth", str(out)] if source == "spec"
                    else ["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                          "--flux", "200", "--out", str(out)])
        assert main(args) == (2 if container else 1)
        err = capsys.readouterr().err
        assert typo in err and err.count(str(bad)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("pair", [[0.5], ["0.5", "0.5"], [0.5, 0.5, 0.5]],
                             ids=["one", "strings", "three"])
    def test_spec_center_must_be_two_numbers(self, workdir, capsys, pair):
        blob = json.loads((workdir / "spec.json").read_text())
        blob["phantom"]["shapes"][0]["center"] = pair
        bad = workdir / "bad_center_spec.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "bad_center_out.hsnct"
        assert main(["phantom", "--spec", str(bad), "--out-truth", str(out)]) == 1
        assert "center must be a pair" in capsys.readouterr().err
        assert not out.exists()

    def test_geom_integer_beyond_float64_range_is_validation_error(self, workdir, capsys):
        blob = json.loads((workdir / "geom.json").read_text())
        blob["flight_path"] = 10**400
        bad = workdir / "huge_geom.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "huge_out.hsnct"
        assert main(["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                     "--flux", "200", "--out", str(out)]) == 1
        assert "flight_path must be > 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_geom_flight_path_other_than_the_truths_is_validation_error(self, workdir,
                                                                          capsys):
        # wavelengths come from the truth's spectral flight path, so a scan
        # that carries a second, different one is refused
        blob = json.loads((workdir / "geom.json").read_text())
        blob["flight_path"] = 12.5
        bad = workdir / "other_flight_path_geom.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "other_flight_path_out.hsnct"
        assert main(["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                     "--flux", "200", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "geometry flight_path 12.5 != spectral flight_path 10.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,key,message", [
        ("geom", "view_angles", "view angles holds a value beyond the float64 range"),
        ("spec", "tof_edges", "tof_edges holds a value beyond the float64 range"),
    ], ids=["view-angles", "tof-edges"])
    def test_list_entry_beyond_float64_range_is_validation_error(self, workdir, capsys,
                                                                 name, key, message):
        blob = json.loads((workdir / f"{name}.json").read_text())
        (blob["spectral"] if name == "spec" else blob)[key][1] = 10**400
        bad = workdir / f"huge_{key}.json"
        bad.write_text(json.dumps(blob))
        out = workdir / "huge_list_out.hsnct"
        args = (["phantom", "--spec", str(bad), "--out-truth", str(out)] if name == "spec"
                else ["simulate", "--truth", str(workdir / "t.hsnct"), "--geom", str(bad),
                      "--flux", "200", "--out", str(out)])
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, workdir, capsys):
        out = workdir / "negative_seed.hsnct"
        assert main(["simulate", "--truth", str(workdir / "t.hsnct"),
                     "--geom", str(workdir / "geom.json"), "--flux", "200",
                     "--out", str(out), "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_rank_rejected(self, workdir):
        assert main(["extract", "--in", str(workdir / "p.hsnct"), "--rank", "-2",
                     "--out-v", str(workdir / "nv.hsnct"),
                     "--out-d", str(workdir / "nd.hsnct")]) == 1

    @pytest.mark.parametrize("command", ["extract", "phantom"])
    def test_zero_threads_is_an_unknown_flag_where_unused(self, workdir, capsys, command):
        # a command that runs no slice reconstruction has no --threads, so
        # any value of it, a bad one included, is an unknown flag
        d = workdir
        outs = {"extract": ["--out-v", str(d / "zt_v.hsnct"),
                            "--out-d", str(d / "zt_d.hsnct")],
                "phantom": ["--out-truth", str(d / "zt_t.hsnct")]}[command]
        inputs = {"extract": ["--in", str(d / "p.hsnct"), "--rank", "2"],
                  "phantom": ["--spec", str(d / "spec.json")]}[command]
        assert main([command, "--threads", "0"] + inputs + outs) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--threads" in err
        assert not any((d / name).exists()
                       for name in ("zt_v.hsnct", "zt_d.hsnct", "zt_t.hsnct"))


def _command_args(d, command, tag):
    """A valid command line of ``command`` on the workspace ``d``, whose
    outputs are named after ``tag``."""
    out = str(d / f"{tag}.out")
    return {
        "phantom": ["--spec", str(d / "spec.json"), "--out-truth", out],
        "simulate": ["--truth", str(d / "t.hsnct"), "--geom", str(d / "geom.json"),
                     "--flux", "200", "--out", out],
        "normalize": ["--scan", str(d / "scan.hsnct"), "--out", out],
        "extract": ["--in", str(d / "p.hsnct"), "--rank", "2", "--out-v", out,
                    "--out-d", str(d / f"{tag}.d.out")],
        "reconstruct": ["--in", str(d / "v.hsnct"), "--engine", "fbp", "--out", out],
        "expand": ["--in", str(d / "xs.hsnct"), "--basis", str(d / "d.hsnct"), "--out", out],
        "dhr": ["--in", str(d / "p.hsnct"), "--engine", "fbp", "--out", out,
                "--report", str(d / f"{tag}.r.out")],
        "fhr": ["--in", str(d / "p.hsnct"), "--rank", "3", "--engine", "fbp", "--out", out,
                "--report", str(d / f"{tag}.r.out")],
        "bench": ["--out", out],
        "slice": ["--in", str(d / "xs.hsnct"), "--z", "0", "--bin", "0", "--out", out],
    }[command]


class TestSharedFlags:
    def test_each_command_has_its_pinned_flags(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMAND_FLAGS)
        for name, p in sub.choices.items():
            flags = {opt for a in p._actions if not a.required for opt in a.option_strings}
            assert flags - {"-h", "--help"} == COMMAND_FLAGS[name], name

    def test_engine_and_prior_choices_are_the_library_names(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        names = {"--engine": tomo._ENGINES, "--prior": tomo._PRIORS}
        seen = set()
        for name, p in sub.choices.items():
            for a in p._actions:
                for flag in set(a.option_strings) & set(names):
                    assert a.choices == names[flag], (name, flag)
                    seen.add((name, flag))
        assert seen == {("reconstruct", "--engine"), ("reconstruct", "--prior"),
                        ("fhr", "--engine"), ("dhr", "--engine")}

    @pytest.mark.parametrize("command, flag", [
        *((c, "--seed") for c in ("phantom", "normalize", "reconstruct", "expand",
                                  "dhr", "slice")),
        *((c, "--threads") for c in ("phantom", "simulate", "normalize", "extract",
                                     "expand", "slice")),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, workdir, capsys,
                                                             command, flag):
        tag = f"unread_{command}_{flag[2:]}"
        args = _command_args(workdir, command, tag)
        assert main([command, *args, flag, "5"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err and flag in captured.err
        assert captured.out == ""
        assert not list(workdir.glob(f"{tag}*"))
        # the same command line without the flag runs
        assert main([command, *args]) == 0
