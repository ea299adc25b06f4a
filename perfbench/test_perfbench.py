"""Tests of the benchmark itself, at the tiny size (seconds, not minutes).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--size", "tiny", "--seconds", "0", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_result_line_follows_the_declared_metrics(workload, trace):
    res = _result(_bench("--workload", workload, "--seed", 3, "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == (2 if trace else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(res["metrics"][k]["value"] > 0 for k in res["metrics"])


def test_traced_run_writes_spans_that_cover_the_operation():
    res = _result(_bench("--workload", "desk-fhr", "--seed", 4, "--trace", 1))
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["trace.span_coverage"] >= 0.9
    assert metrics["subspace.nmf.sweeps"] == 20  # tiny size: every sweep runs
    assert metrics["tomo.mbir.iterations_mean"] == 5
    record = json.loads((HERE / "out" / "desk-fhr-tiny-seed4-trace1.json").read_text())
    spans = record["spans"]
    names = {s["name"] for s in spans}
    assert {"setup", "op", "probe", "subspace.nmf_factorize", "tomo.reconstruct_stack",
            "subspace.expand", "tomo.mbir_reconstruct"} <= names
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert record["env"]["threads"] == 1 and record["env"]["seed"] == 4
    assert "OPENBLAS_NUM_THREADS" in record["env"]["thread_env"]


def test_seed_sets_the_inputs():
    def digest(seed):
        out = _bench("--workload", "slice8-dhr", "--seed", seed, "--trace", 0).stdout
        return [line.split()[-1] for line in out.splitlines() if line.startswith("op:")]

    first = digest(5)
    assert first == digest(5)
    assert first != digest(6)


def test_all_runs_every_workload_and_prints_the_extrapolated_ratio():
    proc = _bench("--workload", "all", "--seed", 2, "--trace", 0)
    res = _result(proc)
    assert res["correct"] is True
    assert list(res["workloads"]) == WORKLOAD_NAMES
    assert res["extrapolated_full_desk_ratio"] > 0
    assert "extrapolated full-desk dhr/fhr ratio (informational, not gated)" in proc.stdout


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "desk-fhr", "--seed", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_table_names_every_per_layer_metric():
    table = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    assert [row["metric"] for row in table["per_layer"]] == \
        [m["name"] for m in SPEC["per_layer"]]
    assert set(table["workloads"]) == set(WORKLOAD_NAMES)
    assert set(table["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def tiny_fhr(tmp_path_factory):
    sys.path.insert(0, str(HERE))
    import run
    run._load_program()
    from tracing import Tracer
    from workloads import SIZES, DeskFhr, make_inputs

    size = SIZES["tiny"]
    return DeskFhr(size, make_inputs(size, 0, Tracer()), tmp_path_factory.mktemp("w"))


def test_checks_reject_bad_outputs(tiny_fhr):
    from hsnct.containers import VolumeStack
    from workloads import Output, row_volume

    wl = tiny_fhr
    out = wl.run()
    failures, snr, digest = wl.check(out)
    assert failures == [] and math.isfinite(snr) and len(digest) == 64

    assert wl.check(Output(row_volume(out.volume, 0)))[0]
    assert wl.check(Output(out.volume, epsilon_frac=1.0))[0]
    assert wl.check(Output(None, exit_code=1))[0]
    shifted = VolumeStack(out.volume.voxels + np.float32(1.0), out.volume.num_rows,
                          out.volume.num_cols)
    assert wl.check(Output(shifted))[2] != digest
