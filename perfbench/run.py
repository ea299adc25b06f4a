"""hsnct benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload desk-fhr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload slice8-dhr --size tiny --seconds 0 --trace 1

Workloads, metrics and bounds are declared in BENCHMARK.json; which layer
metric should move which end-to-end metric, on which workload, is in
perfbench/layers.json.

A run generates its inputs from ``--seed``, sets them up several times and
reports the median set-up time, then repeats the operation one at a time
until ``--seconds`` have passed (at least once) and reports the median
operation time.  Every output is checked (shape, finite voxels, finite SNR,
and the NMF residual fraction on desk-fhr); an operation that fails a check
counts as failed and is not timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates the
untraced operation with a traced one that calls each stage itself inside a
span, runs the layer probes, and prints the per-layer metrics; a metric of
a layer the workload does not run reads 0.  ``--workload all`` runs each
workload in a child process of its own, so peak RSS is per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(environment, per-operation times, output digests and, when traced, every
span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_SPAN_COVERAGE = 0.9
ROADMAP_RATIO = 10.4  # baseline full-desk dhr/fhr ratio of `hsnct bench` in ROADMAP.md


def _load_program() -> None:
    """Import hsnct from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "hsnct" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hsnct sources under {src}")
    sys.path.insert(0, str(src))
    import hsnct
    if Path(hsnct.__file__).resolve().parent != (src / "hsnct").resolve():
        raise SystemExit(f"perfbench: imported hsnct from {hsnct.__file__}, not {src}")


def _declared(traced: bool) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for one kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _timed_op(op, wl) -> dict:
    """Time ``op() -> (Output, extra)`` and check the output.  A failure is
    recorded, not raised, and a failed operation is not timed."""
    t0 = time.perf_counter()
    try:
        out, extra = op()
    except Exception:  # the loop keeps going and counts the failure
        return {"seconds": None, "failures": [traceback.format_exc()]}
    seconds = time.perf_counter() - t0
    try:
        failures, snr, digest = wl.check(out)
    except Exception:
        failures, snr, digest = [traceback.format_exc()], None, None
    return {"seconds": None if failures else seconds, "failures": failures,
            "snr_db": snr, "sha256": digest, **extra}


def _layer_metrics(wl, tracer, setup_root, probe_root, ops, traced_ops, probes) -> dict:
    med = statistics.median
    roots = [r["root"] for r in traced_ops]
    counts = traced_ops[-1]["counts"]

    def stage(name):
        return med(tracer.child_seconds(root, name) for root in roots)

    untraced_s = med(r["seconds"] for r in ops)
    stage_sum = med(sum(s.seconds for s in tracer.children(root)) for root in roots)
    nmf_s, recon_s = stage("subspace.nmf_factorize"), stage("tomo.reconstruct_stack")
    sweeps = counts.get("subspace.nmf.sweeps", 0)
    channel_iters = wl.recon_channel_slices() * probes["tomo.mbir.iterations_mean"]
    return {
        "subspace.nmf_factorize_s": nmf_s,
        "subspace.nmf.sweeps": sweeps,
        "subspace.nmf.s_per_sweep": nmf_s / sweeps if sweeps else 0.0,
        "subspace.nmf.converged": counts.get("subspace.nmf.converged", 0),
        "subspace.nmf.residual_frac": counts.get("subspace.nmf.residual_frac", 0.0),
        "subspace.expand_s": stage("subspace.expand"),
        "tomo.reconstruct_stack_s": recon_s,
        "tomo.mbir.iterations_mean": probes["tomo.mbir.iterations_mean"],
        "tomo.mbir.converged_frac": probes["tomo.mbir.converged_frac"],
        "tomo.mbir.s_per_channel_iter": recon_s / channel_iters if channel_iters else 0.0,
        "tomo.project_volume.c4_s": tracer.child_seconds(probe_root, "tomo.project_volume.c4"),
        "tomo.project_volume.c256_s": tracer.child_seconds(probe_root,
                                                           "tomo.project_volume.c256"),
        "containers.load_sinogram_s": stage("containers.load_sinogram"),
        "containers.write_container_s": stage("containers.write_container"),
        "containers.bytes_read": counts.get("containers.bytes_read", 0),
        "containers.bytes_written": counts.get("containers.bytes_written", 0),
        "cli.overhead_s": untraced_s - stage_sum if wl.through_cli else 0.0,
        "phantom.build_ground_truth_s": tracer.child_seconds(setup_root,
                                                             "phantom.build_ground_truth"),
        "phantom.simulate_scan_s": tracer.child_seconds(setup_root, "phantom.simulate_scan"),
        "preprocess.normalize_s": tracer.child_seconds(setup_root, "preprocess.normalize"),
        "trace.overhead_s": med(root.seconds for root in roots) - untraced_s,
        "trace.span_coverage": med(tracer.coverage(root) for root in roots),
    }


def bench_one(name: str, size_name: str, seed: int, seconds: float, traced: bool) -> dict:
    from envinfo import environment
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, make_inputs, run_probes

    size = SIZES[size_name]
    env = environment(workload=name, size=size_name, seed=seed, seconds=seconds,
                      trace=int(traced), threads=1)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        setup_s, wl = [], None
        for _ in range(1 if traced else size.setup_repeats):
            wl = inputs = None  # free the previous repeat before building the next
            t0 = time.perf_counter()
            with tracer.span("setup") as setup_root:
                inputs = make_inputs(size, seed, tracer)
                wl = WORKLOADS[name](size, inputs, workdir)
                wl.prepare(tracer)
                with tracer.span("warm_up"):
                    wl.warm_up()
            setup_s.append(time.perf_counter() - t0)

        def traced_op():
            with tracer.span("op") as root:
                out, counts = wl.run_traced(tracer)
            return out, {"root": root, "counts": counts}

        ops, traced_ops = [], []
        t_start = time.perf_counter()
        while not ops or time.perf_counter() - t_start < seconds:
            ops.append(_timed_op(lambda: (wl.run(), {}), wl))
            print(_op_line("op", ops[-1]), flush=True)
            if traced:
                rec = _timed_op(traced_op, wl)
                if not rec["failures"]:
                    cov = tracer.coverage(rec["root"])
                    if cov < MIN_SPAN_COVERAGE:
                        rec["failures"].append(f"spans cover {cov:.3f} of the traced "
                                               f"operation, under {MIN_SPAN_COVERAGE}")
                traced_ops.append(rec)
                print(_op_line("traced op", rec), flush=True)
        good = [r for r in ops if not r["failures"]]
        good_traced = [r for r in traced_ops if not r["failures"]]
        if good_traced:  # the probes solve channels of a traced operation's input
            with tracer.span("probe") as probe_root:
                probes = run_probes(wl, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every_op = ops + traced_ops
    for rec in every_op:
        for failure in rec["failures"]:
            print("FAILED: " + failure, file=sys.stderr)
    metrics = None
    if traced and good and good_traced:
        metrics = _layer_metrics(wl, tracer, setup_root, probe_root, good, good_traced,
                                 probes)
    elif not traced and good:
        # the linear power ratio, not dB: desk-dhr-fbp sits below 0 dB, and
        # the bounds are shares of the median, which need a positive metric
        metrics = {"wall_s": statistics.median(r["seconds"] for r in good),
                   "setup_s": statistics.median(setup_s),
                   "snr": 10.0 ** (good[-1]["snr_db"] / 10.0),
                   "peak_rss_mb": _peak_rss_mb()}

    record = {"env": env, "setup_s": setup_s, "metrics": metrics,
              "ops": [_op_record(r, False) for r in ops]
              + [_op_record(r, True) for r in traced_ops],
              "spans": tracer.records()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}-{size_name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"run record: {path.relative_to(ROOT)}")
    failed = sum(1 for r in every_op if r["failures"])
    return {"correct": failed == 0 and metrics is not None, "attempted": len(every_op),
            "failed": failed, "metrics": metrics or {}}


def _op_record(rec: dict, traced: bool) -> dict:
    return {k: rec.get(k) for k in ("seconds", "failures", "snr_db", "sha256")} | {
        "traced": traced}


def _op_line(label: str, rec: dict) -> str:
    if rec["failures"]:
        return f"{label}: FAILED"
    return (f"{label}: {rec['seconds']:.4f} s  snr_db {rec['snr_db']:.4f}  "
            f"sha256 {rec['sha256']}")


def _print_metrics(metrics: dict, units: dict) -> None:
    for key, unit in units.items():
        if key in metrics:
            print(f"{key:32s} {metrics[key]:>16.6g} {unit}")


def _result_line(res: dict, units: dict) -> str:
    metrics = {k: {"value": res["metrics"][k], "unit": u}
               for k, u in units.items() if k in res["metrics"]}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def _run_all(args) -> int:
    """Each workload in its own child process, then a summary."""
    from workloads import SIZES, WORKLOADS, scene

    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        ok &= proc.returncode == 0
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            ok = False

    print("\nsummary (median of each run's operations)")
    for name, res in results.items():
        if res is not None:
            for key, m in res["metrics"].items():
                print(f"  {name:14s} {key:32s} {m['value']:>16.6g} {m['unit']}")
    ratio = None
    fhr, dhr = results.get("desk-fhr"), results.get("slice8-dhr")
    if not args.trace and fhr and dhr and fhr["metrics"] and dhr["metrics"]:
        rows = scene(SIZES[args.size])[2].num_rows
        fhr_s, dhr_s = fhr["metrics"]["wall_s"]["value"], dhr["metrics"]["wall_s"]["value"]
        ratio = rows * dhr_s / fhr_s
        print(f"extrapolated full-desk dhr/fhr ratio (informational, not gated): "
              f"({rows} x {dhr_s:.3f} s) / {fhr_s:.3f} s = {ratio:.2f}x; "
              f"ROADMAP baseline, measured end to end: {ROADMAP_RATIO}x")
    print(json.dumps({"correct": ok, "workloads": results,
                      "extrapolated_full_desk_ratio": ratio}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-fhr", "slice8-dhr", "desk-dhr-fbp", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the operation until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk")
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return _run_all(args)

    units = _declared(bool(args.trace))
    res = bench_one(args.workload, args.size, args.seed, args.seconds, bool(args.trace))
    if res["metrics"] and set(res["metrics"]) != set(units):
        raise SystemExit("perfbench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(res['metrics']) ^ set(units))}")
    _print_metrics(res["metrics"], units)
    print(_result_line(res, units))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
