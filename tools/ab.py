"""Alternating A/B runs of perfbench: a parent revision against a change.

Run from the repository root:

    python3 tools/ab.py --base REV [--change REV] --workload W [W ...] \\
        --seeds A-B --out BENCH_<n>.json

Each side is made by ``same_bytes.make_side``: ``src/`` at its revision
(``--change`` defaults to the working tree's) beside a copy of the working
tree's ``perfbench/`` and ``BENCHMARK.json``, so both sides run one harness
and differ only in ``src/``.  No worktree is made and nothing is fetched.

For each workload, and for each seed from A to B (one pair per seed), it
runs ``perfbench/run.py --trace 0`` once per side; pair i (from 0) runs the
parent first when i is even, the change first when it is odd.  ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) and ``--size`` are passed on.

The output file records:

* per pair: the seed, which side ran first, and per side ``wall_s``,
  ``setup_s``, ``snr`` and ``peak_rss_mb`` from the run's last line, its
  operation counts, the distinct voxel sha256 of its operations, and the
  per-run set-up and operation seconds of its run record;
* per workload and metric: each side's median and quartiles
  (``statistics.quantiles(method='inclusive')``), the median of the
  change/parent ratios, the change's median minus the parent's, and the
  number of pairs in which the change reads better (BENCHMARK.json's
  ``better``; ties count for neither side), and ``gain``: whether the
  change read better in at least ceil(0.9 x pairs) pairs and moved the
  median in the better direction by more than the parent's interquartile
  range, the rule a claimed gain must meet; whether every pair's sha256
  matched; and the failed operations per side;
* ``envinfo``'s environment record, the commands, and an empty ``notes``
  list: prose goes there, and the rest of the file is left as written.

It exits 1 if a run gave no metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import same_bytes  # noqa: E402

SIDES = ("parent", "change")


def _declared() -> tuple[dict, float]:
    """({end-to-end metric: 'lower' or 'higher'}, run_seconds) of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    """'A-B' -> [A, ..., B]; 'A' -> [A]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_side(side: Path, name: str, seed: int, seconds: float, size: str) -> dict:
    """One perfbench run in ``side``: its metrics, operation counts and
    voxel sha256, and the seconds of its run record; ``metrics`` None on a
    run that gave none."""
    proc = same_bytes.run_perfbench(side, name, seed, seconds, size)
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"ab: {side.name} {name} seed {seed}: no run line\n{proc.stderr}")
        return {"metrics": None, "returncode": proc.returncode}
    record = json.loads((side / "perfbench" / "out" / f"{name}-{size}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    ops = [op for op in record["ops"] if not op["traced"]]
    return {
        "metrics": {k: m["value"] for k, m in line["metrics"].items()} or None,
        "correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
        "voxel_sha256": sorted({op["sha256"] for op in ops if op["sha256"]}),
        "setup_runs_s": record["setup_s"],
        "op_seconds": [op["seconds"] for op in ops],
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's spread, the median change/parent ratio and
    gap, the pairs the change wins, and whether that is a gain (module
    docstring); then the sha256 match and failures.  Pairs where either
    side gave no metrics are left out of the metrics."""
    good = [p for p in pairs if p["parent"]["metrics"] and p["change"]["metrics"]]
    out = {"pairs": len(pairs), "pairs_with_metrics": len(good)}
    for key, direction in better.items():
        if len(good) < 2:
            break
        parent = [p["parent"]["metrics"][key] for p in good]
        change = [p["change"]["metrics"][key] for p in good]
        sign = 1 if direction == "lower" else -1
        spread = _spread(parent)
        gap = statistics.median(change) - statistics.median(parent)
        wins = sum(sign * (b - c) > 0 for b, c in zip(parent, change))
        out[key] = {
            "better": direction,
            "parent": spread,
            "change": _spread(change),
            "ratio_median": statistics.median(c / b for b, c in zip(parent, change)),
            "median_gap": gap,
            "change_better": wins,
            "gain": wins >= -(-9 * len(good) // 10) and -sign * gap > spread["iqr"],
        }
    out["sha256_match"] = all(p["parent"].get("voxel_sha256")
                              and p["parent"].get("voxel_sha256") == p["change"].get("voxel_sha256")
                              for p in pairs)
    out["failed_ops"] = {s: sum(p[s].get("failed", 0) for p in pairs) for s in SIDES}
    return out


def _commit(rev: str | None) -> str | None:
    if rev is None:
        return None
    return subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=None,
                        help="git revision of the change (default: the working tree)")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=same_bytes.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, one pair per seed")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=None,
                        help="perfbench --seconds (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk")
    args = parser.parse_args(argv)
    better, run_seconds = _declared()
    seconds = run_seconds if args.seconds is None else args.seconds

    sys.path.insert(0, str(ROOT / "perfbench"))
    from envinfo import environment

    result = {
        "base": args.base, "base_commit": _commit(args.base),
        "change": args.change or "working tree", "change_commit": _commit(args.change),
        "command": " ".join(["python3", *same_bytes.perfbench_cmd("<workload>", "<seed>",
                                                                  seconds, args.size)]),
        "ab_command": " ".join(["python3", "tools/ab.py", *(argv or sys.argv[1:])]),
        "method": "Each side is src/ at its revision beside the working tree's perfbench/ "
                  "and BENCHMARK.json. Per workload, one pair per seed; pair i (from 0) "
                  "runs the parent first when i is even. Quartiles are "
                  "statistics.quantiles(method='inclusive'); 'change_better' counts pairs "
                  "where the change reads better, ties for neither side.",
        "notes": [],
        "environment": environment(seconds=seconds, size=args.size, threads=1),
        "workloads": {},
    }
    missing = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"parent": same_bytes.make_side(Path(tmp) / "parent", args.base),
                 "change": same_bytes.make_side(Path(tmp) / "change", args.change)}
        for name in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for s in order:
                    pair[s] = run_side(sides[s], name, seed, seconds, args.size)
                    missing += pair[s]["metrics"] is None
                    m = pair[s]["metrics"] or {}
                    sys.stderr.write(f"ab: {name} seed {seed} {s}: "
                                     + " ".join(f"{k} {v:.4g}" for k, v in m.items()) + "\n")
                pairs.append(pair)
            result["workloads"][name] = {"summary": summarize(pairs, better), "pairs": pairs}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for name, wl in result["workloads"].items():
        summary = wl["summary"]
        for key in better:
            if key in summary:
                m = summary[key]
                print(f"{name:14s} {key:12s} {m['parent']['median']:.4g} -> "
                      f"{m['change']['median']:.4g} (ratio {m['ratio_median']:.3f}, "
                      f"change better in {m['change_better']} of "
                      f"{summary['pairs_with_metrics']}, parent IQR "
                      f"{m['parent']['iqr']:.3g}): gain {'yes' if m['gain'] else 'no'}")
        print(f"{name:14s} sha256 match in every pair: {summary['sha256_match']}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
