"""Image quality of MBIR's two priors on both routes, against the phantom.

Run from the repository root:

    python3 tools/quality.py --out BENCH_<n>.json [--seeds 1-3] [--size SIZE]

It imports hsnct from this checkout's ``src/`` and builds perfbench's scene
at ``--size``, a key of perfbench's ``SIZES`` (desk, the default:
``default_benchmark_phantom()``).  For each scan seed it simulates and
normalizes the scan, then reconstructs at ``threads`` 1:

* dhr: detector row 8, every 8th bin from bin 3 (32 bins at desk), at
  beta in ``DHR_BETAS``;
* fhr: the whole block, NMF rank 4 and seed 0 (perfbench's desk-fhr
  settings), MBIR on the coefficients and the expansion, at beta in
  ``FHR_BETAS``;

each under the quadratic prior, Huber at ``tomo``'s threshold rule
(delta = 1.345 x 1.4826 median |P x0| per column, x0 the column's MBIR
start), and Huber at delta = c x median |P x0| for c in ``SCALES``.  The
c runs take the rule's delta and rescale it, so a zero median stays inf.

Per run it records the SNR in dB of the route's output (dhr: the 32 bins
of row 8; fhr: the expanded volume) against the truth of the same voxels
and bins, the mean MBIR iterations, the converged share of the columns,
and under Huber the share of neighbor pairs with |P x| > delta at the
solution and the share of columns whose delta is inf.  Per route and
prior it gives each beta's SNR averaged over the seeds and the best beta.

``decision`` applies one fixed rule: Huber under the threshold rule is
kept if, on either route, its best mean SNR beats the quadratic prior's
best by at least ``KEEP_DB`` dB.  ``notes`` is written empty: prose goes
there, and the rest of the file is left as written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(HERE)]

from ab import parse_seeds  # noqa: E402
from envinfo import environment  # noqa: E402
from hsnct import tomo  # noqa: E402
from hsnct.containers import VolumeStack  # noqa: E402
from hsnct.phantom import build_ground_truth, simulate_scan  # noqa: E402
from hsnct.pipeline import snr_db  # noqa: E402
from hsnct.preprocess import normalize  # noqa: E402
from hsnct.subspace import NmfOptions, expand, nmf_factorize  # noqa: E402
from workloads import SIZES, scene  # noqa: E402

DHR_ROW, DHR_BINS = 8, slice(3, None, 8)
DHR_BETAS = (2.0, 8.0, 32.0, 64.0, 128.0)
FHR_BETAS = (1.0, 2.0, 4.0, 8.0)
RANK, NMF_SEED = 4, 0
SCALES = (1.0, 2.0, 4.0)
RULE_FACTOR = 1.345 * 1.4826  # tomo's delta over the start's median |P x0|
KEEP_DB = 0.3
# prior name -> (MbirOptions.prior, delta over tomo's rule: None for the rule)
PRIORS = {"quadratic": ("quadratic-difference", None), "huber": ("huber", None),
          **{f"huber c={c:g}": ("huber", c / RULE_FACTOR) for c in SCALES}}


def solve(Y: np.ndarray, sg, prior: str, beta: float):
    """MBIR of the container block Y (angles, slices, bins, C) at threads 1
    under ``PRIORS[prior]``: (images (slices, n^2, C), info per column, the
    delta per column in (slice, channel) order, or None under the quadratic
    prior)."""
    name, scale = PRIORS[prior]
    rule, deltas = tomo._huber_delta, []

    def huber_delta(X0, n):
        delta = rule(X0, n) if scale is None else rule(X0, n) * scale
        deltas.append(delta)
        return delta

    tomo._huber_delta = huber_delta
    try:
        X, info = tomo._reconstruct_columns(
            Y, sg, tomo.MbirOptions(prior=name, regularization_weight=beta), 1)
    finally:
        tomo._huber_delta = rule
    return X, info, np.concatenate(deltas) if deltas else None


def run_record(X, info, delta, n: int) -> dict:
    """The solver's counts, and under Huber the pair shares at its solution."""
    rec = {"iterations_mean": statistics.fmean(i["iterations"] for i in info),
           "converged_frac": statistics.fmean(i["converged"] for i in info),
           "pairs_above_delta": None, "delta_inf_frac": None}
    if delta is not None:
        cols = X.transpose(1, 0, 2).reshape(n * n, -1)  # (slice, channel) order
        above = np.abs(tomo._pairs(n)[0] @ cols.astype(np.float64)) > delta
        rec["pairs_above_delta"] = float(above.mean())
        rec["delta_inf_frac"] = float(np.isinf(delta).mean())
    return rec


def seed_runs(size, seed: int) -> list[dict]:
    """Every (route, beta, prior) run on the scan of ``seed``."""
    spec, axis, geom = scene(size)
    truth = build_ground_truth(spec, axis)
    p = normalize(simulate_scan(truth, geom, axis, spec.flux, seed))
    sg = tomo.slice_geometry_for(geom)
    n_v, n_r, n = geom.num_views, geom.num_rows, geom.num_cols
    runs = []

    block = p.values.reshape(n_v, n_r, n, -1)[:, DHR_ROW:DHR_ROW + 1, :, DHR_BINS]
    ref = truth.voxels.reshape(n_r, n * n, -1)[DHR_ROW, :, DHR_BINS]
    for beta in DHR_BETAS:
        for prior in PRIORS:
            X, info, delta = solve(block, sg, prior, beta)
            snr = snr_db(VolumeStack(X[0], 1, n), VolumeStack(ref, 1, n))
            runs.append({"route": "dhr", "seed": seed, "beta": beta, "prior": prior,
                         "snr_db": snr, **run_record(X, info, delta, n)})

    coeffs, basis, _ = nmf_factorize(p, NmfOptions(rank=RANK, seed=NMF_SEED))
    C = coeffs.rank
    for beta in FHR_BETAS:
        for prior in PRIORS:
            X, info, delta = solve(coeffs.coeffs.reshape(n_v, n_r, n, C), sg, prior, beta)
            x_h = expand(VolumeStack(X.reshape(-1, C), n_r, n, geom.pixel_pitch), basis)
            runs.append({"route": "fhr", "seed": seed, "beta": beta, "prior": prior,
                         "snr_db": snr_db(x_h, truth), **run_record(X, info, delta, n)})
    return runs


def summarize(runs: list[dict]) -> dict:
    """Per route and prior: the mean SNR over seeds at each beta, and the
    best beta with its mean SNR, iterations and pair share."""
    out = {}
    for route in ("dhr", "fhr"):
        out[route] = {}
        for prior in PRIORS:
            mine = [r for r in runs if r["route"] == route and r["prior"] == prior]
            by_beta = {}
            for beta in dict.fromkeys(r["beta"] for r in mine):
                at = [r for r in mine if r["beta"] == beta]
                shares = [r["pairs_above_delta"] for r in at]
                by_beta[f"{beta:g}"] = {
                    "snr_db_mean": statistics.fmean(r["snr_db"] for r in at),
                    "iterations_mean": statistics.fmean(r["iterations_mean"] for r in at),
                    "converged_frac": statistics.fmean(r["converged_frac"] for r in at),
                    "pairs_above_delta": None if None in shares else statistics.fmean(shares),
                }
            best = max(by_beta, key=lambda b: by_beta[b]["snr_db_mean"])
            out[route][prior] = {"best_beta": float(best), "best": by_beta[best],
                                 "by_beta": by_beta}
    return out


def decide(summary: dict) -> dict:
    """Huber under the rule against the quadratic prior, each at its best
    beta, per route; kept if either route gains at least KEEP_DB."""
    gains = {route: s["huber"]["best"]["snr_db_mean"] - s["quadratic"]["best"]["snr_db_mean"]
             for route, s in summary.items()}
    return {"rule": f"keep Huber if, on either route and averaged over the seeds, Huber "
                    f"at its best beta beats the quadratic prior at its best beta by at "
                    f"least {KEEP_DB} dB",
            "gain_db": gains, "keep_huber": any(g >= KEEP_DB for g in gains.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-3"),
                        help="scan seeds, A-B (default 1-3)")
    parser.add_argument("--size", choices=SIZES, default="desk")
    args = parser.parse_args(argv)
    runs = [r for seed in args.seeds for r in seed_runs(SIZES[args.size], seed)]
    summary = summarize(runs)
    result = {
        "command": " ".join(["python3", "tools/quality.py", *(argv or sys.argv[1:])]),
        "method": f"perfbench's {args.size} scene, scan seeds {args.seeds}, threads 1. "
                  f"dhr: row {DHR_ROW}, bins 3::8, beta {list(DHR_BETAS)}. fhr: NMF rank "
                  f"{RANK}, seed {NMF_SEED}, beta {list(FHR_BETAS)}. Priors: quadratic, "
                  f"Huber at tomo's delta rule, Huber at c x median |P x0|, c {list(SCALES)}.",
        "notes": [],
        "environment": environment(size=args.size, threads=1),
        "decision": decide(summary),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for route, priors in summary.items():
        for prior, s in priors.items():
            b = s["best"]
            share = "" if b["pairs_above_delta"] is None else \
                f", pairs above delta {b['pairs_above_delta']:.3f}"
            print(f"{route} {prior:12s} best beta {s['best_beta']:g}: "
                  f"{b['snr_db_mean']:.2f} dB, {b['iterations_mean']:.1f} iterations{share}")
    d = result["decision"]
    print("gain of Huber over quadratic, dB: "
          + ", ".join(f"{route} {g:+.2f}" for route, g in d["gain_db"].items())
          + f"; keep Huber: {d['keep_huber']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
