"""Image quality of MBIR's two priors on both routes, against the phantom.

Run from the repository root:

    python3 tools/quality.py --out BENCH_<n>.json [--seeds 1-3] [--size SIZE]

It imports hsnct from this checkout's ``src/`` and builds perfbench's scene
at ``--size``, a key of perfbench's ``SIZES`` (desk, the default:
``default_benchmark_phantom()``).  The NMF rank and seed and the detector
row are perfbench's ``RANK``, ``NMF_SEED`` and ``PROBE_ROW`` (4, 0 and 8:
its desk-fhr and slice8-dhr settings).  For each scan seed it simulates and
normalizes the scan, then reconstructs at ``threads`` 1:

* dhr: detector row ``PROBE_ROW``, every 8th bin from bin 3 (32 bins at
  desk), at beta in ``DHR_BETAS``;
* fhr: the whole block, NMF at ``RANK`` and ``NMF_SEED``, MBIR on the
  coefficients and the expansion, at beta in ``FHR_BETAS``;

each under the quadratic prior and under Huber at ``tomo``'s own threshold
rule (delta from each column's MBIR start).

Per run it records the SNR in dB of the route's output (dhr: the 32 bins
of the row; fhr: the expanded volume) against the truth of the same voxels
and bins, and the solver's two counts: the mean MBIR iterations and the
converged share of the columns.  Per route and prior it gives each beta's
means over the seeds and the best beta.  ``notes`` is written empty: prose
goes there, and the rest of the file is left as written.
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
from workloads import NMF_SEED, PROBE_ROW, RANK, SIZES, scene  # noqa: E402

DHR_BINS = slice(3, None, 8)
DHR_BETAS = (2.0, 8.0, 32.0, 64.0, 128.0)
FHR_BETAS = (1.0, 2.0, 4.0, 8.0)
# record name -> MbirOptions.prior
PRIORS = {"quadratic": "quadratic-difference", "huber": "huber"}


def solve(Y: np.ndarray, sg, prior: str, beta: float):
    """MBIR of the container block Y (angles, slices, bins, C) at threads 1
    under ``PRIORS[prior]``: (images (slices, n^2, C), the solver's counts)."""
    X, info = tomo._reconstruct_columns(
        Y, sg, tomo.MbirOptions(prior=PRIORS[prior], regularization_weight=beta), 1)
    return X, {"iterations_mean": statistics.fmean(i["iterations"] for i in info),
               "converged_frac": statistics.fmean(i["converged"] for i in info)}


def seed_runs(size, seed: int) -> list[dict]:
    """Every (route, beta, prior) run on the scan of ``seed``."""
    spec, axis, geom = scene(size)
    truth = build_ground_truth(spec, axis)
    p = normalize(simulate_scan(truth, geom, axis, spec.flux, seed))
    sg = tomo.slice_geometry_for(geom)
    n_v, n_r, n = geom.num_views, geom.num_rows, geom.num_cols
    runs = []

    block = p.values.reshape(n_v, n_r, n, -1)[:, PROBE_ROW:PROBE_ROW + 1, :, DHR_BINS]
    ref = VolumeStack(truth.voxels.reshape(n_r, n * n, -1)[PROBE_ROW, :, DHR_BINS], 1, n)
    for beta in DHR_BETAS:
        for prior in PRIORS:
            X, counts = solve(block, sg, prior, beta)
            runs.append({"route": "dhr", "seed": seed, "beta": beta, "prior": prior,
                         "snr_db": snr_db(VolumeStack(X[0], 1, n), ref), **counts})

    coeffs, basis, _ = nmf_factorize(p, NmfOptions(rank=RANK, seed=NMF_SEED))
    C = coeffs.rank
    for beta in FHR_BETAS:
        for prior in PRIORS:
            X, counts = solve(coeffs.coeffs.reshape(n_v, n_r, n, C), sg, prior, beta)
            x_h = expand(VolumeStack(X.reshape(-1, C), n_r, n, geom.pixel_pitch), basis)
            runs.append({"route": "fhr", "seed": seed, "beta": beta, "prior": prior,
                         "snr_db": snr_db(x_h, truth), **counts})
    return runs


def summarize(runs: list[dict]) -> dict:
    """Per route and prior: the means over seeds at each beta, and the best
    beta (highest mean SNR) with its means."""
    out = {}
    for route in ("dhr", "fhr"):
        out[route] = {}
        for prior in PRIORS:
            mine = [r for r in runs if r["route"] == route and r["prior"] == prior]
            by_beta = {}
            for beta in dict.fromkeys(r["beta"] for r in mine):
                at = [r for r in mine if r["beta"] == beta]
                by_beta[f"{beta:g}"] = {
                    "snr_db_mean": statistics.fmean(r["snr_db"] for r in at),
                    "iterations_mean": statistics.fmean(r["iterations_mean"] for r in at),
                    "converged_frac": statistics.fmean(r["converged_frac"] for r in at),
                }
            best = max(by_beta, key=lambda b: by_beta[b]["snr_db_mean"])
            out[route][prior] = {"best_beta": float(best), "best": by_beta[best],
                                 "by_beta": by_beta}
    return out


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
                  f"dhr: row {PROBE_ROW}, bins 3::8, beta {list(DHR_BETAS)}. fhr: NMF rank "
                  f"{RANK}, seed {NMF_SEED}, beta {list(FHR_BETAS)}. Priors: quadratic, "
                  f"Huber at tomo's delta rule.",
        "notes": [],
        "environment": environment(size=args.size, threads=1),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for route, priors in summary.items():
        for prior, s in priors.items():
            b = s["best"]
            print(f"{route} {prior:9s} best beta {s['best_beta']:g}: "
                  f"{b['snr_db_mean']:.2f} dB, {b['iterations_mean']:.1f} iterations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
