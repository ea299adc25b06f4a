"""Self-test of the quality script, at the tiny size.

Run from the repository root:  python3 -m pytest -q tools
"""

import json
import math
import statistics

import numpy as np
import pytest
import quality


def test_one_tiny_seed_records_every_run(tmp_path, capsys):
    out = tmp_path / "quality.json"
    assert quality.main(["--out", str(out), "--size", "tiny", "--seeds", "1"]) == 0
    result = json.loads(out.read_text())
    assert list(result) == ["command", "method", "notes", "environment", "summary", "runs"]
    assert result["notes"] == []
    runs = result["runs"]
    assert len(runs) == (len(quality.DHR_BETAS) + len(quality.FHR_BETAS)) * 2
    for run in runs:
        assert list(run) == ["route", "seed", "beta", "prior", "snr_db",
                             "iterations_mean", "converged_frac"]
        assert math.isfinite(run["snr_db"]) and run["iterations_mean"] >= 1
        assert 0.0 <= run["converged_frac"] <= 1.0
    # Huber engages on both routes: at some beta its SNR differs from the quadratic prior's
    for route in ("dhr", "fhr"):
        snr = {(r["beta"], r["prior"]): r["snr_db"] for r in runs if r["route"] == route}
        assert any(snr[b, "huber"] != snr[b, "quadratic"] for b, _ in snr)
    assert set(result["summary"]) == {"dhr", "fhr"}
    assert all(set(s) == set(quality.PRIORS) for s in result["summary"].values())
    assert "best beta" in capsys.readouterr().out


@pytest.mark.parametrize("prior", quality.PRIORS)
def test_solve_returns_the_reconstructors_images(prior):
    spec, axis, geom = quality.scene(quality.SIZES["tiny"])
    truth = quality.build_ground_truth(spec, axis)
    p = quality.normalize(quality.simulate_scan(truth, geom, axis, spec.flux, 1))
    Y = p.values.reshape(geom.num_views, geom.num_rows, geom.num_cols, -1)[:, :2, :, :3]
    sg = quality.tomo.slice_geometry_for(geom)
    X, counts = quality.solve(Y, sg, prior, 8.0)
    opts = quality.tomo.MbirOptions(prior=quality.PRIORS[prior], regularization_weight=8.0)
    expect, info = quality.tomo._reconstruct_columns(Y, sg, opts, 1)
    assert X.dtype == expect.dtype and np.array_equal(X, expect)
    assert counts == {"iterations_mean": statistics.fmean(i["iterations"] for i in info),
                      "converged_frac": statistics.fmean(i["converged"] for i in info)}
