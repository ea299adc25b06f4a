"""Self-test of the quality script, at the tiny size.

Run from the repository root:  python3 -m pytest -q tools
"""

import json
import math

import pytest
import quality


def test_one_tiny_seed_records_every_run_and_the_decision(tmp_path, capsys):
    out = tmp_path / "quality.json"
    rule = quality.tomo._huber_delta
    assert quality.main(["--out", str(out), "--size", "tiny", "--seeds", "1"]) == 0
    assert quality.tomo._huber_delta is rule  # the c runs leave the rule in place
    result = json.loads(out.read_text())
    assert result["notes"] == []
    runs = result["runs"]
    assert len(runs) == (len(quality.DHR_BETAS) + len(quality.FHR_BETAS)) * len(quality.PRIORS)
    for run in runs:
        assert math.isfinite(run["snr_db"]) and run["iterations_mean"] >= 1
        assert 0.0 <= run["converged_frac"] <= 1.0
        if run["prior"] == "quadratic":
            assert run["pairs_above_delta"] is None
        else:
            assert 0.0 <= run["pairs_above_delta"] <= 1.0
    # Huber at the rule engages on both routes, and c = 1 engages more pairs than c = 4
    for route in ("dhr", "fhr"):
        share = {p: sum(r["pairs_above_delta"] for r in runs
                        if r["route"] == route and r["prior"] == p)
                 for p in ("huber", "huber c=1", "huber c=4")}
        assert share["huber"] > 0.0 and share["huber c=1"] > share["huber c=4"]
    assert set(result["summary"]["fhr"]) == set(quality.PRIORS)
    decision = result["decision"]
    assert set(decision["gain_db"]) == {"dhr", "fhr"}
    assert decision["keep_huber"] == any(g >= quality.KEEP_DB
                                         for g in decision["gain_db"].values())
    assert "keep Huber:" in capsys.readouterr().out


def test_the_c_runs_rescale_the_rules_delta():
    assert quality.PRIORS["huber"] == ("huber", None)
    assert quality.PRIORS["huber c=2"][1] == pytest.approx(2.0 / (1.345 * 1.4826))


def test_decision_reads_the_best_beta_of_each_prior():
    def route(quadratic, huber):
        return {"quadratic": {"best": {"snr_db_mean": quadratic}},
                "huber": {"best": {"snr_db_mean": huber}}}

    keep = quality.decide({"dhr": route(12.0, 12.1), "fhr": route(16.0, 16.3)})
    assert keep["keep_huber"] is True
    assert keep["gain_db"]["dhr"] == pytest.approx(0.1)
    drop = quality.decide({"dhr": route(12.0, 12.29), "fhr": route(16.0, 15.0)})
    assert drop["keep_huber"] is False
