"""Self-test of the A/B script, at the tiny size.

Run from the repository root:  python3 -m pytest -q tools
"""

import json

import ab
import pytest

METRICS = ("wall_s", "setup_s", "snr", "peak_rss_mb")


def test_two_tiny_pairs_alternate_and_record_every_key(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert ab.main(["--base", "HEAD", "--workload", "desk-dhr-fbp", "--seeds", "3-4",
                    "--size", "tiny", "--seconds", "0", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["notes"] == []
    assert result["change"] == "working tree" and len(result["base_commit"]) == 40
    assert result["environment"]["cpu_count"] >= 1
    wl = result["workloads"]["desk-dhr-fbp"]
    assert [(p["seed"], p["first"]) for p in wl["pairs"]] == [(3, "parent"), (4, "change")]
    for pair in wl["pairs"]:
        for side in ab.SIDES:
            assert set(pair[side]["metrics"]) == set(METRICS)
            assert len(pair[side]["voxel_sha256"]) == 1
            assert pair[side]["failed"] == 0
    summary = wl["summary"]
    assert summary["sha256_match"] is True
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    for key in METRICS:
        assert set(summary[key]) == {"better", "parent", "change", "ratio_median",
                                     "median_gap", "change_better", "gain"}
        assert 0 <= summary[key]["change_better"] <= 2
    out = capsys.readouterr().out
    assert "sha256 match in every pair: True" in out
    assert all(f"{key} " in out and "gain " in out for key in METRICS)


def pair(parent, change, sha=("a", "a")):
    return {"parent": {"metrics": {"wall_s": parent, "snr": parent}, "voxel_sha256": [sha[0]],
                       "failed": 0},
            "change": {"metrics": {"wall_s": change, "snr": change}, "voxel_sha256": [sha[1]],
                       "failed": 1}}


def test_summary_counts_wins_in_each_metrics_direction():
    pairs = [pair(2.0, 1.0), pair(4.0, 2.0), pair(1.0, 1.0), pair(1.0, 3.0)]
    s = ab.summarize(pairs, {"wall_s": "lower", "snr": "higher"})
    assert s["wall_s"]["change_better"] == 2 and s["snr"]["change_better"] == 1
    assert s["wall_s"]["ratio_median"] == 0.75
    assert s["wall_s"]["parent"] == {"median": 1.5, "q1": 1.0, "q3": 2.5, "iqr": 1.5}
    assert s["wall_s"]["median_gap"] == 1.5 - 1.5
    assert s["sha256_match"] is True
    assert s["failed_ops"] == {"parent": 0, "change": 4}


def test_a_differing_or_missing_sha256_is_no_match():
    assert ab.summarize([pair(1.0, 1.0), pair(1.0, 1.0, ("a", "b"))], {})["sha256_match"] is False
    missing = pair(1.0, 1.0)
    missing["parent"] = {"metrics": None, "returncode": 1}
    s = ab.summarize([pair(1.0, 1.0), missing], {"wall_s": "lower"})
    assert s["sha256_match"] is False and s["pairs_with_metrics"] == 1 and "wall_s" not in s


def test_seed_ranges():
    assert ab.parse_seeds("3-6") == [3, 4, 5, 6]
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(Exception):
        ab.parse_seeds("6-3")


def verdict(parent, change, direction):
    return ab.summarize([pair(b, c) for b, c in zip(parent, change)],
                        {"wall_s": direction})["wall_s"]["gain"]


def test_a_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45
    faster = [b - 0.5 for b in parent]
    assert verdict(parent, faster, "lower") is True
    # the same runs read as a loss when higher is better
    assert verdict(parent, faster, "higher") is False
    assert verdict(faster, parent, "higher") is True
    # 8 of 10 pairs is short of ceil(0.9 x 10) = 9
    assert verdict(parent, faster[:8] + parent[8:], "lower") is False
    assert verdict(parent, faster[:9] + parent[9:], "lower") is True
    # every pair better, but the median moves by less than the parent's IQR
    assert verdict(parent, [b - 0.4 for b in parent], "lower") is False


def test_a_gain_in_few_pairs_needs_every_pair():
    # ceil(0.9 x 3) = 3
    assert verdict([1.0, 2.0, 3.0], [0.0, 0.5, 1.0], "lower") is True  # IQR 1, gap 1.5
    assert verdict([1.0, 2.0, 3.0], [0.0, 0.5, 3.0], "lower") is False
