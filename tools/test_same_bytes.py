"""Self-test of the same-bytes check, at the tiny size.

Run from the repository root:  python3 -m pytest -q tools
"""

import same_bytes

# the outputs that MBIR's voxels feed at --size tiny (bench runs at desk only);
# the mbir runs' reports carry no voxel-derived field outside bench
MBIR_FILES = ("xs_mbir_b2.hsnct", "xs_mbir_b0.hsnct", "xs_mbir_huber.hsnct",
              "xh_mbir_b2.hsnct", "xh_mbir_b0.hsnct", "xh_mbir_huber.hsnct",
              "xh_mbir_b2.pgm", "xh_mbir_b0.pgm", "xh_mbir_huber.pgm",
              "fhr_mbir.hsnct", "dhr_mbir.hsnct")
MBIR_OUTPUTS = {f"{name} @ threads {t}" for name in MBIR_FILES for t in same_bytes.THREADS}
MBIR_OUTPUTS |= {"perfbench desk-fhr voxels", "perfbench slice8-dhr voxels"}


def test_head_and_the_working_tree_agree_on_every_output(capsys):
    assert same_bytes.main(["--base", "HEAD", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "| NO |" not in out
    assert "53 of 53 outputs equal at --size tiny" in out


def test_a_bare_ramp_start_flags_exactly_the_outputs_mbir_writes(tmp_path):
    base = same_bytes.make_side(tmp_path / "base", "HEAD")
    bare = same_bytes.make_side(tmp_path / "bare", "HEAD")
    tomo = bare / "src" / "hsnct" / "tomo.py"
    text = tomo.read_text()
    hann_start = "_fbp_batch(block, geom, hann=True)"
    assert text.count(hann_start) == 1
    tomo.write_text(text.replace(hann_start, "_fbp_batch(block, geom, hann=False)"))

    rows = same_bytes.compare(same_bytes.side_hashes(base, "tiny"),
                              same_bytes.side_hashes(bare, "tiny"))
    assert MBIR_OUTPUTS <= {name for name, *_ in rows}
    assert {name for name, *_, same in rows if not same} == MBIR_OUTPUTS


def test_a_missing_or_failed_output_equals_nothing():
    rows = same_bytes.compare({"kept": "a", "failed": None, "moved": "b", "gone": "c"},
                              {"kept": "a", "failed": None, "moved": "d", "new": "e"})
    assert [(name, same) for name, _, _, same in rows] == [
        ("kept", True), ("failed", False), ("moved", False), ("gone", False), ("new", False)]
