"""Check that a change keeps every output of hsnct byte for byte.

Run from the repository root:

    python3 tools/same_bytes.py --base REV [--change REV] [--size tiny|desk]

Each side's ``src/`` is unpacked from ``git archive REV`` into a temporary
directory (``--change`` defaults to the working tree's ``src/``), beside a
copy of the working tree's ``perfbench/`` and ``BENCHMARK.json``:
``perfbench/run.py`` imports hsnct only from its own checkout's ``src/``, so
both sides run one harness and differ only in ``src/``.  No worktree is
made and nothing is fetched.

Each side runs one fixed table, at ``--threads`` 1 and 2, on perfbench's
scene at ``--size`` (scan seed 1, NMF seed 0, rank 4):

* the staged chain phantom -> simulate -> normalize -> extract ->
  reconstruct of the coefficients (fbp; mbir ``--beta 2``; mbir
  ``--beta 0``; mbir ``--beta 2 --prior huber``) -> expand -> slice;
* ``fhr`` and ``dhr`` with each engine: the volumes, and ``--report``
  without its timing keys (the ``*_s`` fields);
* at desk only, ``hsnct bench``: its CSV columns ``algorithm``..``snr_db``
  and its PGMs;

and then the voxel sha256 of each perfbench workload (perfbench runs at
threads 1).  It prints one row per output, a markdown table, and exits 1 if
any output differs or is missing on either side.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = (1, 2)
WORKLOADS = ("desk-fhr", "slice8-dhr", "desk-dhr-fbp")
INPUTS = ("spec.json", "geom.json")
# the coefficient reconstructions of the staged chain: tag -> reconstruct flags
RECONS = {
    "fbp": ("--engine", "fbp"),
    "mbir_b2": ("--engine", "mbir", "--beta", "2"),
    "mbir_b0": ("--engine", "mbir", "--beta", "0"),
    "mbir_huber": ("--engine", "mbir", "--beta", "2", "--prior", "huber"),
}
_SKIP = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")


def make_side(root: Path, rev: str | None) -> Path:
    """``root`` holding ``src/`` at ``rev`` (None: the working tree's) and
    the working tree's ``perfbench/`` and ``BENCHMARK.json``."""
    root.mkdir(parents=True)
    if rev is None:
        shutil.copytree(ROOT / "src", root / "src", ignore=_SKIP)
    else:
        blob = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(root, filter="data")
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=_SKIP)
    shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def perfbench_cmd(name: str, seed, seconds: float, size: str) -> list[str]:
    """The untraced ``perfbench/run.py`` command line, relative to a side."""
    return ["perfbench/run.py", "--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0", "--size", size]


def run_perfbench(side: Path, name: str, seed: int, seconds: float,
                  size: str) -> subprocess.CompletedProcess:
    """One untraced perfbench run in ``side``, which imports hsnct from
    ``side``/src (PYTHONPATH is dropped); stdout and stderr captured."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *perfbench_cmd(name, seed, seconds, size)],
                          cwd=side, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def commands(size: str, threads: int) -> list[list[str]]:
    """The CLI rows, in order, run in one directory that holds ``INPUTS``."""
    t = ["--threads", str(threads)]
    rows = [
        ["phantom", "--spec", "spec.json", "--out-truth", "truth.hsnct"],
        ["simulate", "--truth", "truth.hsnct", "--geom", "geom.json", "--flux", "200",
         "--seed", "1", "--out", "scan.hsnct"],
        ["normalize", "--scan", "scan.hsnct", "--out", "p.hsnct"],
        ["extract", "--in", "p.hsnct", "--rank", "4", "--seed", "0",
         "--out-v", "v.hsnct", "--out-d", "d.hsnct"],
    ]
    for tag, flags in RECONS.items():
        rows += [
            ["reconstruct", "--in", "v.hsnct", *flags, "--out", f"xs_{tag}.hsnct", *t],
            ["expand", "--in", f"xs_{tag}.hsnct", "--basis", "d.hsnct",
             "--out", f"xh_{tag}.hsnct"],
            ["slice", "--in", f"xh_{tag}.hsnct", "--z", "8", "--bin", "8",
             "--out", f"xh_{tag}.pgm"],
        ]
    for route, extra in (("fhr", ["--rank", "4", "--seed", "0"]), ("dhr", [])):
        for engine in ("fbp", "mbir"):
            rows.append([route, "--in", "p.hsnct", *extra, "--engine", engine,
                         "--out", f"{route}_{engine}.hsnct",
                         "--report", f"{route}_{engine}.json", *t])
    if size == "desk":
        rows.append(["bench", "--out", "bench.csv", "--seed", "0", *t])
    return rows


def run_table(side: str, size: str, threads: int) -> int:
    """Run ``commands`` in the current directory, with hsnct imported from
    ``side``/src (the caller's PYTHONPATH); returns the number of failed rows."""
    sys.path.insert(0, str(Path(side) / "perfbench"))
    import hsnct
    from hsnct.cli import main
    from hsnct.containers import geometry_header, spectral_header
    from hsnct.phantom import spec_to_dict
    from workloads import SIZES, scene

    src = (Path(side) / "src").resolve()
    if src not in Path(hsnct.__file__).resolve().parents:
        raise SystemExit(f"same_bytes: imported hsnct from {hsnct.__file__}, not {src}")
    spec, axis, geom = scene(SIZES[size])
    Path("spec.json").write_text(json.dumps(
        {"phantom": spec_to_dict(spec), "spectral": spectral_header(axis)}))
    Path("geom.json").write_text(json.dumps(geometry_header(geom)))
    return sum(main(argv) != 0 for argv in commands(size, threads))


def _digest(path: Path) -> str:
    """sha256 of an output: a report without its ``*_s`` keys, a CSV cut
    after ``snr_db``, any other file as written."""
    data = path.read_bytes()
    if path.suffix == ".json":
        report = {k: v for k, v in json.loads(data).items() if not k.endswith("_s")}
        data = json.dumps(report, sort_keys=True).encode()
    elif path.suffix == ".csv":
        lines = data.decode().splitlines()
        keep = lines[0].split(",").index("snr_db") + 1
        data = "\n".join(",".join(line.split(",")[:keep]) for line in lines).encode()
    return hashlib.sha256(data).hexdigest()


def side_hashes(side: Path, size: str) -> dict[str, str | None]:
    """Output name -> sha256 for one side: every CLI output at each of
    ``THREADS`` (named ``output @ threads N``), then each perfbench workload;
    None marks a failure."""
    hashes = {}
    for threads in THREADS:
        with tempfile.TemporaryDirectory(prefix="same-bytes-", dir=side) as work:
            code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import same_bytes; "
                    f"sys.exit(same_bytes.run_table({str(side)!r}, {size!r}, {threads}))")
            proc = subprocess.run([sys.executable, "-c", code], cwd=work, text=True,
                                  env={**os.environ, "PYTHONPATH": str(side / "src")},
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if proc.returncode:  # a row that fails on both sides writes no output
                hashes[f"every CLI row ran @ threads {threads}"] = None
                sys.stderr.write(f"{side.name} at --threads {threads}: exit "
                                 f"{proc.returncode}\n{proc.stderr}")
            for path in sorted(Path(work).iterdir(), key=lambda p: (p.stat().st_mtime_ns, p.name)):
                if path.name not in INPUTS:
                    hashes[f"{path.name} @ threads {threads}"] = _digest(path)
    for name in WORKLOADS:
        proc = run_perfbench(side, name, 1, 0, size)
        ops = [line.split("sha256 ")[-1] for line in proc.stdout.splitlines()
               if line.startswith("op:") and "sha256 " in line]
        hashes[f"perfbench {name} voxels"] = ops[0] if ops else None
        if not ops:
            sys.stderr.write(f"{side.name} perfbench {name}: no output\n{proc.stderr}")
    return hashes


def compare(base: dict, change: dict) -> list[tuple[str, str, str, bool]]:
    """(output, base sha256, change sha256, equal) in the base side's order,
    then outputs only the change side has; a missing or failed output reads
    '-' and equals nothing."""
    names = list(base) + [name for name in change if name not in base]
    return [(name, base.get(name) or "-", change.get(name) or "-",
             base.get(name) is not None and base.get(name) == change.get(name))
            for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=None,
                        help="git revision of the change (default: the working tree)")
    parser.add_argument("--size", choices=("tiny", "desk"), default="tiny")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        base = side_hashes(make_side(Path(tmp) / "base", args.base), args.size)
        change = side_hashes(make_side(Path(tmp) / "change", args.change), args.size)
    rows = compare(base, change)
    print(f"| output | sha256 (first 16 hex), base {args.base} | "
          f"change {args.change or 'working tree'} | same |")
    print("|---|---|---|---|")
    for name, b, c, same in rows:
        print(f"| `{name}` | `{b[:16]}` | `{c[:16]}` | {'yes' if same else 'NO'} |")
    differ = sum(not same for *_, same in rows)
    print(f"{len(rows) - differ} of {len(rows)} outputs equal at --size {args.size}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
