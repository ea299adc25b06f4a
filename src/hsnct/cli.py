"""Command-line interface: one binary, one subcommand per pipeline stage.

The pipeline can be run whole (``fhr``/``dhr``/``bench``) or stage by stage
(``phantom`` -> ``simulate`` -> ``normalize`` -> ``extract`` ->
``reconstruct`` -> ``expand``), with ``slice`` exporting 8-bit PGM images
for visual inspection.  Every subcommand is a pure function of its inputs
and flags; the only run-to-run differences at a fixed seed are the timing
fields inside reports.

Exit codes: 0 success, 1 validation/usage error, 2 file or container error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from hsnct.containers import (
    ContainerError,
    ValidationError,
    geometry_from_header,
    load_basis,
    load_container,
    load_raw_scan,
    load_sinogram,
    load_volume,
    spectral_from_header,
    spectral_header,
    write_container,
)
from hsnct.phantom import (
    build_ground_truth,
    default_benchmark_phantom,
    simulate_scan,
    spec_from_dict,
)
from hsnct.pipeline import (
    PipelineConfig,
    run_benchmark,
    run_dhr,
    run_fhr,
)
from hsnct.preprocess import NormalizationOptions, normalize
from hsnct.subspace import NmfOptions, expand, nmf_factorize
from hsnct.tomo import MbirOptions, reconstruct_stack

__all__ = ["main", "entry"]

log = logging.getLogger("hsnct")

_PRIOR_NAMES = {"quadratic": "quadratic-difference", "huber": "huber"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is
    # usage text on stderr and exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    shared = {name: argparse.ArgumentParser(add_help=False)
              for name in ("threads", "seed", "verbose")}
    shared["threads"].add_argument(
        "--threads", type=_positive_int, default=PipelineConfig.threads,
        help="worker budget for slice reconstructions (default %(default)s)")
    shared["seed"].add_argument("--seed", type=int, default=0,
                                help="seed for the seeded stages (default 0)")
    shared["verbose"].add_argument("--verbose", action="store_true",
                                   help="log progress lines to stderr")

    parser = _Parser(prog="hsnct",
                     description="Fast hyperspectral neutron CT reconstruction")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, blurb, *reads):  # --verbose and the shared settings it reads
        return sub.add_parser(name, help=blurb, parents=[shared[k] for k in (*reads, "verbose")])

    p = command("phantom", "rasterize a phantom spec into a ground-truth volume")
    p.add_argument("--spec", required=True, help="phantom spec JSON")
    p.add_argument("--out-truth", required=True, help="output truth container")

    p = command("simulate", "simulate a noisy scan of a truth volume", "seed")
    p.add_argument("--truth", required=True)
    p.add_argument("--geom", required=True, help="scan geometry JSON")
    p.add_argument("--flux", required=True, type=float,
                   help="expected open-beam counts per bin")
    p.add_argument("--out", required=True)

    p = command("normalize", "counts to attenuation line integrals")
    p.add_argument("--scan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-clamp", action="store_true",
                   help="keep negative attenuation values")
    p.add_argument("--floor", type=float, default=NormalizationOptions.count_floor,
                   help="count floor applied before the log (default %(default)s)")

    p = command("extract", "factorize projections into coefficients and basis", "seed")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--out-v", required=True, help="coefficient sinogram output")
    p.add_argument("--out-d", required=True, help="spectral basis output")
    p.add_argument("--max-iters", type=int, default=NmfOptions.max_iters,
                   help="cap on HALS passes (default %(default)s)")
    p.add_argument("--tol", type=float, default=NmfOptions.rel_tol,
                   help="stop once the residual energy exceeds the best rank-r "
                        "fit's by at most TOL x lambda_{r+1}, the energy of the "
                        "strongest direction that fit leaves out (default %(default)s)")

    p = command("reconstruct", "reconstruct every channel of a sinogram container", "threads")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--engine", required=True, choices=("fbp", "mbir"))
    p.add_argument("--out", required=True)
    p.add_argument("--beta", type=float, default=None,
                   help="mbir regularization weight")
    p.add_argument("--prior", choices=tuple(_PRIOR_NAMES), default=None,
                   help="mbir prior")

    p = command("expand", "expand a coefficient volume through a basis")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--out", required=True)

    for name, blurb, reads in (
            ("fhr", "extract, reconstruct and expand in one run", ("seed", "threads")),
            ("dhr", "per-bin baseline reconstruction", ("threads",))):
        p = command(name, blurb, *reads)
        p.add_argument("--in", dest="infile", required=True)
        if name == "fhr":
            p.add_argument("--rank", required=True, type=int)
        p.add_argument("--engine", required=True, choices=("fbp", "mbir"))
        p.add_argument("--out", required=True)
        p.add_argument("--report", required=True, help="run report JSON output")

    p = command("bench", "run both pipelines on the benchmark phantom", "seed", "threads")
    p.add_argument("--out", required=True, help="comparison CSV output")
    p.add_argument("--preset", choices=("desk",), default="desk")

    p = command("slice", "export one slice/bin image as 8-bit PGM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--z", required=True, type=int)
    p.add_argument("--bin", required=True, type=int)
    p.add_argument("--out", required=True)

    return parser


def _read_json(path: str, parse):
    """``parse(**blob)`` of the JSON object in ``path``.  A JSON input is no container:
    any fault in it, a header fault included, is a validation error naming the file."""
    try:  # a missing or unknown top-level key, or no object, fails the call
        with open(path, "r", encoding="utf-8") as fh:
            return parse(**json.load(fh))
    except (TypeError, ValueError, ContainerError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _spec_file(phantom, spectral):
    return spec_from_dict(phantom), spectral_from_header(spectral)


def _write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM; values mapped linearly from [0, max] to [0, 255]
    (non-positive images come out all black)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValidationError(f"PGM export needs a 2D image, got shape {img.shape}")
    top = float(img.max())
    if top > 0:
        data = np.clip(img / top, 0.0, 1.0)
    else:
        data = np.zeros_like(img)
    payload = np.round(data * 255.0).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes())


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_phantom(args) -> int:
    spec, axis = _read_json(args.spec, _spec_file)
    truth = build_ground_truth(spec, axis)
    write_container(args.out_truth, truth,
                    extra_header={"spectral": spectral_header(axis)})
    log.info("wrote truth %s [%d voxels x %d bins]", args.out_truth,
             truth.voxels.shape[0], truth.num_channels)
    return 0


def _cmd_simulate(args) -> int:
    truth, axis = load_volume(args.truth)
    if axis is None:
        raise ValidationError(
            f"{args.truth}: truth container carries no spectral metadata")
    geom = _read_json(args.geom, lambda **h: geometry_from_header(h))
    scan = simulate_scan(truth, geom, axis, args.flux, args.seed)
    write_container(args.out, scan)
    log.info("wrote scan %s [%d views, flux %g, seed %d]", args.out,
             geom.num_views, args.flux, args.seed)
    return 0


def _cmd_normalize(args) -> int:
    scan = load_raw_scan(args.scan)
    opts = NormalizationOptions(count_floor=args.floor,
                                clamp_negative=not args.no_clamp)
    sino = normalize(scan, opts)
    write_container(args.out, sino)
    log.info("wrote projections %s [%d rays x %d bins]", args.out,
             sino.values.shape[0], sino.values.shape[1])
    return 0


def _cmd_extract(args) -> int:
    sino = load_sinogram(args.infile)
    opts = NmfOptions(rank=args.rank, seed=args.seed, max_iters=args.max_iters,
                      rel_tol=args.tol)
    coeffs, basis, report = nmf_factorize(sino, opts)
    write_container(args.out_v, coeffs)
    write_container(args.out_d, basis)
    log.info("factorized rank %d in %d passes, residual fraction %.3g, gap %.3g",
             args.rank, report.iterations_run, report.residual_energy, report.gap)
    if not report.converged:
        log.warning("hsnct extract: warning: stopped at the pass cap after %d passes, "
                    "gap %.3g above --tol %g", report.iterations_run, report.gap, args.tol)
    return 0


def _cmd_reconstruct(args) -> int:
    sinos, axis = load_container(args.infile, "subspace-sinogram", "sinogram")
    extra = None if axis is None else {"spectral": spectral_header(axis)}
    # MbirOptions supplies what the flags leave out
    flags = {"prior": _PRIOR_NAMES.get(args.prior), "regularization_weight": args.beta}
    given = {key: value for key, value in flags.items() if value is not None}
    if given and args.engine == "fbp":
        raise ValidationError("--beta/--prior only apply to the mbir engine")
    opts = MbirOptions(**given) if args.engine == "mbir" else None
    vol = reconstruct_stack(sinos, sinos.geometry, args.engine, opts, threads=args.threads)
    write_container(args.out, vol, extra_header=extra)
    log.info("wrote volume %s [%d voxels x %d channels, %s]", args.out,
             vol.voxels.shape[0], vol.num_channels, args.engine)
    return 0


def _cmd_expand(args) -> int:
    vol, _ = load_volume(args.infile)
    basis = load_basis(args.basis)
    out = expand(vol, basis)
    write_container(args.out, out,
                    extra_header={"spectral": spectral_header(basis.axis)})
    log.info("expanded %d channels to %d bins -> %s", vol.num_channels,
             basis.basis.shape[0], args.out)
    return 0


def _cmd_route(args) -> int:
    """``fhr`` or ``dhr``: the same input, outputs and report; only the route differs."""
    sino = load_sinogram(args.infile)
    subspace = NmfOptions(rank=args.rank, seed=args.seed) if args.command == "fhr" else None
    cfg = PipelineConfig(subspace=subspace, recon_engine=args.engine, threads=args.threads)
    if subspace is None:
        vol, report = run_dhr(sino, cfg)
    else:
        vol, _, report = run_fhr(sino, cfg)
    # the basis that fhr returns carries the input's spectral axis
    write_container(args.out, vol,
                    extra_header={"spectral": spectral_header(sino.axis)})
    _write_json(args.report, {**report.fields(sino.axis.num_bins),
                              "epsilon_frac": report.epsilon_frac})
    log.info("%s done: %d channels in %.2fs -> %s", args.command, report.channels,
             report.total_s, args.out)
    return 0


def _cmd_bench(args) -> int:
    # desk preset: the fixed benchmark phantom, subspace rank 4, and one
    # config, so both pipelines run MBIR at beta 2 with the same settings
    spec, axis, geom = default_benchmark_phantom()
    cfg = PipelineConfig(subspace=NmfOptions(rank=4, seed=args.seed), recon_engine="mbir",
                         recon=MbirOptions(regularization_weight=2.0), threads=args.threads)
    t0 = time.perf_counter()
    result = run_benchmark(spec, axis, geom, cfg)
    out = Path(args.out)
    out.write_text(result.csv_text, encoding="ascii", newline="")
    stem = out.with_suffix("")
    for key in sorted(result.slice_images):
        _write_pgm(f"{stem}_{key}.pgm", result.slice_images[key])
    log.info("benchmark finished in %.1fs: speedup %.2fx, snr gap %+.2f dB",
             time.perf_counter() - t0, result.rows[0]["speedup"],
             result.fhr_report.snr_db - result.dhr_report.snr_db)
    return 0


def _cmd_slice(args) -> int:
    vol, _ = load_volume(args.infile)
    _write_pgm(args.out, vol.slice_image(args.z, args.bin))
    log.info("wrote slice z=%d bin=%d -> %s", args.z, args.bin, args.out)
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "simulate": _cmd_simulate,
    "normalize": _cmd_normalize,
    "extract": _cmd_extract,
    "reconstruct": _cmd_reconstruct,
    "expand": _cmd_expand,
    "fhr": _cmd_route,
    "dhr": _cmd_route,
    "bench": _cmd_bench,
    "slice": _cmd_slice,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help (0) or usage error (1)
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s", stream=sys.stderr, force=True)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # ValidationError and malformed JSON/flags
        sys.stderr.write(f"hsnct {args.command}: error: {exc}\n")
        return 1
    except OSError as exc:  # missing files and ContainerError
        sys.stderr.write(f"hsnct {args.command}: error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
