"""End-to-end reconstruction pipelines and the timing/SNR comparison.

Two routes from normalized projections to a hyperspectral volume:

  fast route   : factorize p ~= V D^T, reconstruct the N_s coefficient
                 channels, expand back to N_k bins (run_fhr)
  direct route : reconstruct every one of the N_k bins separately (run_dhr)

The direct route is the conventional baseline; the fast route does N_s
reconstructions instead of N_k, which is where essentially all of the
speedup comes from.  ``run_benchmark`` runs both on the same simulated scan
and renders the comparison as a CSV table.
"""

from __future__ import annotations

import io
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    ValidationError,
    VolumeStack,
    _BLOCK_ROWS,
    require_count,
    require_nonneg,
)
from hsnct.phantom import PhantomSpec, build_ground_truth, simulate_scan
from hsnct.preprocess import normalize
from hsnct.subspace import NmfOptions, expand, nmf_factorize
from hsnct.tomo import MbirOptions, reconstruct_stack, require_engine

__all__ = [
    "PipelineConfig",
    "RunReport",
    "BenchmarkResult",
    "run_fhr",
    "run_dhr",
    "snr_db",
    "run_benchmark",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("algorithm", "engine", "n_k", "n_s", "snr_db",
               "extract_s", "recon_s", "expand_s", "total_s", "speedup")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run.

    ``subspace`` configures fhr's extraction; run_dhr does not read it.
    ``recon`` holds the MbirOptions of the mbir engine, or None for its
    defaults; fbp (the ramp filter) takes no options.  Both routes hand
    ``recon`` to ``reconstruct_stack`` as it is, so fhr and dhr run the same
    reconstructor with the same settings.  ``threads`` is the worker budget
    handed to the slice reconstructions.
    """

    subspace: NmfOptions | None = None
    recon_engine: str = "fbp"
    recon: MbirOptions | None = None
    threads: int = 1

    def __post_init__(self):
        require_engine(self.recon_engine, self.recon)
        require_count(self.threads, "threads")


@dataclass(frozen=True)
class RunReport:
    """Wall-clock and bookkeeping record of one pipeline run.  Its fields are
    the keys of the CLI's ``--report`` JSON; a bench CSV row is the record
    plus ``speedup``, without ``epsilon_frac``.  ``n_k`` counts the input's
    bins, ``n_s`` the channels reconstructed; ``total_s`` sums the stages."""

    algorithm: str
    engine: str
    n_k: int
    n_s: int
    extract_s: float
    recon_s: float
    expand_s: float
    total_s: float
    epsilon_frac: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        for name in ("extract_s", "recon_s", "expand_s", "total_s"):
            require_nonneg(getattr(self, name), name)
        require_count(self.n_k, "n_k")
        require_count(self.n_s, "n_s")
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ValidationError("snr_db must be finite when present")


def _timed(stage, *args, **kwargs):
    """``(stage(*args, **kwargs), seconds)``: one stage and its wall time."""
    t0 = time.perf_counter()
    result = stage(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_fhr(p: HyperspectralSinogram, cfg: PipelineConfig):
    """Fast route: extract -> reconstruct N_s channels -> expand.

    Returns (expanded VolumeStack, SpectralBasis, RunReport).  The input
    must be non-negative (normalize with clamping on) since the extraction
    stage factorizes it into non-negative parts.
    """
    if cfg.subspace is None:
        raise ValidationError("run_fhr needs NmfOptions in PipelineConfig.subspace")
    (coeffs, basis, fact), t_extract = _timed(nmf_factorize, p, cfg.subspace)
    x_s, t_recon = _timed(reconstruct_stack, coeffs, p.geometry, cfg.recon_engine,
                          cfg.recon, threads=cfg.threads)
    x_h, t_expand = _timed(expand, x_s, basis)
    report = RunReport("fhr", cfg.recon_engine, n_k=p.num_bins, n_s=coeffs.rank,
                       extract_s=t_extract, recon_s=t_recon, expand_s=t_expand,
                       total_s=t_extract + t_recon + t_expand,
                       epsilon_frac=float(fact.residual_energy))
    return x_h, basis, report


def run_dhr(p: HyperspectralSinogram, cfg: PipelineConfig):
    """Direct route: reconstruct every wavelength bin separately.

    Returns (VolumeStack, RunReport).  No spectral processing happens, so
    the extract and expand stages are zero by construction.
    """
    x_h, t_recon = _timed(reconstruct_stack, p, p.geometry, cfg.recon_engine, cfg.recon,
                          threads=cfg.threads)
    return x_h, RunReport("dhr", cfg.recon_engine, n_k=p.num_bins, n_s=p.num_bins,
                          extract_s=0.0, recon_s=t_recon, expand_s=0.0, total_s=t_recon)


def snr_db(recon: VolumeStack, reference: VolumeStack) -> float:
    """10*log10(|reference|^2 / |recon - reference|^2) over all voxels and
    channels, both sums accumulated in float64 over blocks of ``_BLOCK_ROWS``
    voxels.  Both volumes must share their grid and channel count.  An exact
    match has no finite SNR and is reported as an error rather than inf."""
    # (slices, cols, channels) fixes the voxel array's shape too
    shapes = [(v.num_rows, v.num_cols, v.num_channels) for v in (recon, reference)]
    if shapes[0] != shapes[1]:
        raise ValidationError(f"shape mismatch: recon {shapes[0]} vs reference {shapes[1]} "
                              "(slices, cols, channels)")
    sig = noise = 0.0
    for start in range(0, reference.voxels.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        ref = reference.voxels[rows].astype(np.float64)
        err = recon.voxels[rows] - ref
        ref *= ref
        err *= err
        sig += float(ref.sum())
        noise += float(err.sum())
    if sig == 0.0:
        raise ValidationError("reference volume is all-zero")
    if noise == 0.0:
        raise ValidationError("reconstruction matches the reference exactly "
                              "(perfect, SNR unbounded)")
    return 10.0 * np.log10(sig / noise)


@dataclass(frozen=True)
class BenchmarkResult:
    """Comparison of both pipelines on one simulated scan."""

    rows: tuple[dict, ...]
    csv_text: str
    fhr_report: RunReport
    dhr_report: RunReport
    slice_images: dict


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6f}"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def _comparison_slices(truth, fhr_vol, dhr_vol, axis) -> dict:
    """Middle-slice images at a pre-edge and a post-edge wavelength."""
    z = truth.num_rows // 2
    lam = axis.wavelength_centers
    picks = {"pre": int(np.argmin(np.abs(lam - lam[0] - 0.12 * (lam[-1] - lam[0])))),
             "post": int(np.argmin(np.abs(lam - lam[0] - 0.85 * (lam[-1] - lam[0]))))}
    images = {}
    for tag, k in picks.items():
        for name, vol in (("truth", truth), ("fhr", fhr_vol), ("dhr", dhr_vol)):
            images[f"{name}_z{z:02d}_k{k:03d}_{tag}"] = vol.slice_image(z, k)
    return images


def run_benchmark(spec: PhantomSpec, axis: SpectralAxis, geom: ScanGeometry,
                  cfg: PipelineConfig) -> BenchmarkResult:
    """Run both pipelines with the one ``cfg`` on one simulated noisy scan of
    the phantom; SNR is measured against the ground truth."""
    truth = build_ground_truth(spec, axis)
    scan = simulate_scan(truth, geom, axis, spec.flux, spec.seed)
    p = normalize(scan)

    fhr_vol, _, fhr_rep = run_fhr(p, cfg)
    dhr_vol, dhr_rep = run_dhr(p, cfg)
    fhr_rep = replace(fhr_rep, snr_db=snr_db(fhr_vol, truth))
    dhr_rep = replace(dhr_rep, snr_db=snr_db(dhr_vol, truth))

    speedup = dhr_rep.total_s / fhr_rep.total_s
    rows = ({**asdict(fhr_rep), "speedup": speedup}, {**asdict(dhr_rep), "speedup": 1.0})
    images = _comparison_slices(truth, fhr_vol, dhr_vol, axis)
    return BenchmarkResult(rows=rows, csv_text=_csv_text(rows),
                           fhr_report=fhr_rep, dhr_report=dhr_rep,
                           slice_images=images)
