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
from dataclasses import dataclass, replace

import numpy as np

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SpectralAxis,
    ValidationError,
    VolumeStack,
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

_SNR_ROWS = 4096  # voxels per block of snr_db: 8 MiB of float64 at 256 bins

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
    """Wall-clock and bookkeeping record of one pipeline run."""

    algorithm: str
    engine: str
    channels: int
    extract_s: float
    recon_s: float
    expand_s: float
    total_s: float
    epsilon_frac: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        for name in ("extract_s", "recon_s", "expand_s", "total_s"):
            require_nonneg(getattr(self, name), name)
        require_count(self.channels, "channels")
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ValidationError("snr_db must be finite when present")

    def fields(self, n_k: int) -> dict:
        """The fields that the CLI's ``--report`` JSON and a bench CSV row
        share; ``n_k`` is the wavelength-bin count of the input."""
        return {"algorithm": self.algorithm, "engine": self.engine,
                "n_k": n_k, "n_s": self.channels, "snr_db": self.snr_db,
                "extract_s": self.extract_s, "recon_s": self.recon_s,
                "expand_s": self.expand_s, "total_s": self.total_s}


def run_fhr(p: HyperspectralSinogram, cfg: PipelineConfig):
    """Fast route: extract -> reconstruct N_s channels -> expand.

    Returns (expanded VolumeStack, SpectralBasis, RunReport).  The input
    must be non-negative (normalize with clamping on) since the extraction
    stage factorizes it into non-negative parts.
    """
    if cfg.subspace is None:
        raise ValidationError("run_fhr needs NmfOptions in PipelineConfig.subspace")
    clock = time.perf_counter
    t_run = clock()

    t0 = clock()
    coeffs, basis, fact = nmf_factorize(p, cfg.subspace)
    t_extract = clock() - t0

    t0 = clock()
    x_s = reconstruct_stack(coeffs, p.geometry, cfg.recon_engine, cfg.recon,
                            threads=cfg.threads)
    t_recon = clock() - t0

    t0 = clock()
    x_h = expand(x_s, basis)
    t_expand = clock() - t0

    total = clock() - t_run
    report = RunReport("fhr", cfg.recon_engine, channels=coeffs.rank,
                       extract_s=t_extract, recon_s=t_recon, expand_s=t_expand,
                       total_s=total, epsilon_frac=float(fact.residual_energy))
    return x_h, basis, report


def run_dhr(p: HyperspectralSinogram, cfg: PipelineConfig):
    """Direct route: reconstruct every wavelength bin separately.

    Returns (VolumeStack, RunReport).  No spectral processing happens, so
    the extract and expand stages are zero by construction.
    """
    clock = time.perf_counter
    t_run = clock()
    t0 = clock()
    x_h = reconstruct_stack(p, p.geometry, cfg.recon_engine, cfg.recon,
                            threads=cfg.threads)
    t_recon = clock() - t0
    total = clock() - t_run
    return x_h, RunReport("dhr", cfg.recon_engine, channels=p.axis.num_bins,
                          extract_s=0.0, recon_s=t_recon, expand_s=0.0,
                          total_s=total)


def snr_db(recon: VolumeStack, reference: VolumeStack) -> float:
    """10*log10(|reference|^2 / |recon - reference|^2) over all voxels and
    channels, both sums accumulated in float64 over blocks of ``_SNR_ROWS``
    voxels.  An exact match has no finite SNR and is reported as an error
    rather than inf."""
    if recon.voxels.shape != reference.voxels.shape:
        raise ValidationError(
            f"shape mismatch: recon {recon.voxels.shape} vs "
            f"reference {reference.voxels.shape}")
    sig = noise = 0.0
    for start in range(0, reference.voxels.shape[0], _SNR_ROWS):
        rows = slice(start, start + _SNR_ROWS)
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
    rows = ({**fhr_rep.fields(axis.num_bins), "speedup": speedup},
            {**dhr_rep.fields(axis.num_bins), "speedup": 1.0})
    images = _comparison_slices(truth, fhr_vol, dhr_vol, axis)
    return BenchmarkResult(rows=rows, csv_text=_csv_text(rows),
                           fhr_report=fhr_rep, dhr_report=dhr_rep,
                           slice_images=images)
