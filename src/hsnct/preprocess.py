"""Raw counts to normalized attenuation projections.

The measured quantity is a count image per wavelength bin; the reconstructor
wants line integrals.  ``normalize`` forms

    p[v,r,c,k] = -log( max(y[v,r,c,k], eps) / max(y_open[r,c,k], eps) )

with a count floor ``eps`` on both numerator and denominator so zero counts
stay finite.  Negative attenuation (noise pushing y above the open beam) is
clamped to zero by default since the downstream factorization needs
non-negative input; pass ``clamp_negative=False`` to keep raw values for
per-bin-only reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hsnct.containers import (
    HyperspectralSinogram,
    RawScan,
    ValidationError,
    tof_to_wavelength,
)

__all__ = ["NormalizationOptions", "tof_to_wavelength", "normalize"]


@dataclass(frozen=True)
class NormalizationOptions:
    count_floor: float = 0.5
    clamp_negative: bool = True

    def __post_init__(self):
        if not (self.count_floor > 0):
            raise ValidationError("count_floor must be > 0")


def normalize(scan: RawScan, opts: NormalizationOptions | None = None) -> HyperspectralSinogram:
    """Open-beam normalization of a raw scan, flattened to [N_p, N_k]."""
    if opts is None:
        opts = NormalizationOptions()
    eps = np.float64(opts.count_floor)
    y = np.maximum(scan.counts.astype(np.float64), eps)
    y0 = np.maximum(scan.open_beam.astype(np.float64), eps)
    p = -np.log(y / y0[None, :, :, :])
    if opts.clamp_negative:
        np.maximum(p, 0.0, out=p)
    n_p = scan.geometry.num_views * scan.geometry.num_rows * scan.geometry.num_cols
    return HyperspectralSinogram(p.reshape(n_p, scan.axis.num_bins),
                                 scan.geometry, scan.axis)
