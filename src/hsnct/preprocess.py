"""Raw counts to normalized attenuation projections.

The measured quantity is a count image per wavelength bin; the reconstructor
wants line integrals.  ``normalize`` forms

    p[v,r,c,k] = -log( max(y[v,r,c,k], eps) / max(y_open[r,c,k], eps) )

with a fixed count floor eps = 0.5 counts (``_COUNT_FLOOR``) on both
numerator and denominator, so zero counts stay finite.  Negative
attenuation (noise pushing y above the open beam) is clamped to zero by
default since the downstream factorization needs non-negative input; pass
``clamp_negative=False`` to keep raw values for per-bin-only reconstruction.

``normalize`` works one view at a time, in float64, and writes straight
into its float32 output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hsnct.containers import HyperspectralSinogram, RawScan, tof_to_wavelength

__all__ = ["NormalizationOptions", "tof_to_wavelength", "normalize"]

_COUNT_FLOOR = 0.5  # counts: half of the smallest nonzero count


@dataclass(frozen=True)
class NormalizationOptions:
    clamp_negative: bool = True


def normalize(scan: RawScan,
              opts: NormalizationOptions = NormalizationOptions()) -> HyperspectralSinogram:
    """Open-beam normalization of a raw scan, flattened to [N_p, N_k]."""
    eps = np.float64(_COUNT_FLOOR)
    y0 = np.maximum(scan.open_beam.astype(np.float64), eps)
    p = np.empty(scan.counts.shape, dtype=np.float32)
    for v, counts in enumerate(scan.counts):
        # -log(max(y, eps) / y0), one view in float64, in place
        q = counts.astype(np.float64)
        np.maximum(q, eps, out=q)
        q /= y0
        np.log(q, out=q)
        np.negative(q, out=q)
        if opts.clamp_negative:
            np.maximum(q, 0.0, out=q)
        p[v] = q
    return HyperspectralSinogram(p.reshape(-1, scan.axis.num_bins), scan.geometry, scan.axis)
