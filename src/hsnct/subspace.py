"""Spectral subspace extraction and expansion.

The normalized sinogram p (rows are pixels, columns are wavelength bins) is
factorized as p ~= V D^T with V >= 0 holding per-pixel channel coefficients
and D >= 0 holding spectral basis vectors.  Reconstruction then runs on the
few V channels instead of every wavelength bin, and ``expand`` maps
reconstructed channel volumes back to the full spectral grid through the
same basis.

The factorization is Frobenius-norm NMF solved by accelerated HALS
(hierarchical alternating least squares; Cichocki & Phan 2009, Gillis &
Glineur 2012).  One pass, the "sweep" that ``max_iters``,
``objective_trace`` and perfbench's ``subspace.nmf.sweeps`` count, forms
X D and runs several inner HALS sweeps over the columns of V, then forms
X^T V = (V^T X)^T and does the same for D (``_hals_update`` has the inner
loop and its stopping rule).  Every column update solves its subproblem
exactly, so each pass is monotone in the objective ||X - V D^T||_F^2.
All iteration happens in float64.

The objective needs no third read of X per pass, because
<X, V D^T> = <X^T V, D>:

    ||X - V D^T||^2 = ||X||^2 - 2 <X^T V, D> + <V^T V, D^T D>

with the D of the update just made.  A pass that revives a collapsed
column changes V and D after X^T V was formed, so it takes the objective
from a fresh pass over X instead.

The passes stop on a certified gap.  With lambda_1 >= lambda_2 >= ... the
eigenvalues of X's Gram matrix (X^T X or X X^T, whichever is smaller),

    f_svd = max(||X||^2 - sum_{i<=r} lambda_i, 0)

is the objective of the best rank-r fit (Eckart-Young), so no rank-r NMF
can go below it, and f - f_svd bounds from above how much any further pass
could still gain.  A run stops once f - f_svd <= max(tau lambda_{r+1},
1e-15 ||X||^2): the gap is at most tau times the energy of one noise
direction, lambda_{r+1} (0 when r = min(N_p, N_k)), or the fit is exact to
rounding.  tau is ``NmfOptions.rel_tol``.  The Gram matrix costs one read
of X, the read that ||X||^2, its trace, needs anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hsnct.containers import (
    HyperspectralSinogram,
    SpectralBasis,
    SubspaceSinogram,
    ValidationError,
    VolumeStack,
    require_count,
    require_nonneg,
    require_nonneg_int,
    require_positive,
)

__all__ = [
    "NmfOptions",
    "FactorizationReport",
    "nmf_factorize",
    "subspace_residual",
    "expand",
]

_INNER_ALPHA = 0.5  # inner sweeps per factor and pass <= floor(1 + alpha rho)
_INNER_SHARE = 0.01  # stop once a sweep moves the factor <= this share of the first
_EXPAND_ROWS = 4096  # voxels per block of expand: 8 MiB of float64 at 256 bins


@dataclass(frozen=True)
class NmfOptions:
    """``rank`` basis columns from a start drawn at ``seed``; at most
    ``max_iters`` passes, stopping once the objective is within ``rel_tol``
    (tau) times lambda_{r+1} of the best rank-r fit's (module docstring)."""

    rank: int
    seed: int
    max_iters: int = 500
    rel_tol: float = 0.1

    def __post_init__(self):
        require_count(self.rank, "rank")
        require_nonneg_int(self.seed, "seed")
        require_count(self.max_iters, "max_iters")
        require_positive(self.rel_tol, "rel_tol")


@dataclass(frozen=True)
class FactorizationReport:
    """Convergence record of one factorization run.

    ``objective_trace[i]`` is ||X - V D^T||_F^2 after pass i+1, one HALS
    update of V then of D, each with its own inner sweeps; ``iterations_run``
    is its length.  ``residual_energy`` is the final objective over
    ||X||_F^2 (0 for an all-zero input).  ``converged`` says the run met
    the stopping rule within ``max_iters`` passes.  ``gap`` is the final
    (f - f_svd) / lambda_{r+1}, the quantity that ``rel_tol`` bounds, or 0
    when lambda_{r+1} = 0; a run that stopped on the exact-fit floor may
    read above ``rel_tol`` when lambda_{r+1} is itself at rounding level.
    ``reseeded_columns`` lists columns revived once from the residual after
    collapsing to zero; ``dead_columns`` lists columns that collapsed twice
    and were packaged as an inert unit vector with zero coefficients.
    """

    objective_trace: np.ndarray
    residual_energy: float
    converged: bool
    gap: float
    reseeded_columns: tuple = ()
    dead_columns: tuple = ()

    def __post_init__(self):
        trace = np.ascontiguousarray(self.objective_trace, dtype=np.float64)
        trace.flags.writeable = False
        object.__setattr__(self, "objective_trace", trace)
        if trace.size and (not np.all(np.isfinite(trace)) or float(trace.min()) < 0):
            raise ValidationError("objective_trace must be finite and >= 0")
        require_nonneg(self.residual_energy, "residual_energy")
        require_nonneg(self.gap, "gap")

    @property
    def iterations_run(self) -> int:
        return self.objective_trace.size


def _init_factors(X, rank, seed):
    n_p, n_k = X.shape
    rng = np.random.default_rng(seed)
    mean = float(X.mean()) if X.size else 0.0
    scale = np.sqrt(mean / rank) if mean > 0 else 0.0
    # 1 - random() lies in (0, 1], keeping every entry strictly positive
    V = (1.0 - rng.random((n_p, rank))) * scale
    D = (1.0 - rng.random((n_k, rank))) * scale
    return V, D


def _revive_dead_columns(X, V, D, reseeded, dead):
    """Re-seed columns of D that collapsed to zero from the largest-residual
    spectrum; a column that collapses twice is retired to ``dead``.  The
    re-seed uses the per-row least-squares optimal coefficient, so the
    objective cannot increase.  Returns whether any column was changed."""
    collapsed = [j for j in np.flatnonzero(D.max(axis=0) <= 0.0) if j not in dead]
    R = None
    for j in collapsed:
        if j in reseeded:
            dead.add(int(j))
            V[:, j] = 0.0
            continue
        if R is None:
            R = X - V @ D.T
            row_energy = np.einsum("ij,ij->i", R, R)
        d_new = np.abs(R[int(np.argmax(row_energy))])
        if d_new.max() <= 0.0:
            dead.add(int(j))
            V[:, j] = 0.0
            continue
        d_new /= np.linalg.norm(d_new)
        D[:, j] = d_new
        V[:, j] = np.maximum(R @ d_new, 0.0)
        reseeded.add(int(j))
    return bool(collapsed)


def _hals_update(W, A, G, max_inner):
    """Inner HALS sweeps on W in place for min ||X - W H^T|| over W >= 0,
    given A = X H and G = H^T H: column j, in order, takes the step
    (a_j - W g_j) / G_jj, clamped at -w_j so that w_j stays >= 0.  Stops
    after ``max_inner`` sweeps, or once a sweep moves W by at most
    ``_INNER_SHARE`` of the first sweep's move (Frobenius norm).  A column
    with G_jj = 0 (its partner column is all zero) has nothing to fit and
    is set to zero."""
    diag = np.diag(G).copy()
    live = diag > 0.0
    diag[~live] = 1.0
    A, G = A / diag, G / diag  # column j of both scaled by 1 / G_jj
    step = np.empty(W.shape[0])
    first = None
    for _ in range(max_inner):
        move = 0.0
        for j in range(W.shape[1]):
            col = W[:, j]
            if live[j]:
                np.dot(W, G[:, j], out=step)
                np.subtract(A[:, j], step, out=step)
                np.maximum(step, -col, out=step)
            else:
                np.negative(col, out=step)
            move += float(step @ step)
            col += step
        if first is None:
            first = move
        if move <= _INNER_SHARE * _INNER_SHARE * first:
            break


def _accelerated_hals(X, X2, V, D, opts, f_stop):
    """Run the passes on V and D in place, two reads of X per pass; ``X2`` is
    ||X||_F^2.  Stops after the first pass whose objective is <= ``f_stop``,
    or after ``opts.max_iters`` passes.  Returns (objective trace, converged,
    reseeded columns, dead columns)."""
    n_p, n_k, r = *X.shape, opts.rank
    # inner-sweep caps floor(1 + alpha rho), rho being one plus the cost of a
    # factor's products with X and with itself in inner sweeps (Gillis & Glineur)
    cap_v = int(1 + _INNER_ALPHA * (1 + n_k * (n_p + r) / (n_p * (r + 1))))
    cap_d = int(1 + _INNER_ALPHA * (1 + n_p * (n_k + r) / (n_k * (r + 1))))
    reseeded: set = set()
    dead: set = set()

    trace = []
    converged = False
    for _ in range(opts.max_iters):
        # both products as r-row products, (D^T X^T)^T and (V^T X)^T, which
        # run faster than X D and X^T V and come out column-major
        _hals_update(V, (D.T @ X.T).T, D.T @ D, cap_v)
        XtV = (V.T @ X).T
        VtV = V.T @ V
        _hals_update(D, XtV, VtV, cap_d)
        if _revive_dead_columns(X, V, D, reseeded, dead):
            XtV, VtV = (V.T @ X).T, V.T @ V  # the ones above predate the revival
        # ||X - V D^T||_F^2 without forming the product, clamped at 0
        f = max(X2 - 2.0 * float(np.einsum("ij,ij->", XtV, D))
                + float(np.einsum("ij,ij->", VtV, D.T @ D)), 0.0)
        trace.append(f)
        if f <= f_stop:
            converged = True
            break
    return trace, converged, reseeded, dead


def nmf_factorize(p: HyperspectralSinogram, opts: NmfOptions):
    """Factorize p ~= V D^T; returns (SubspaceSinogram, SpectralBasis,
    FactorizationReport).

    Basis columns are normalized to unit L2 norm (coefficients absorb the
    scale) and put in descending order of their coefficient column's L2
    norm, equal norms keeping their factor order; the result is
    bit-reproducible for a fixed seed.
    """
    X = p.values.astype(np.float64)
    if X.size and float(X.min()) < 0:
        raise ValidationError("factorization input must be non-negative; "
                              "normalize with clamping first")
    n_p, n_k = X.shape
    if opts.rank > min(n_p, n_k):
        raise ValidationError(
            f"rank {opts.rank} exceeds min(N_p, N_k) = {min(n_p, n_k)}")

    # column-major factors: every HALS update reads and writes one column
    V, D = (np.asfortranarray(f) for f in _init_factors(X, opts.rank, opts.seed))
    gram = X.T @ X if n_p >= n_k else X @ X.T  # on X's shorter side
    X2, lam = float(np.trace(gram)), np.linalg.eigvalsh(gram)[::-1]
    f_svd = max(X2 - float(lam[:opts.rank].sum()), 0.0)
    lam_next = max(float(lam[opts.rank]), 0.0) if opts.rank < lam.size else 0.0
    zero_floor = X2 * 1e-15  # a gap below this is rounding: the fit is exact
    trace, converged, reseeded, dead = _accelerated_hals(
        X, X2, V, D, opts, f_svd + max(opts.rel_tol * lam_next, zero_floor))

    # package: inert unit columns for the dead ones, unit-norm basis columns
    # elsewhere, descending coefficient norm everywhere
    norms = np.linalg.norm(D, axis=0)
    for j in range(opts.rank):
        if j in dead or norms[j] <= 0:
            dead.add(j)
            D[:, j] = 1.0 / np.sqrt(n_k)
            V[:, j] = 0.0
        else:
            V[:, j] *= norms[j]
            D[:, j] /= norms[j]
    order = np.argsort(-np.linalg.norm(V, axis=0), kind="stable")
    V, D = V[:, order], D[:, order]
    remap = {int(old): new for new, old in enumerate(order)}

    report = FactorizationReport(
        objective_trace=np.asarray(trace),
        residual_energy=(trace[-1] / X2) if X2 > 0 else 0.0,
        converged=converged,
        gap=max(trace[-1] - f_svd, 0.0) / lam_next if lam_next > 0 else 0.0,
        reseeded_columns=tuple(sorted(remap[j] for j in reseeded)),
        dead_columns=tuple(sorted(remap[j] for j in dead)),
    )
    return SubspaceSinogram(V, p.geometry), SpectralBasis(D, p.axis), report


def subspace_residual(p: HyperspectralSinogram, v: SubspaceSinogram, d: SpectralBasis):
    """Residual p - V D^T (float64 array) and its relative Frobenius energy."""
    if v.coeffs.shape[0] != p.values.shape[0]:
        raise ValidationError(
            f"coefficient rows {v.coeffs.shape[0]} != sinogram rows {p.values.shape[0]}")
    if d.basis.shape[0] != p.axis.num_bins:
        raise ValidationError(
            f"basis bins {d.basis.shape[0]} != sinogram bins {p.axis.num_bins}")
    if v.rank != d.rank:
        raise ValidationError(f"coefficient rank {v.rank} != basis rank {d.rank}")
    X = p.values.astype(np.float64)
    R = X - v.coeffs.astype(np.float64) @ d.basis.astype(np.float64).T
    X2 = float(np.einsum("ij,ij->", X, X))
    R2 = float(np.einsum("ij,ij->", R, R))
    if X2 > 0:
        eps_frac = R2 / X2
    else:
        eps_frac = 0.0 if R2 == 0.0 else np.inf
    return R, eps_frac


def expand(x_s: VolumeStack, d: SpectralBasis) -> VolumeStack:
    """Per-voxel channel-to-spectrum map x_h = x_s D^T; pure linear, no clamp.

    Computed in float64 over blocks of ``_EXPAND_ROWS`` voxels, each written
    straight into the float32 result."""
    if x_s.num_channels != d.rank:
        raise ValidationError(
            f"volume has {x_s.num_channels} channels, basis rank is {d.rank}")
    dt = d.basis.astype(np.float64).T
    voxels = np.empty((x_s.voxels.shape[0], dt.shape[1]), dtype=np.float32)
    for start in range(0, voxels.shape[0], _EXPAND_ROWS):
        rows = slice(start, start + _EXPAND_ROWS)
        voxels[rows] = x_s.voxels[rows].astype(np.float64) @ dt
    return VolumeStack(voxels, x_s.num_rows, x_s.num_cols, x_s.voxel_pitch)
