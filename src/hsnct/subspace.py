"""Spectral subspace extraction and expansion.

The normalized sinogram p (rows are pixels, columns are wavelength bins) is
factorized as p ~= V D^T with V >= 0 holding per-pixel channel coefficients
and D >= 0 holding spectral basis vectors.  Reconstruction then runs on the
few V channels instead of every wavelength bin, and ``expand`` maps
reconstructed channel volumes back to the full spectral grid through the
same basis.

The factorization is Frobenius-norm NMF in two steps: passes that fit D on
a sample of the rows, then V on every row with D fixed.  All iteration
happens in float64, on the sample cast once, while the draw's row energies
and the V step's X D read p cast to float64 one block of rows at a time.

The sample is n = min(N_p, 8 N_k) distinct rows, drawn without replacement
with probability ||x_i||^2 / ||X||^2, the rule of length-squared sampling
(Frieze, Kannan & Vempala 2004), on the random stream
``default_rng((seed, 1))``, apart from the factor start's
``default_rng(seed)``.  The rows are not rescaled; D is N_k x r, and a few
N_k energetic rows pin it down.  Every row is fitted when n >= N_p, when
X = 0, when r = N_k, or when fewer than n rows carry energy.  Below, "X"
in the passes and in the certificate is that sample.

The passes are accelerated HALS (hierarchical alternating least squares;
Cichocki & Phan 2009, Gillis & Glineur 2012).  One pass, the "sweep" that
``max_iters``, ``objective_trace`` and perfbench's ``subspace.nmf.sweeps``
count, forms X D and runs several inner HALS sweeps over the columns of V,
then forms X^T V = (V^T X)^T and does the same for D (``_hals_update`` has
the inner loop and its stopping rule).  Every column update solves its
subproblem exactly, so each pass is monotone in the objective
||X - V D^T||_F^2.

The objective needs no third read of X per pass, because
<X, V D^T> = <X^T V, D>:

    ||X - V D^T||^2 = ||X||^2 - 2 <X^T V, D> + <V^T V, D^T D>

with the D of the update just made, in every pass.

A column that collapses to zero stays zero: its partner's HALS update sees
G_jj = 0 and sets it to zero too.  The packaging reports it in
``dead_columns``.

The passes stop on a certified gap.  With lambda_1 >= lambda_2 >= ... the
eigenvalues of X's Gram matrix (X^T X or X X^T, whichever is smaller),

    f_svd = max(||X||^2 - sum_{i<=r} lambda_i, 0)

is the objective of the best rank-r fit (Eckart-Young), so no rank-r NMF
can go below it, and f - f_svd bounds from above how much any further pass
could still gain.  A run stops once f - f_svd <= max(tau lambda_{r+1},
1e-15 ||X||^2): the gap is at most tau times the energy of one noise
direction, lambda_{r+1} (0 when r = min(N_p, N_k)), or the fit is exact to
rounding.  tau is ``NmfOptions.rel_tol``.  The Gram matrix costs one read
of the sample.

The V step then takes the basis as stored (unit-norm columns in float32)
and solves min ||X - V D^T|| over V >= 0 on all N_p rows: one r-row product
X D, a start max(X D (D^T D)^+, 0), and HALS sweeps with D fixed until one
moves V by at most 1e-4 of the first sweep's move.  The residual energy of
the returned factors follows from the same identity with ||X||^2 summed
from the row energies of the draw, with no further read of X.
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
    _require_finite,
    _row_blocks,
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
_FIT_ROWS_PER_BIN = 8  # the passes run on min(N_p, 8 N_k) rows drawn by energy
_V_SHARE = 1e-4  # the V step stops once a sweep moves V <= this share of the first
_V_SWEEPS = 500  # ... or after this many sweeps


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

    ``fit_rows`` is the number of rows the passes ran on (module
    docstring); ``objective_trace``, ``converged`` and ``gap`` cover those
    rows, and ``residual_energy`` covers every row.
    ``objective_trace[i]`` is ||X - V D^T||_F^2 after pass i+1, one HALS
    update of V then of D, each with its own inner sweeps; ``iterations_run``
    is its length.  ``residual_energy`` is ||p - V D^T||_F^2 / ||p||_F^2 of
    the returned factors (0 for an all-zero input).  ``converged`` says the
    run met the stopping rule within ``max_iters`` passes.  ``gap`` is the
    final (f - f_svd) / lambda_{r+1}, the quantity that ``rel_tol`` bounds,
    or 0 when lambda_{r+1} = 0; a run that stopped on the exact-fit floor
    may read above ``rel_tol`` when lambda_{r+1} is itself at rounding level.
    ``dead_columns`` lists columns whose basis vector collapsed to zero;
    each is packaged as an inert 1/sqrt(N_k) unit vector with zero
    coefficients.
    """

    objective_trace: np.ndarray
    residual_energy: float
    converged: bool
    gap: float
    fit_rows: int
    dead_columns: tuple = ()

    def __post_init__(self):
        trace = np.ascontiguousarray(self.objective_trace, dtype=np.float64)
        trace.flags.writeable = False
        object.__setattr__(self, "objective_trace", trace)
        msg = "objective_trace must be finite and >= 0"
        if _require_finite(trace, msg) < 0:
            raise ValidationError(msg)
        require_nonneg(self.residual_energy, "residual_energy")
        require_nonneg(self.gap, "gap")
        require_count(self.fit_rows, "fit_rows")

    @property
    def iterations_run(self) -> int:
        return self.objective_trace.size


def _init_factors(X, rank, seed):
    n_p, n_k = X.shape
    rng = np.random.default_rng(seed)
    mean = float(X.mean())
    scale = np.sqrt(mean / rank) if mean > 0 else 0.0
    # 1 - random() lies in (0, 1], keeping every entry strictly positive
    V = (1.0 - rng.random((n_p, rank))) * scale
    D = (1.0 - rng.random((n_k, rank))) * scale
    return V, D


def _hals_update(W, A, G, max_inner, share=_INNER_SHARE):
    """Inner HALS sweeps on W in place for min ||X - W H^T|| over W >= 0,
    given A = X H and G = H^T H: column j, in order, takes the step
    (a_j - W g_j) / G_jj, clamped at -w_j so that w_j stays >= 0.  Stops
    after ``max_inner`` sweeps, or once a sweep moves W by at most ``share``
    of the first sweep's move (Frobenius norm).  A column with G_jj = 0 (its
    partner column is all zero) has nothing to fit and is set to zero."""
    diag = np.diag(G).copy()
    live = diag > 0.0
    diag[~live] = 1.0
    A, G = A / diag, G / diag  # column j of both scaled by 1 / G_jj
    step, floor = np.empty(W.shape[0]), np.empty(W.shape[0])
    # the column views and buffers are made once: at a few hundred rows the
    # sweeps cost their numpy calls, not their arithmetic
    cols = [(W[:, j], A[:, j] if live[j] else None, G[:, j]) for j in range(W.shape[1])]
    first = None
    for _ in range(max_inner):
        move = 0.0
        for col, a, g in cols:
            if a is not None:
                np.dot(W, g, out=step)
                np.subtract(a, step, out=step)
                np.maximum(step, np.negative(col, out=floor), out=step)
            else:
                np.negative(col, out=step)
            move += float(step @ step)
            col += step
        if first is None:
            first = move
        if move <= share * share * first:
            break


def _objective(X2, XH, W, G1, G2):
    """||X - W H^T||_F^2 = max(X2 - 2 <X H, W> + <W^T W, H^T H>, 0) (module
    docstring): X2 = ||X||_F^2, XH = X H, and the two Grams in either order."""
    return max(X2 - 2.0 * float(np.einsum("ij,ij->", XH, W))
               + float(np.einsum("ij,ij->", G1, G2)), 0.0)


def _accelerated_hals(X, X2, V, D, opts, f_stop):
    """Run the passes on V and D in place, two reads of X per pass; ``X2`` is
    ||X||_F^2.  Stops after the first pass whose objective is <= ``f_stop``,
    or after ``opts.max_iters`` passes.  Returns (objective trace, converged);
    every objective comes from the pass's own X^T V."""
    n_p, n_k, r = *X.shape, opts.rank
    # inner-sweep caps floor(1 + alpha rho), rho being one plus the cost of a
    # factor's products with X and with itself in inner sweeps (Gillis & Glineur)
    cap_v = int(1 + _INNER_ALPHA * (1 + n_k * (n_p + r) / (n_p * (r + 1))))
    cap_d = int(1 + _INNER_ALPHA * (1 + n_p * (n_k + r) / (n_k * (r + 1))))

    trace = []
    converged = False
    for _ in range(opts.max_iters):
        # both products as r-row products, (D^T X^T)^T and (V^T X)^T, which
        # run faster than X D and X^T V and come out column-major
        _hals_update(V, (D.T @ X.T).T, D.T @ D, cap_v)
        XtV = (V.T @ X).T
        VtV = V.T @ V
        _hals_update(D, XtV, VtV, cap_d)
        f = _objective(X2, XtV, D, VtV, D.T @ D)
        trace.append(f)
        if f <= f_stop:
            converged = True
            break
    return trace, converged


def _fit_rows(X, rank, seed):
    """(sorted indices of the rows the passes run on, ||X||_F^2).

    n = min(N_p, ``_FIT_ROWS_PER_BIN`` N_k) distinct rows, drawn without
    replacement with probability e_i / ||X||^2, e_i = ||x_i||^2 (module
    docstring), on the stream ``default_rng((seed, 1))``.  Every row when
    n >= N_p, when rank = N_k (f_svd = 0, and a cone fitted on a sample
    need not hold the other rows) or when fewer than n rows carry energy,
    as when X is zero."""
    n_p, n_k = X.shape
    energy = np.concatenate([np.einsum("ij,ij->i", B, B) for B in _row_blocks(X)])
    X2 = float(energy.sum())
    n = min(n_p, _FIT_ROWS_PER_BIN * n_k)
    if n == n_p or rank == n_k or np.count_nonzero(energy) < n:
        return np.arange(n_p), X2
    rows = np.random.default_rng((seed, 1)).choice(n_p, n, replace=False, p=energy / X2)
    return np.sort(rows), X2


def _solve_coefficients(X, D):
    """(V, X D, D^T D) for V >= 0 minimizing ||X - V D^T||_F on every row
    with D fixed: HALS sweeps from max(X D (D^T D)^+, 0) until one moves V
    by at most ``_V_SHARE`` of the first sweep's move, or ``_V_SWEEPS``."""
    # the r-row products, as in the passes, kept column-major
    XD = np.asfortranarray(np.vstack([(D.T @ B.T).T for B in _row_blocks(X)]))
    G = D.T @ D
    V = np.asfortranarray(np.maximum(XD @ np.linalg.pinv(G), 0.0))
    _hals_update(V, XD, G, _V_SWEEPS, _V_SHARE)
    return V, XD, G


def nmf_factorize(p: HyperspectralSinogram, opts: NmfOptions):
    """Factorize p ~= V D^T; returns (SubspaceSinogram, SpectralBasis,
    FactorizationReport).

    The passes fit D on the rows of ``_fit_rows``; V then solves the
    non-negative least squares of every row against the stored (unit-norm,
    float32) D, and ``residual_energy`` is ||p - V D^T||^2 / ||p||^2 of the
    returned factors on every row.  Basis columns have unit L2 norm and are
    put in descending order of their coefficient column's L2 norm, equal
    norms keeping their factor order; the result is bit-reproducible for a
    fixed seed.
    """
    if float(p.values.min()) < 0:
        raise ValidationError("factorization input must be non-negative; "
                              "normalize with clamping first")
    n_p, n_k = p.values.shape
    if opts.rank > min(n_p, n_k):
        raise ValidationError(
            f"rank {opts.rank} exceeds min(N_p, N_k) = {min(n_p, n_k)}")

    rows, X2 = _fit_rows(p.values, opts.rank, opts.seed)
    S = (p.values if rows.size == n_p else p.values[rows]).astype(np.float64)
    # column-major factors: every HALS update reads and writes one column
    V, D = (np.asfortranarray(f) for f in _init_factors(S, opts.rank, opts.seed))
    gram = S.T @ S if S.shape[0] >= n_k else S @ S.T  # on S's shorter side
    S2, lam = float(np.trace(gram)), np.linalg.eigvalsh(gram)[::-1]
    f_svd = max(S2 - float(lam[:opts.rank].sum()), 0.0)
    lam_next = max(float(lam[opts.rank]), 0.0) if opts.rank < lam.size else 0.0
    zero_floor = S2 * 1e-15  # a gap below this is rounding: the fit is exact
    trace, converged = _accelerated_hals(
        S, S2, V, D, opts, f_svd + max(opts.rel_tol * lam_next, zero_floor))

    # the basis as stored: unit-norm float32 columns, the dead ones zero until
    # V is solved against it, then inert unit columns with zero coefficients
    norms = np.linalg.norm(D, axis=0)
    dead = norms <= 0
    D = (D / np.where(dead, 1.0, norms)).astype(np.float32).astype(np.float64)
    V, XD, G = _solve_coefficients(p.values, D)
    V = V.astype(np.float32).astype(np.float64)  # the coefficients as stored
    f = _objective(X2, XD, V, V.T @ V, G)
    D[:, dead] = 1.0 / np.sqrt(n_k)
    order = np.argsort(-np.linalg.norm(V, axis=0), kind="stable")
    V, D = V[:, order], D[:, order]

    report = FactorizationReport(
        objective_trace=np.asarray(trace),
        residual_energy=f / X2 if X2 > 0 else 0.0,
        converged=converged,
        gap=max(trace[-1] - f_svd, 0.0) / lam_next if lam_next > 0 else 0.0,
        fit_rows=rows.size,
        dead_columns=tuple(int(j) for j in np.flatnonzero(dead[order])),
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

    One float32 product, written straight into the result.  A 1-voxel
    volume goes through BLAS's matrix-vector kernel, whose bits may differ
    from the same row's in a larger product."""
    if x_s.num_channels != d.rank:
        raise ValidationError(
            f"volume has {x_s.num_channels} channels, basis rank is {d.rank}")
    voxels = np.empty((x_s.voxels.shape[0], d.basis.shape[0]), dtype=np.float32)
    np.matmul(x_s.voxels, d.basis.T, out=voxels)
    return VolumeStack(voxels, x_s.num_rows, x_s.num_cols, x_s.voxel_pitch)
