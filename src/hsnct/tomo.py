"""Parallel-beam 2D slice tomography.

One detector row of a parallel-beam scan is an independent 2D problem, so
everything here works on square slices.  The projector is pixel-driven: a
pixel at centered coordinates (u_a, u_b) meets the detector at

    t = u_a*cos(theta) + u_b*sin(theta)

and splats its value onto the two nearest detector bins with linear
interpolation weights.  At angle 0 the rays run along the image column
axis, so the detector coordinate equals the row coordinate.  The system
matrix A holds these weights times the pixel pitch, so A x is a line
integral (value * length), matching the chord length of a shape rather
than a bare pixel count.  One matrix is kept per geometry: A^T as float32
CSR, its weights formed in float64 and rounded once.  ``_operators``
returns it, and every product uses it or its CSC view as A: FBP, MBIR,
``project_volume``, and the public ``forward_project`` / ``back_project``
pair, which computes in float64 on those weights, an exact adjoint pair.

Reconstructors:

* ``fbp_reconstruct``: ramp filtering per view (the bare ramp, no window)
  as a product with a cached float32 Toeplitz matrix, the kernel of the
  FFT ramp on rows zero-padded to twice the detector width or more,
  backprojection with the float32 A^T, and a pi/(num_angles*pitch^2) scale
  so a density-1 disk comes back at value ~1.  It filters the container
  block in place, 16 channels per product, and backprojects the block with
  one product (``_fbp_batch``).
* ``mbir_reconstruct``: minimizes 0.5*||W^(1/2)(Ax - y)||^2 + beta*R(x)
  over x >= 0 with W = diag(exp(-y)), where R sums kappa*rho(x_a - x_b)
  over 8-neighbor pairs (each unordered pair once, kappa 1, or 1/sqrt(2)
  on diagonals) with rho quadratic or Huber.  Both priors are products
  with one sparse pair-difference operator P (row p of P x is x_a - x_b).
  The quadratic prior is 0.5*x^T L x with L = P^T diag(kappa) P, so its
  gradient is one product L x.  Huber's value is kappa . rho(P x) and its
  gradient P^T (kappa clip(P x, +-delta)), with delta taken per column from
  its start x0: 1.345 (Huber's 95 %-efficiency constant) times 1.4826
  median |P x0| (the MAD scale of the start's neighbor differences), or
  inf, the quadratic prior, where that median is 0.  As Huber's rho'' <= 1,
  the quadratic's, both priors take the constant curvature 2*diag(L) in
  the solver's diagonally-majorized (separable quadratic surrogate) steps,
  projected onto x >= 0 from ``_mbir_start``'s image and accelerated by
  per-channel optimized-gradient (OGM) momentum with two adaptive restarts;
  ``_sqs_solve`` states the iteration, the restarts and each iteration's products.

Both run through one driver, ``_reconstruct_columns``, which reads slice
sinograms in the container layout (angles, slices, bins, C) and writes
images in the volume layout (slices, n^2, C).  It alone decides the blocks
of independent (slice, channel) columns and the workers that run them (its
docstring states the plan), the MBIR start and the one weight rule W =
exp(-y).  ``_map`` runs the blocks, and the simulator's row draws: in the
caller's thread at one worker, else on a thread pool.

One precision rule: the sparse projector products run in float32, the
precision of the container payloads, with the cached A^T and its CSC view
as A; the solver state runs in float64.  FBP, one linear pass, is wholly
float32, its ramp filter included.  MBIR starts from that float32 FBP cast
to float64, and its iterate, residual, curvature, objective sums and prior
products stay float64, so rounding does not build up over its iterations;
``project_volume`` casts its float32 products to float64.  The driver
writes images in its input's precision: float32 container blocks give
float32 volumes, and float64 single slices give float64 images.  Each step
gives a column the same bits at any batch width: FBP's filter runs on
16-channel chunks, zero-padded up to 16, whatever the block's width.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SubspaceSinogram,
    ValidationError,
    VolumeStack,
    _require_finite,
    geometry_header,
    require_count,
    require_nonneg,
    require_positive,
    require_view_angles,
)

__all__ = [
    "SliceGeometry",
    "MbirOptions",
    "forward_project",
    "back_project",
    "fbp_reconstruct",
    "mbir_reconstruct",
    "project_volume",
    "reconstruct_stack",
    "require_engine",
    "slice_geometry_for",
]

_PRIORS = ("quadratic-difference", "huber")
_ENGINES = ("fbp", "mbir")
# columns per MBIR part: the float32 sparse products cost ~2-4x more per
# column at 4 columns than at 16-256, and the solver runs ~5-20 % slower per
# column at 256 than at 64 (one desk slice)
_BATCH_COLUMNS = 64
# channels per FBP filter product: one product shape at any block width
_FBP_CHUNK = 16

_ISQ2 = 1.0 / np.sqrt(2.0)
# forward offsets (drow, dcol, weight) covering each unordered neighbor pair once
_DIRS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, _ISQ2), (1, -1, _ISQ2))


@dataclass(frozen=True)
class SliceGeometry:
    """2D acquisition for one slice: view angles in [0, pi) and the detector
    width.  The image is the square grid as wide as the detector, sharing
    its pixel pitch, as every slice of a VolumeStack is N_c x N_c; the
    angle count and the image size are derived from the fields."""

    angles: np.ndarray
    num_detector_bins: int
    pixel_pitch: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "angles", require_view_angles(self.angles))
        require_count(self.num_detector_bins, "num_detector_bins")
        require_positive(self.pixel_pitch, "pixel_pitch")

    @property
    def num_angles(self) -> int:
        return self.angles.size

    @property
    def image_size(self) -> int:
        return self.num_detector_bins


@dataclass(frozen=True)
class MbirOptions:
    """MBIR settings; Huber's delta comes from each column's start (module docstring)."""

    prior: str = "quadratic-difference"
    regularization_weight: float = 1.0
    max_iters: int = 100
    rel_tol: float = 1e-5

    def __post_init__(self):
        if self.prior not in _PRIORS:
            raise ValidationError(f"prior must be one of {_PRIORS}, got {self.prior!r}")
        require_nonneg(self.regularization_weight, "regularization_weight")
        require_count(self.max_iters, "max_iters")
        require_positive(self.rel_tol, "rel_tol")


def require_engine(engine: str, opts) -> MbirOptions | None:
    """The options ``engine`` runs: None for fbp, ``opts`` or MbirOptions() for
    mbir.  Raises ValidationError unless ``engine`` is known and ``opts`` suits it."""
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if opts is not None and engine == "fbp":
        *names, last = (f.name for f in fields(MbirOptions))
        raise ValidationError(f"fbp takes no options: {', '.join(names)} and {last} "
                              "are mbir settings")
    if opts is not None and not isinstance(opts, MbirOptions):
        raise ValidationError("options only apply to the mbir engine, as MbirOptions")
    return None if engine == "fbp" else opts or MbirOptions()


def slice_geometry_for(geom: ScanGeometry) -> SliceGeometry:
    """The 2D geometry shared by every detector row of a parallel-beam scan."""
    return SliceGeometry(geom.view_angles, geom.num_cols, geom.pixel_pitch)


def project_volume(volume: VolumeStack, geom: ScanGeometry) -> np.ndarray:
    """Noiseless line integrals of every (slice, channel) pair.

    Returns float64 coefficients shaped [N_p, C] in the sinogram layout
    (view, row, col row-major), so the result aligns bin-for-bin with
    HyperspectralSinogram/SubspaceSinogram values: ``_project``'s float32
    products cast into float64.
    """
    return _project(volume, geom, np.float64).reshape(-1, volume.num_channels)


def _project(volume: VolumeStack, geom: ScanGeometry, dtype) -> np.ndarray:
    """The line integrals of ``volume`` under ``geom`` as a ``dtype`` array
    (N_v, N_r, N_c, C), after checking the volume against the geometry:
    detector row r is the float32 product of A with the float32 slice r,
    cast as it is assigned."""
    if not isinstance(volume, VolumeStack):
        raise ValidationError(f"expected a VolumeStack, got {type(volume).__name__}")
    if volume.num_rows != geom.num_rows or volume.num_cols != geom.num_cols:
        raise ValidationError(
            f"volume grid ({volume.num_rows} slices of {volume.num_cols}^2) does "
            f"not match geometry ({geom.num_rows} rows, {geom.num_cols} cols)")
    n_v, n_r, n_c, n2 = geom.num_views, geom.num_rows, geom.num_cols, geom.num_cols ** 2
    A = _operators(slice_geometry_for(geom)).T
    out = np.empty((n_v, n_r, n_c, volume.num_channels), dtype)
    for r in range(n_r):
        out[:, r] = (A @ volume.voxels[r * n2:(r + 1) * n2]).reshape(n_v, n_c, -1)
    return out


def _operators(geom: SliceGeometry) -> sp.csr_matrix:
    """A^T, the transpose of the length-scaled system matrix A
    ((num_angles*num_detector_bins) x num_detector_bins^2: splat weights
    times the pixel pitch), as one float32 CSR matrix: FBP's backprojector,
    and the operator of MBIR, the simulator and the public pair both ways
    (its CSC view is A).

    Cached per geometry (the angles enter the key as bytes, since an
    ndarray does not hash).
    """
    return _splat_matrix(geom.angles.tobytes(), geom.num_detector_bins, geom.pixel_pitch)


# geometries are tiny and few per process
@functools.lru_cache(maxsize=8)
def _splat_matrix(angle_bytes: bytes, nd: int, pitch: float) -> sp.csr_matrix:
    angles = np.frombuffer(angle_bytes)
    n = nd  # the image is as wide as the detector
    half = 0.5 * (n - 1)
    u = (np.arange(n) - half) * pitch
    ua = np.repeat(u, n)      # row coordinate per flattened pixel
    ub = np.tile(u, n)        # col coordinate per flattened pixel
    pix = np.arange(n * n)
    rows, cols, vals = [], [], []
    for i, theta in enumerate(angles):
        t = ua * np.cos(theta) + ub * np.sin(theta)
        g = t / pitch + 0.5 * (nd - 1)
        i0 = np.floor(g).astype(np.int64)
        frac = g - i0
        for bins, w in ((i0, 1.0 - frac), (i0 + 1, frac)):
            ok = (bins >= 0) & (bins < nd) & (w > 0)
            rows.append(i * nd + bins[ok])
            cols.append(pix[ok])
            vals.append(w[ok] * pitch)
    # the weights are formed in float64 and rounded once to float32
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(cols), np.concatenate(rows))),
        shape=(n * n, angles.size * nd), dtype=np.float64).tocsr().astype(np.float32)


def _slice_input(values, geom: SliceGeometry, image: bool = False) -> np.ndarray:
    """A single-slice image (``image=True``) or sinogram as float64, after
    checking its shape against ``geom`` and that every entry is finite."""
    name = "image" if image else "sinogram"
    shape = ((geom.image_size, geom.image_size) if image
             else (geom.num_angles, geom.num_detector_bins))
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValidationError(f"{name} shape {values.shape} != {shape}")
    _require_finite(values, f"{name} must be finite")
    return values


def forward_project(image: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Line integrals of a square slice: (num_angles, num_detector_bins)."""
    image = _slice_input(image, geom, image=True)
    sino = _operators(geom).T @ image.ravel()
    return sino.reshape(geom.num_angles, geom.num_detector_bins)


def back_project(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Exact transpose of forward_project."""
    sino = _slice_input(sino, geom)
    img = _operators(geom) @ sino.ravel()
    return img.reshape(geom.image_size, geom.image_size)


# geometries are few per process, each holds two matrices (the bare ramp and
# the Hann-windowed one), and F is nd^2 float32 values
@functools.lru_cache(maxsize=16)
def _ramp_matrix(nd: int, num_angles: int, pitch: float, hann: bool = False) -> np.ndarray:
    """The float32 ramp filter of an nd-bin view as a read-only symmetric
    Toeplitz matrix F[i, j] = h[|i - j|], cached per (nd, angle count,
    pitch, window): F @ y filters a view y (bins, columns) as the zero-padded
    FFT ramp does.

    Padding to n_pad >= 2 nd makes the FFT's circular convolution a linear
    one, and the real, even spectrum makes its kernel h symmetric.  Filtered
    values are in cycles-per-sample units and A^T carries one pitch factor,
    so the physical units fold into one 1/pitch^2 scale together with the
    angular quadrature weight, riding on the ramp |f| (cycles per sample,
    0 .. 0.5).  ``hann`` multiplies the ramp by the Hann window
    (1 + cos(2 pi f)) / 2, which is 1 at f = 0, so densities keep their
    scale, and 0 at Nyquist (``_mbir_start``).
    """
    n_pad = 1 << max(int(np.ceil(np.log2(2 * nd))), 1)
    f = np.fft.rfftfreq(n_pad)
    ramp = f * (0.5 * (1.0 + np.cos(2.0 * np.pi * f))) if hann else f
    h = np.fft.irfft(ramp * (np.pi / (num_angles * pitch ** 2)), n_pad)
    i = np.arange(nd)
    F = h[np.abs(i[:, None] - i)].astype(np.float32)
    F.flags.writeable = False
    return F


def _fbp_batch(block: np.ndarray, geom: SliceGeometry, hann: bool = False) -> np.ndarray:
    """FBP of a container block (angles, slices, bins, channels), in float32:
    images (n^2, slices * channels) in (slice, channel) order.

    Each (angle, slice) view is filtered in place, ``_FBP_CHUNK`` channels
    per product F @ v with ``_ramp_matrix``'s symmetric F (Hann-windowed if
    ``hann``), into a float32 (angles, bins, slices, channels) buffer, A^T's
    ray-major operand for one backprojection.  A block that is not float32,
    or not a multiple of 16 channels wide, is first copied once, zero-padded,
    and the padding is cut before A^T.  Every filter product has one shape,
    so a column's bits do not depend on the batch width; products at the
    block's own width would, as BLAS picks its kernel by size."""
    if geom.num_angles < 2:
        raise ValidationError("fbp needs at least 2 view angles")
    n_a, nd = geom.num_angles, geom.num_detector_bins
    S, C = block.shape[1], block.shape[3]
    k = -(-C // _FBP_CHUNK)
    if block.dtype != np.float32 or C != k * _FBP_CHUNK:
        padded = np.zeros((n_a, S, nd, k * _FBP_CHUNK), np.float32)
        padded[..., :C] = block
        block = padded
    q = np.empty((n_a, nd, S, k, _FBP_CHUNK), np.float32)
    np.matmul(_ramp_matrix(nd, n_a, geom.pixel_pitch, hann),
              block.reshape(n_a, S, nd, k, _FBP_CHUNK).transpose(0, 1, 3, 2, 4),
              out=q.transpose(0, 2, 3, 1, 4))
    q = q.reshape(n_a * nd, S, -1)
    if q.shape[2] != C:
        q = np.ascontiguousarray(q[..., :C])
    return _operators(geom) @ q.reshape(n_a * nd, -1)


def _mbir_start(block: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """MBIR's start for a container block (angles, slices, bins, channels):
    the float32 FBP with its ramp times the Hann window (``_ramp_matrix``),
    clamped at 0 and cast to float64; zeros below 2 views.  The window damps
    the noise the bare ramp passes at high frequencies, so the solver starts
    nearer the same minimizer and stops in fewer iterations."""
    if geom.num_angles < 2:
        return np.zeros((geom.image_size ** 2, block.shape[1] * block.shape[3]))
    return np.maximum(_fbp_batch(block, geom, hann=True), 0.0).astype(np.float64)


def fbp_reconstruct(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Filtered backprojection of one slice sinogram: a float64 image of FBP's
    float32 values (module docstring)."""
    sino = _slice_input(sino, geom)
    img, _ = _reconstruct_columns(sino[:, None, :, None], geom, None)
    return img.reshape(geom.image_size, geom.image_size)


# --- edge-preserving / quadratic pairwise prior -----------------------------

@functools.lru_cache(maxsize=8)
def _pairs(n: int):
    """The 8-neighbor pairs of an n x n grid: (P, kappa, L, curv).

    Row p of the sparse P x is x_a - x_b for the p-th pair, a = b + (drow,
    dcol), each unordered pair once in ``_DIRS`` order; kappa holds the pair
    weights, L = P^T diag(kappa) P is the weighted graph Laplacian and
    curv = 2*diag(L) the constant surrogate curvature of both priors.
    Cached per image size; L has about 9 nonzeros per row.
    """
    idx = np.arange(n * n).reshape(n, n)
    a, b, kappa = [], [], []
    for da, db, k in _DIRS:
        a.append(idx[da:, max(db, 0):n + min(db, 0)].ravel())
        b.append(idx[:n - da, max(-db, 0):n - max(db, 0)].ravel())
        kappa.append(np.full(a[-1].size, k))
    a, b, kappa = map(np.concatenate, (a, b, kappa))
    P = sp.coo_matrix((np.repeat([1.0, -1.0], a.size),
                       (np.tile(np.arange(a.size), 2), np.concatenate([a, b]))),
                      shape=(a.size, n * n)).tocsr()
    L = (P.T @ (sp.diags(kappa) @ P)).tocsr()
    curv = 2.0 * L.diagonal()
    kappa.flags.writeable = curv.flags.writeable = False
    return P, kappa, L, curv


def _column_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-column sums of U * V, in the order numpy sums each column of a
    batch of two or more: a lone column goes in as a duplicated pair, so a
    column's sums do not depend on the batch width."""
    if U.shape[1] == 1:
        return np.einsum("ij,ij->j", np.repeat(U, 2, axis=1), np.repeat(V, 2, axis=1))[:1]
    return np.einsum("ij,ij->j", U, V)


def _huber_value(X: np.ndarray, n: int, delta: np.ndarray | float) -> np.ndarray:
    """The Huber prior kappa . rho(P x) per column of X (n^2, C)."""
    P, kappa = _pairs(n)[:2]
    a = np.abs(P @ X)
    m = np.minimum(a, delta)
    a -= 0.5 * m
    a *= m
    return _column_dots(a, kappa[:, None])


def _huber_gradient(Z: np.ndarray, n: int, delta: np.ndarray | float) -> np.ndarray:
    """The Huber prior's gradient P^T (kappa clip(P z, +-delta)) at Z."""
    P, kappa = _pairs(n)[:2]
    D = P @ Z
    np.clip(D, -delta, delta, out=D)
    D *= kappa[:, None]
    return P.T @ D


def _huber_delta(X0: np.ndarray, n: int) -> np.ndarray:
    """Huber's delta per column of the start X0 (n^2, C) (module docstring)."""
    delta = 1.345 * 1.4826 * np.median(np.abs(_pairs(n)[0] @ X0), axis=0)
    return np.where(delta > 0, delta, np.inf)


def _sqs_solve(AT: sp.csr_matrix, Y: np.ndarray, W: np.ndarray, n: int,
               opts: MbirOptions, X0: np.ndarray):
    """Majorized projected descent with optimized-gradient momentum on a
    batch of independent channels.

    AT is the length-scaled system matrix's transpose as CSR (n^2 x m) and
    A its CSC view AT.T; Y, W, X0 are float64 (m, C) / (n^2, C), and X0's
    memory is reused after delta is read.  Products with A or A^T, the
    curvature's too, run in AT's precision (module docstring).  Each channel
    keeps its iterate x, an extrapolated point z and a momentum scalar t
    (z = x0, t = 1 at the start); an iteration is the optimized gradient
    method's (OGM; Kim & Fessler, Math. Program. 2016)

        x+ = max(z - grad f(z) / D, 0)
        t+ = (1 + sqrt(1 + 4 t^2)) / 2
        z+ = x+ + ((t - 1) / t+) (x+ - x) + (t / t+) (x+ - z)

    with D = A^T W A 1 + beta*curv, under either prior.  Two adaptive
    restarts (Kim & Fessler, J. Optim. Theory Appl. 2018): (a) when
    <z - x+, x+ - x> > 0 the step turned against the momentum, t = 1
    before t+ is formed and both weights are 0, so z+ = x+; (b) when a step
    from an extrapolated z (either weight > 0) raised the objective, x+ is
    discarded: x stays, the trace repeats f(x), the iteration still counts,
    and t = 1, both weights 0, z = x.  After either restart the next step is
    a plain majorized one, which cannot raise the objective beyond
    rounding, so the trace does not increase.  The stopping rule (a zero
    objective, or a relative change <= rel_tol) reads only kept steps that
    did not turn: at a turning point of the momentum the objective stalls
    for a step while still far from its minimum.

    W (A x - Y) and W (A z - Y) are carried beside x and z: one loop
    extrapolates both pairs, and one restores a discarded step's x, W (A x
    - Y) and f, so an iteration does one A product, one A^T product and,
    for the quadratic prior, two products with beta*L: at z for the step
    and at x+ for the objective.  Huber instead takes its value at x+ and
    its gradient at z as products with P.  beta = 0 and a one-pixel image
    take the quadratic path, where beta*L stores no entry, so they do no
    sparse prior work.  Columns never mix, t and delta are per channel and
    every per-channel sum goes through ``_column_dots``, so a channel's
    float sequence is the same alone or batched.  A channel that stops is
    saved and no longer recorded, so its iteration count is the length of
    its trace; stopped columns ride along until they make up a quarter of
    the batch, then are dropped into C-ordered copies, the layout of a
    fresh batch.  Returns (X, info list per channel).
    """
    C = Y.shape[1]
    beta = float(opts.regularization_weight)
    huber = beta > 0 and n > 1 and opts.prior == "huber"
    delta = _huber_delta(X0, n) if huber else np.full(C, np.inf)
    _, _, L, curv = _pairs(n)
    A, dtype = AT.T, AT.dtype
    # the data term's curvature A^T W A 1, from the operator the steps use
    Dc = AT @ (W * (A @ np.ones(A.shape[1], dtype))[:, None]).astype(dtype, copy=False)
    Dc = Dc.astype(np.float64, copy=False)
    # the constant denominator of either prior; pixels that no weighted ray
    # and no prior pair touch stay put (0/inf = 0); at beta = 0, beta*L keeps
    # no stored zero
    bL = beta * L
    bL.eliminate_zeros()
    Dc += beta * curv[:, None]
    Dc[Dc <= 0] = np.inf

    def evaluate(X, Yb, Wb, delta):
        """W*(A X - Y) and the objective at X."""
        R = np.subtract(A @ X.astype(dtype, copy=False), Yb)
        WR = Wb * R
        obj = 0.5 * _column_dots(WR, R)
        if huber:
            return WR, obj + beta * _huber_value(X, n, delta)
        return WR, obj + 0.5 * _column_dots(X, bL @ X)

    traces = [[] for _ in range(C)]
    conv = np.zeros(C, dtype=bool)
    out = np.empty_like(X0)

    # per batch column: its channel, whether it still runs, t, and the two
    # momentum weights that formed z (both 0: z = x, a plain step)
    idx = np.arange(C)
    live = np.ones(C, dtype=bool)
    t = np.ones(C)
    coef = np.zeros(C)
    gam = np.zeros(C)
    Yb, Wb = Y, W
    X = X0
    WRX, fX = evaluate(X, Yb, Wb, delta)
    Z, WRZ = X.copy(), WRX.copy()

    for _ in range(opts.max_iters):
        G = AT @ WRZ.astype(dtype, copy=False)
        if huber:
            HG = _huber_gradient(Z, n, delta)
            HG *= beta
            G = np.add(G, HG, out=HG)
        else:
            G = np.add(G, bL @ Z)
        Xn = np.divide(G, Dc, out=G)
        np.subtract(Z, Xn, out=Xn)
        np.maximum(Xn, 0.0, out=Xn)
        WRn, fn = evaluate(Xn, Yb, Wb, delta)

        back = (fn > fX) & ((coef > 0) | (gam > 0))  # restart (b)
        if np.any(back):  # the carried state of a discarded step is x's
            for new, old in ((Xn, X), (WRn, WRX), (fn, fX)):
                new[..., back] = old[..., back]
        # x+ - x and z - x+ of both pairs, in the buffers of x and z
        dX, dR = np.subtract(Xn, X, out=X), np.subtract(WRn, WRX, out=WRX)
        Z -= Xn
        WRZ -= WRn
        turned = _column_dots(Z, dX) > 0.0  # restart (a)
        # a discarded step, or one that turned against the momentum, is no
        # measure of convergence
        done = live & ~back & ~turned & (
            (fn <= 0.0) | (np.abs(fX - fn) <= opts.rel_tol * np.maximum(fX, 1e-300)))
        for local in np.flatnonzero(live):
            traces[idx[local]].append(float(fn[local]))
        if np.any(done):
            out[:, idx[done]] = Xn[:, done]
            conv[idx[done]] = True
            live &= ~done
            if not np.any(live):
                break

        t[turned] = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        coef = (t - 1.0) / t_next
        gam = t / t_next
        t = t_next
        t[back] = 1.0
        gam[turned | back] = 0.0
        coef[back] = 0.0
        # z+ = x+ + coef (x+ - x) - gam (z - x+), for z and for W (A z - Y)
        for d, zd, new in ((dX, Z, Xn), (dR, WRZ, WRn)):
            d *= coef
            zd *= -gam
            zd += d
            zd += new
        X, WRX, fX = Xn, WRn, fn

        if 4 * np.count_nonzero(~live) >= live.size:
            keep = live
            # np.compress copies into C order (a[..., keep] gives Fortran
            # order), the layout in which _column_dots sums as in a fresh batch
            Yb, Wb, X, Z, WRX, WRZ, Dc, fX, t, coef, gam, delta, idx, live = (
                np.compress(keep, a, axis=-1)
                for a in (Yb, Wb, X, Z, WRX, WRZ, Dc, fX, t, coef, gam, delta, idx, live))

    out[:, idx[live]] = X[:, live]
    info = [{"iterations": len(traces[c]), "converged": bool(conv[c]),
             "objective": traces[c][-1],
             "objective_trace": np.asarray(traces[c])} for c in range(C)]
    return out, info


def _reconstruct_columns(Y: np.ndarray, geom: SliceGeometry, opts: MbirOptions | None,
                         threads: int = 1):
    """Reconstruct slice sinograms Y (angles, slices, bins, C) -> (images
    (slices, n^2, C) in Y's precision, MBIR info per (slice, channel) column).

    ``opts`` None runs FBP (the bare ramp) on the float32 block, and there
    is no info.  Otherwise MBIR starts from ``_mbir_start`` and weights each
    ray by exp(-y), the one weight rule.

    The block plan: workers = min(threads, ``_usable_cpus()``) run blocks of
    step = max(1, min(cap, ceil(slices*C / workers))) columns, step // C
    whole slices when C <= step, else step channels of one slice.  MBIR's
    cap is ``_BATCH_COLUMNS``, FBP's max(C, ``_BATCH_COLUMNS``), so FBP
    blocks hold whole slices.  Blocks are read and written with basic slices
    and keep (slice, channel) order, and columns never mix; a budget at or
    above the CPU count plans what that count plans.
    """
    n_r, C = Y.shape[1], Y.shape[3]
    n = geom.image_size
    AT = _operators(geom)
    workers = min(threads, _usable_cpus())
    cap = max(C, _BATCH_COLUMNS) if opts is None else _BATCH_COLUMNS
    step = max(1, min(cap, -(-n_r * C // workers)))
    rows, chans = (step // C, C) if C <= step else (1, step)
    out = np.empty((n_r, n * n, C), dtype=Y.dtype)

    def solve(block):
        r, c = block
        yb = Y[:, r:r + rows, :, c:c + chans]  # (angle, slice, bin, channel)
        if opts is None:
            X, info = _fbp_batch(yb, geom), []
        else:
            # rays x (slice, channel)
            y = np.ascontiguousarray(yb.transpose(0, 2, 1, 3), dtype=np.float64)
            y = y.reshape(AT.shape[1], -1)
            x0 = _mbir_start(yb, geom)
            # transmission-proportional statistical weights: high attenuation
            # means few counts and an unreliable ray
            X, info = _sqs_solve(AT, y, np.exp(-y), n, opts, x0)
        out[r:r + rows, :, c:c + chans] = X.reshape(n * n, *yb.shape[1:4:2]).transpose(1, 0, 2)
        return info

    blocks = [(r, c) for r in range(0, n_r, rows) for c in range(0, C, chans)]
    infos = _map(solve, blocks, workers)
    return out, [i for info in infos for i in info]


def _usable_cpus() -> int:
    """The CPUs this process may run on (a cgroup CPU quota is not read)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map(task, items, workers: int) -> list:
    """``[task(i) for i in items]``: in the caller's thread when ``workers``
    is 1, else on a pool of that many threads, each with a glibc malloc
    arena.  The first failure in ``items`` order is raised once the running
    tasks end; those not yet started are cancelled."""
    if workers == 1:
        return list(map(task, items))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def mbir_reconstruct(sino: np.ndarray, geom: SliceGeometry,
                     opts: MbirOptions | None = None, return_info: bool = False):
    """Regularized weighted-least-squares reconstruction of one slice from
    ``_mbir_start``'s image."""
    opts = require_engine("mbir", opts)
    sino = _slice_input(sino, geom)
    X, info = _reconstruct_columns(sino[:, None, :, None], geom, opts)
    img = X.reshape(geom.image_size, geom.image_size)
    return (img, info[0]) if return_info else img


def reconstruct_stack(sinos, geom: ScanGeometry, engine: str,
                      opts: MbirOptions | None = None, *,
                      threads: int = 1) -> VolumeStack:
    """Reconstruct every (slice, channel) pair of a measurement stack.

    ``sinos`` is a SubspaceSinogram (C = subspace channels) or a
    HyperspectralSinogram (C = wavelength bins), and ``geom`` its geometry:
    their ``geometry_header``s, the container format's definition of a scan
    geometry, must be equal.  Detector row r maps to volume slice r.
    ``require_engine`` gives the options.  One ``_reconstruct_columns`` call
    reads the stack in its container layout and plans its blocks and workers
    from ``threads``; voxels come out in the float32 of the container's values.
    """
    opts = require_engine(engine, opts)
    require_count(threads, "threads")
    if isinstance(sinos, SubspaceSinogram):
        values, sgeom = sinos.coeffs, sinos.geometry
    elif isinstance(sinos, HyperspectralSinogram):
        values, sgeom = sinos.values, sinos.geometry
    else:
        raise ValidationError(
            f"expected a sinogram container, got {type(sinos).__name__}")
    if geometry_header(sgeom) != geometry_header(geom):
        raise ValidationError("sinogram geometry does not match the scan geometry")

    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    C = values.shape[1]
    vox, _ = _reconstruct_columns(values.reshape(n_v, n_r, n_c, C), slice_geometry_for(geom),
                                  opts, threads)
    return VolumeStack(vox.reshape(-1, C), n_r, n_c, geom.pixel_pitch)
