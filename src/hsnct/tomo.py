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
than a bare pixel count.  It is assembled sparse once per geometry and
reused; the backprojector is its exact transpose, which makes the adjoint
test exact up to float rounding.  One accessor, ``_operators``, returns A
together with a float32 CSR copy of A^T, built and cached with it, which
FBP and MBIR share.

Reconstructors:

* ``fbp_reconstruct``: frequency-domain ramp filtering per view (the bare
  ramp, no window; rows zero-padded to the next power of two >= twice the
  detector width), backprojection with the float32 A^T, and a
  pi/(num_angles*pitch^2) scale so a density-1 disk comes back at value ~1.
* ``mbir_reconstruct``: minimizes 0.5*||W^(1/2)(Ax - y)||^2 + beta*R(x)
  over x >= 0 with W = diag(exp(-y)), where R sums kappa*rho(x_a - x_b)
  over 8-neighbor pairs (each unordered pair once, kappa 1, or 1/sqrt(2)
  on diagonals) with rho quadratic or Huber.  Both priors are products
  with one sparse pair-difference operator P (row p of P x is x_a - x_b).
  The quadratic prior is 0.5*x^T L x with L = P^T diag(kappa) P, so its
  gradient is one product L x and its surrogate curvature the constant
  2*diag(L).  Huber's value is kappa . rho(P x), its gradient
  P^T (kappa clip(P x, +-delta)) and its surrogate curvature
  |P|^T (2 delta kappa / max(|P x|, delta)).  The solver takes
  diagonally-majorized (separable quadratic surrogate) steps projected
  onto x >= 0, starting from the FBP image clamped at 0, and accelerates
  them with per-channel momentum (Kim, Ramani & Fessler 2015) and two
  restarts (O'Donoghue & Candes 2015): one when a step turns against the
  momentum, one that discards a step that raised the objective.  A
  discarded step counts as an iteration and repeats the objective in the
  trace, so the trace does not increase.  Each iteration does one A and
  one A^T product, and one L product or Huber's P products at x+ and z.

Both run through one driver, ``_reconstruct_columns``, which reads slice
sinograms in the container layout (angles, slices, bins, C) and writes
images in the volume layout (slices, n^2, C), in the precision of its
input: float32 container blocks give float32 volumes, and float64 single
slices give float64 images.  It alone decides how the independent (slice,
channel) columns are grouped, the MBIR start, the one weight rule
W = exp(-y), and the threading.  With step = min(_BATCH_COLUMNS,
ceil(slices*C / threads)), a block is step // C whole slices when C <= step,
else step channels of one slice.  Columns never mix.

One precision rule: the sparse projector products run in float32, the
precision of the container payloads, with the cached A^T and its CSC view
as A; the solver state runs in float64.  FBP, one linear pass, is wholly
float32.  MBIR's iterate, residual, curvature, objective sums and prior
products stay float64, so rounding does not build up over its
iterations.  Each step gives a column the same bits at any batch width.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SubspaceSinogram,
    ValidationError,
    VolumeStack,
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
# columns per reconstruction part: the float32 sparse products cost ~2-4x
# more per column at 4 columns than at 16-256, and the solver runs ~5-20 %
# slower per column at 256 than at 64 (one desk slice)
_BATCH_COLUMNS = 64

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
    prior: str = "quadratic-difference"
    regularization_weight: float = 1.0
    huber_delta: float = 0.1
    max_iters: int = 100
    rel_tol: float = 1e-5

    def __post_init__(self):
        if self.prior not in _PRIORS:
            raise ValidationError(f"prior must be one of {_PRIORS}, got {self.prior!r}")
        require_nonneg(self.regularization_weight, "regularization_weight")
        require_positive(self.huber_delta, "huber_delta")
        require_count(self.max_iters, "max_iters")
        require_positive(self.rel_tol, "rel_tol")


def require_engine(engine: str, opts) -> None:
    """Raise ValidationError unless ``engine`` is known and ``opts`` suits it."""
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if opts is not None and (engine != "mbir" or not isinstance(opts, MbirOptions)):
        raise ValidationError("options only apply to the mbir engine, as MbirOptions")


def slice_geometry_for(geom: ScanGeometry) -> SliceGeometry:
    """The 2D geometry shared by every detector row of a parallel-beam scan."""
    return SliceGeometry(geom.view_angles, geom.num_cols, geom.pixel_pitch)


def project_volume(volume: VolumeStack, geom: ScanGeometry) -> np.ndarray:
    """Noiseless line integrals of every (slice, channel) pair.

    Returns float64 coefficients shaped [N_p, C] in the sinogram layout
    (view, row, col row-major), so the result aligns bin-for-bin with
    HyperspectralSinogram/SubspaceSinogram values.  Works one slice at a
    time: only one slice of the volume is held in float64.
    """
    slices = _slice_projections(volume, geom)
    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    out = np.empty((n_v, n_r, n_c, volume.num_channels))
    for r, ell in enumerate(slices):
        out[:, r] = ell
    return out.reshape(n_v * n_r * n_c, -1)


def _slice_projections(volume: VolumeStack, geom: ScanGeometry):
    """Check ``volume`` against ``geom`` now, then lazily yield the float64
    line integrals of each slice r, shaped (N_v, N_c, C): detector row r."""
    if not isinstance(volume, VolumeStack):
        raise ValidationError(f"expected a VolumeStack, got {type(volume).__name__}")
    if volume.num_rows != geom.num_rows or volume.num_cols != geom.num_cols:
        raise ValidationError(
            f"volume grid ({volume.num_rows} slices of {volume.num_cols}^2) does "
            f"not match geometry ({geom.num_rows} rows, {geom.num_cols} cols)")
    n_v, n_c, n2 = geom.num_views, geom.num_cols, geom.num_cols ** 2
    A, _ = _operators(slice_geometry_for(geom))
    return ((A @ volume.voxels[r * n2:(r + 1) * n2].astype(np.float64)).reshape(n_v, n_c, -1)
            for r in range(geom.num_rows))


def _operators(geom: SliceGeometry) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(A, A^T in float32).  A is the length-scaled system matrix,
    (num_angles*num_detector_bins) x num_detector_bins^2: splat weights
    times the pixel pitch, in float64 for the simulator and the exact
    adjoint.  A^T is a float32 CSR matrix: FBP's backprojector, and MBIR's
    operator both ways (its CSC view is A).

    Both are cached per geometry (the angles enter the key as bytes, since
    an ndarray does not hash).
    """
    return _splat_matrix(geom.angles.tobytes(), geom.num_detector_bins, geom.pixel_pitch)


# geometries are tiny and few per process
@functools.lru_cache(maxsize=8)
def _splat_matrix(angle_bytes: bytes, nd: int,
                  pitch: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
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
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(angles.size * nd, n * n), dtype=np.float64).tocsr()
    # the float32 A^T is built here with A, not on the first FBP: allocated
    # later, it lands among the solver's buffers (peak RSS of MBIR on one
    # desk row rose ~7 %)
    return A, A.T.tocsr().astype(np.float32)


def _slice_input(values, geom: SliceGeometry, image: bool = False) -> np.ndarray:
    """A single-slice image (``image=True``) or sinogram as float64, after
    checking its shape against ``geom`` and that every entry is finite."""
    name = "image" if image else "sinogram"
    shape = ((geom.image_size, geom.image_size) if image
             else (geom.num_angles, geom.num_detector_bins))
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValidationError(f"{name} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must be finite")
    return values


def forward_project(image: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Line integrals of a square slice: (num_angles, num_detector_bins)."""
    image = _slice_input(image, geom, image=True)
    sino = _operators(geom)[0] @ image.ravel()
    return sino.reshape(geom.num_angles, geom.num_detector_bins)


def back_project(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Exact transpose of forward_project."""
    sino = _slice_input(sino, geom)
    img = _operators(geom)[0].T @ sino.ravel()
    return img.reshape(geom.image_size, geom.image_size)


def _fbp_batch(Y: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """FBP over ray-major columns, in float32: Y (m, C) -> float32 images
    (n^2, C); each view is ramp-filtered, then backprojected."""
    if geom.num_angles < 2:
        raise ValidationError("fbp needs at least 2 view angles")
    nd = geom.num_detector_bins
    n_pad = 1 << max(int(np.ceil(np.log2(2 * nd))), 1)
    # filtered values are in cycles-per-sample units and A^T carries one
    # pitch factor, so the physical units fold into one 1/pitch^2 scale
    # together with the angular quadrature weight; it rides on the ramp |f|
    # (cycles per sample, 0 .. 0.5)
    scale = np.pi / (geom.num_angles * geom.pixel_pitch ** 2)
    ramp = (np.fft.rfftfreq(n_pad) * scale).astype(np.float32)
    y = np.asarray(Y, dtype=np.float32).reshape(geom.num_angles, nd, -1)
    spec = scipy.fft.rfft(y, n=n_pad, axis=1)
    spec *= ramp[:, None]
    q = scipy.fft.irfft(spec, n=n_pad, axis=1)[:, :nd].reshape(Y.shape)
    return _operators(geom)[1] @ q


def fbp_reconstruct(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Filtered backprojection of one slice sinogram: a float64 image whose
    values carry float32 precision, as FBP computes in float32."""
    sino = _slice_input(sino, geom)
    img, _ = _reconstruct_columns(sino[:, None, :, None], geom, None)
    return img.reshape(geom.image_size, geom.image_size)


# --- edge-preserving / quadratic pairwise prior -----------------------------

@functools.lru_cache(maxsize=8)
def _pairs(n: int):
    """The 8-neighbor pair structure of an n x n grid: (P, kappa, L, curv).

    Row p of the sparse P x is x_a - x_b for the p-th pair, a = b + (drow,
    dcol), each unordered pair once in ``_DIRS`` order; kappa holds the pair
    weights, L = P^T diag(kappa) P is the weighted graph Laplacian and
    curv = 2*diag(L) the quadratic prior's constant surrogate curvature.
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


def _huber_value(X: np.ndarray, n: int, delta: float) -> np.ndarray:
    """The Huber prior kappa . rho(P x) per column of X (n^2, C)."""
    P, kappa = _pairs(n)[:2]
    a = np.abs(P @ X)
    m = np.minimum(a, delta)
    a -= 0.5 * m
    a *= m
    return _column_dots(a, kappa[:, None])


def _huber_step(Z: np.ndarray, n: int, delta: float):
    """The Huber prior's gradient P^T (kappa clip(P z, +-delta)) and its
    majorizer's curvature |P|^T (2 delta kappa / max(|P z|, delta)) at Z."""
    P, kappa = _pairs(n)[:2]
    D = P @ Z
    a = np.abs(D)
    np.clip(D, -delta, delta, out=D)
    D *= kappa[:, None]
    np.maximum(a, delta, out=a)
    np.divide((2.0 * delta) * kappa[:, None], a, out=a)
    return P.T @ D, abs(P).T @ a


def _sqs_solve(AT: sp.csr_matrix, Y: np.ndarray, W: np.ndarray, n: int,
               opts: MbirOptions, X0: np.ndarray):
    """Majorized projected descent with momentum on a batch of independent
    channels.

    AT is the length-scaled system matrix's transpose as CSR (n^2 x m) and
    A its CSC view AT.T; Y, W, X0 are float64 (m, C) / (n^2, C), and X0's
    memory is reused.  Every product with A or A^T, the curvature's too,
    runs in AT's precision and lands in float64; all else is float64.  Each
    channel keeps its iterate x, an extrapolated point z and a momentum
    scalar t (z = x0 and t = 1 at the start), and one iteration is

        x+ = max(z - grad f(z) / D(z), 0)
        t+ = (1 + sqrt(1 + 4 t^2)) / 2
        z+ = x+ + ((t - 1) / t+) (x+ - x)

    with D(z) the separable majorizer's curvature at z.  Two restarts:
    (a) when <z - x+, x+ - x> > 0 the step turned against the momentum,
    and t = 1 before t+ is formed, so z+ = x+; (b) when a step from an
    extrapolated z (t > 1) raised the objective, x+ is discarded: x stays,
    the trace repeats f(x), the iteration still counts, and t = 1, z = x.
    The next step is then a plain majorized one, which cannot raise the
    objective beyond rounding, so the trace does not increase.  The
    stopping rule (a zero objective, or a relative change <= rel_tol)
    reads only kept steps that did not turn: at a turning point of the
    momentum the objective stalls for a step while still far from its
    minimum.

    A z - Y and the quadratic prior's gradient L z are carried as the same
    combination of their values at x+ and x, so an iteration does one A
    product, one A^T product and one L product; Huber instead takes its
    value at x+ and its gradient and curvature at z as products with P.
    Columns never mix, t is per channel and every per-channel sum goes
    through ``_column_dots``, so a channel's float sequence is the same
    alone or batched.  A channel that stops is saved and no longer
    recorded, so its iteration count is the length of its trace; stopped
    columns ride along until they make up a quarter of the batch, then are
    dropped.  Returns (X, info list per channel).
    """
    C = Y.shape[1]
    beta = float(opts.regularization_weight)
    # a 1-pixel image has no neighbor pairs, so its prior is zero
    use_prior = beta > 0 and n > 1
    huber = use_prior and opts.prior == "huber"
    quadratic = use_prior and not huber
    delta = opts.huber_delta
    _, _, L, curv = _pairs(n)
    A, dtype = AT.T, AT.dtype
    # the data term's curvature A^T W A 1, from the operator the steps use
    Dc = AT @ (W * (A @ np.ones(A.shape[1], dtype))[:, None]).astype(dtype, copy=False)
    Dc = Dc.astype(np.float64, copy=False)
    if not huber:
        # constant denominator; pixels that no weighted ray and no prior
        # pair touch have a zero gradient and stay put (0/inf = 0)
        if use_prior:
            Dc += beta * curv[:, None]
        Dc[Dc <= 0] = np.inf

    def evaluate(X, Yb, Wb, WR):
        """A X - Y, L X (None unless the prior is quadratic) and the
        objective at X; W*(A X - Y) goes into WR."""
        R = np.subtract(A @ X.astype(dtype, copy=False), Yb)
        np.multiply(Wb, R, out=WR)
        obj = 0.5 * _column_dots(WR, R)
        LX = None
        if quadratic:
            LX = L @ X
            obj = obj + beta * (0.5 * _column_dots(X, LX))
        elif huber:
            obj = obj + beta * _huber_value(X, n, delta)
        return R, LX, obj

    traces = [[] for _ in range(C)]
    conv = np.zeros(C, dtype=bool)
    out = np.empty_like(X0)

    # per batch column: its channel, whether it still runs, t, and the
    # momentum weight that formed z (0: z = x, a plain step)
    idx = np.arange(C)
    live = np.ones(C, dtype=bool)
    t = np.ones(C)
    coef = np.zeros(C)
    Yb, Wb, WR = Y, W, np.empty_like(Y)
    X = X0
    RX, LX, fX = evaluate(X, Yb, Wb, WR)
    Z, RZ = X.copy(), RX.copy()
    LZ = None if LX is None else LX.copy()

    for _ in range(opts.max_iters):
        G = AT @ WR.astype(dtype, copy=False)
        D = Dc
        if quadratic:
            LZ *= beta
            G = np.add(G, LZ, out=LZ)
        elif huber:
            HG, D = _huber_step(Z, n, delta)
            HG *= beta
            G = np.add(G, HG, out=HG)
            D *= beta
            D += Dc
        else:
            G = G.astype(np.float64, copy=False)
        Xn = np.divide(G, D, out=G)
        np.subtract(Z, Xn, out=Xn)
        np.maximum(Xn, 0.0, out=Xn)
        Rn, Ln, fn = evaluate(Xn, Yb, Wb, WR)

        back = (fn > fX) & (coef > 0)  # restart (b)
        if np.any(back):
            Xn[:, back] = X[:, back]
            Rn[:, back] = RX[:, back]
            if quadratic:
                Ln[:, back] = LX[:, back]
            fn[back] = fX[back]
        dX = np.subtract(Xn, X, out=X)
        Z -= Xn
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
        t = t_next
        t[back] = 1.0
        coef[back] = 0.0
        np.multiply(dX, coef, out=Z)
        Z += Xn
        # the same combination for A z - Y and L z, in the buffers of x
        RZ = np.subtract(Rn, RX, out=RX)
        RZ *= coef
        RZ += Rn
        if quadratic:
            LZ = np.subtract(Ln, LX, out=LX)
            LZ *= coef
            LZ += Ln
        X, RX, LX, fX = Xn, Rn, Ln, fn
        np.multiply(Wb, RZ, out=WR)

        if 4 * np.count_nonzero(~live) >= live.size:
            keep = live
            Yb, Wb, WR, X, Z, RX, RZ, LX, LZ, Dc, fX, t, coef, idx, live = (
                None if a is None else a[..., keep]
                for a in (Yb, Wb, WR, X, Z, RX, RZ, LX, LZ, Dc, fX, t, coef, idx, live))

    out[:, idx[live]] = X[:, live]
    info = [{"iterations": len(traces[c]), "converged": bool(conv[c]),
             "objective": traces[c][-1],
             "objective_trace": np.asarray(traces[c])} for c in range(C)]
    return out, info


def _reconstruct_columns(Y: np.ndarray, geom: SliceGeometry, opts: MbirOptions | None,
                         threads: int = 1):
    """Reconstruct slice sinograms Y (angles, slices, bins, C) -> (images
    (slices, n^2, C) in Y's precision, MBIR info per (slice, channel) column).

    ``opts`` None runs FBP on the float32 block, and there is no info.
    Otherwise MBIR starts from the float32 FBP image clamped at 0 and cast
    to float64 (zeros below 2 views), and weights each ray by exp(-y), the
    one weight rule.  Blocks (module docstring) are read and written with
    basic slices, keep (slice, channel) order, and are split for
    ``threads`` workers; the pool holds at most one worker per CPU.
    """
    n_r, C = Y.shape[1], Y.shape[3]
    n = geom.image_size
    _, AT = _operators(geom)
    step = max(1, min(_BATCH_COLUMNS, -(-n_r * C // threads)))
    rows, chans = (step // C, C) if C <= step else (1, step)
    out = np.empty((n_r, n * n, C), dtype=Y.dtype)

    def solve(block):
        r, c = block
        # (angle, slice, bin, channel) -> rays x (slice, channel)
        yb = Y[:, r:r + rows, :, c:c + chans].transpose(0, 2, 1, 3)
        y = np.ascontiguousarray(yb, dtype=np.float32 if opts is None else np.float64)
        y = y.reshape(AT.shape[1], -1)
        if opts is None:
            X, info = _fbp_batch(y, geom), []
        else:
            if geom.num_angles >= 2:
                x0 = np.maximum(_fbp_batch(y, geom), 0.0).astype(np.float64)
            else:
                x0 = np.zeros((n * n, y.shape[1]))
            # transmission-proportional statistical weights: high attenuation
            # means few counts and an unreliable ray
            X, info = _sqs_solve(AT, y, np.exp(-y), n, opts, x0)
        out[r:r + rows, :, c:c + chans] = X.reshape(n * n, *yb.shape[2:]).transpose(1, 0, 2)
        return info

    blocks = [(r, c) for r in range(0, n_r, rows) for c in range(0, C, chans)]
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        infos = list(map(solve, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            infos = list(pool.map(solve, blocks))
    return out, [i for info in infos for i in info]


def mbir_reconstruct(sino: np.ndarray, geom: SliceGeometry,
                     opts: MbirOptions | None = None, return_info: bool = False):
    """Regularized weighted-least-squares reconstruction of one slice."""
    if opts is None:
        opts = MbirOptions()
    sino = _slice_input(sino, geom)
    X, info = _reconstruct_columns(sino[:, None, :, None], geom, opts)
    img = X.reshape(geom.image_size, geom.image_size)
    return (img, info[0]) if return_info else img


def reconstruct_stack(sinos, geom: ScanGeometry, engine: str,
                      opts: MbirOptions | None = None, *,
                      threads: int = 1) -> VolumeStack:
    """Reconstruct every (slice, channel) pair of a measurement stack.

    ``sinos`` is a SubspaceSinogram (C = subspace channels) or a
    HyperspectralSinogram (C = wavelength bins).  Detector row r maps to
    volume slice r.  One ``_reconstruct_columns`` call reads the stack in
    its container layout, spreads its blocks over ``threads`` workers,
    weights MBIR's rays by exp(-y) and writes voxels in the float32 of the
    container's values.
    """
    require_engine(engine, opts)
    require_count(threads, "threads")
    if isinstance(sinos, SubspaceSinogram):
        values, sgeom = sinos.coeffs, sinos.geometry
    elif isinstance(sinos, HyperspectralSinogram):
        values, sgeom = sinos.values, sinos.geometry
    else:
        raise ValidationError(
            f"expected a sinogram container, got {type(sinos).__name__}")
    if (sgeom.num_views != geom.num_views or sgeom.num_rows != geom.num_rows
            or sgeom.num_cols != geom.num_cols
            or sgeom.pixel_pitch != geom.pixel_pitch
            or not np.array_equal(sgeom.view_angles, geom.view_angles)):
        raise ValidationError("sinogram geometry does not match the scan geometry")
    if engine == "mbir" and opts is None:
        opts = MbirOptions()

    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    C = values.shape[1]
    vox, _ = _reconstruct_columns(values.reshape(n_v, n_r, n_c, C), slice_geometry_for(geom),
                                  opts, threads)
    return VolumeStack(vox.reshape(-1, C), n_r, n_c, geom.pixel_pitch)
