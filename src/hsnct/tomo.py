"""Parallel-beam 2D slice tomography.

One detector row of a parallel-beam scan is an independent 2D problem, so
everything here works on square slices.  The projector is pixel-driven: a
pixel at centered coordinates (u_a, u_b) meets the detector at

    t = u_a*cos(theta) + u_b*sin(theta)

and splats its value onto the two nearest detector bins with linear
interpolation weights.  At angle 0 the rays run along the image column
axis, so the detector coordinate equals the row coordinate.  The system
matrix is assembled sparse once per geometry and reused; the backprojector
is its exact transpose, which makes the adjoint test exact up to float
rounding.

Forward projection multiplies by the pixel pitch so outputs are line
integrals (value * length), matching the chord length of a shape rather
than a bare pixel count.

Reconstructors:

* ``fbp_reconstruct``: frequency-domain ramp filtering per view (rows
  zero-padded to the next power of two >= twice the detector width),
  backprojection, and a pi/num_angles * 1/pitch^2 scale so a density-1
  disk comes back at value ~1.
* ``mbir_reconstruct``: minimizes 0.5*||W^(1/2)(Ax - y)||^2 + beta*R(x)
  over x >= 0, where R sums rho(x_i - x_j) over 8-neighbor pairs (each
  unordered pair once, diagonals weighted 1/sqrt(2)) with rho quadratic or
  Huber.  The quadratic prior is 0.5*x^T L x with L the weighted graph
  Laplacian of the pairs, so its gradient is one sparse product and its
  surrogate curvature the constant 2*diag(L).  The solver is a
  diagonally-majorized (separable quadratic surrogate) projected update,
  monotone in the objective by construction; it evaluates the prior once
  per iterate and carries that gradient and the weighted residual into
  the next step.

All solver arithmetic is float64.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hsnct.containers import (
    HyperspectralSinogram,
    ScanGeometry,
    SubspaceSinogram,
    ValidationError,
    VolumeStack,
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
    "slice_geometry_for",
]

_FILTERS = ("ramp", "shepp-logan-window")
_PRIORS = ("quadratic-difference", "huber")
_ENGINES = ("fbp", "mbir")
# slices per reconstruction batch target this many (slice, channel) columns:
# the sparse products cost ~1.8x more per column at 4 columns than at 16-256
_BATCH_COLUMNS = 64

_ISQ2 = 1.0 / np.sqrt(2.0)
# forward offsets (drow, dcol, weight) covering each unordered neighbor pair once
_DIRS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, _ISQ2), (1, -1, _ISQ2))


@dataclass(frozen=True)
class SliceGeometry:
    """2D acquisition for one slice: view angles, detector width, and the
    square image grid sharing the detector's pixel pitch."""

    num_angles: int
    angles: np.ndarray
    num_detector_bins: int
    image_size: int
    pixel_pitch: float = 1.0

    def __post_init__(self):
        if self.num_angles < 1:
            raise ValidationError("num_angles must be >= 1")
        if self.num_detector_bins < 1 or self.image_size < 1:
            raise ValidationError("detector and image sizes must be >= 1")
        if not (self.pixel_pitch > 0):
            raise ValidationError("pixel_pitch must be > 0")
        angles = np.ascontiguousarray(self.angles, dtype=np.float64)
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        if angles.shape != (self.num_angles,):
            raise ValidationError(
                f"expected {self.num_angles} angles, got shape {angles.shape}")
        if not np.all(np.isfinite(angles)):
            raise ValidationError("angles must be finite")
        if np.any(angles < 0.0) or np.any(angles >= np.pi):
            raise ValidationError("angles must lie in [0, pi)")


@dataclass(frozen=True, eq=False)
class MbirOptions:
    prior: str = "quadratic-difference"
    regularization_weight: float = 1.0
    huber_delta: float = 0.1
    noise_weights: np.ndarray | None = None
    max_iters: int = 100
    rel_tol: float = 1e-5
    nonneg_constraint: bool = True

    def __post_init__(self):
        if self.prior not in _PRIORS:
            raise ValidationError(f"prior must be one of {_PRIORS}, got {self.prior!r}")
        if not (self.regularization_weight >= 0):
            raise ValidationError("regularization_weight must be >= 0")
        if not (self.huber_delta > 0):
            raise ValidationError("huber_delta must be > 0")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise ValidationError("rel_tol must be > 0")
        if self.noise_weights is not None:
            w = np.asarray(self.noise_weights, dtype=np.float64)
            if not np.all(np.isfinite(w)) or (w.size and float(w.min()) < 0):
                raise ValidationError("noise_weights must be finite and >= 0")
            if w.size and float(w.max()) == 0.0:
                raise ValidationError("noise_weights are all zero")
            object.__setattr__(self, "noise_weights", w)


def slice_geometry_for(geom: ScanGeometry) -> SliceGeometry:
    """The 2D geometry shared by every detector row of a parallel-beam scan."""
    return SliceGeometry(geom.num_views, geom.view_angles, geom.num_cols,
                         geom.num_cols, geom.pixel_pitch)


def project_volume(volume: VolumeStack, geom: ScanGeometry) -> np.ndarray:
    """Noiseless line integrals of every (slice, channel) pair.

    Returns float64 coefficients shaped [N_p, C] in the sinogram layout
    (view, row, col row-major), so the result aligns bin-for-bin with
    HyperspectralSinogram/SubspaceSinogram values.
    """
    if not isinstance(volume, VolumeStack):
        raise ValidationError(f"expected a VolumeStack, got {type(volume).__name__}")
    if volume.num_rows != geom.num_rows or volume.num_cols != geom.num_cols:
        raise ValidationError(
            f"volume grid ({volume.num_rows} slices of {volume.num_cols}^2) does "
            f"not match geometry ({geom.num_rows} rows, {geom.num_cols} cols)")
    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    C = volume.num_channels
    A0 = _system_matrix(slice_geometry_for(geom))
    vox = volume.voxels.astype(np.float64)
    out = np.empty((n_v, n_r, n_c, C))
    for r in range(n_r):
        block = A0 @ vox[r * n_c * n_c:(r + 1) * n_c * n_c] * geom.pixel_pitch
        out[:, r] = block.reshape(n_v, n_c, C)
    return out.reshape(n_v * n_r * n_c, C)


# system-matrix cache: geometries are tiny and few per process
_MATRIX_CACHE: dict = {}
_MATRIX_LOCK = threading.Lock()
_MATRIX_CACHE_MAX = 8


def _system_matrix(geom: SliceGeometry) -> sp.csr_matrix:
    """Interpolation-weight matrix A0, (num_angles*num_detector_bins) x n^2.

    Pure splat weights; the pixel-pitch length factor is applied by the
    callers.  Cached per geometry.
    """
    key = (geom.angles.tobytes(), geom.num_detector_bins, geom.image_size,
           geom.pixel_pitch)
    with _MATRIX_LOCK:
        if key in _MATRIX_CACHE:
            return _MATRIX_CACHE[key]
    n = geom.image_size
    nd = geom.num_detector_bins
    half = 0.5 * (n - 1)
    u = (np.arange(n) - half) * geom.pixel_pitch
    ua = np.repeat(u, n)      # row coordinate per flattened pixel
    ub = np.tile(u, n)        # col coordinate per flattened pixel
    pix = np.arange(n * n)
    rows, cols, vals = [], [], []
    for i, theta in enumerate(geom.angles):
        t = ua * np.cos(theta) + ub * np.sin(theta)
        g = t / geom.pixel_pitch + 0.5 * (nd - 1)
        i0 = np.floor(g).astype(np.int64)
        frac = g - i0
        for bins, w in ((i0, 1.0 - frac), (i0 + 1, frac)):
            ok = (bins >= 0) & (bins < nd) & (w > 0)
            rows.append(i * nd + bins[ok])
            cols.append(pix[ok])
            vals.append(w[ok])
    A0 = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.num_angles * nd, n * n), dtype=np.float64).tocsr()
    with _MATRIX_LOCK:
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_MAX:
            _MATRIX_CACHE.pop(next(iter(_MATRIX_CACHE)))
        _MATRIX_CACHE[key] = A0
    return A0


def forward_project(image: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Line integrals of a square slice: (num_angles, num_detector_bins)."""
    image = np.asarray(image, dtype=np.float64)
    n = geom.image_size
    if image.shape != (n, n):
        raise ValidationError(f"image shape {image.shape} != ({n}, {n})")
    if not np.all(np.isfinite(image)):
        raise ValidationError("image must be finite")
    A0 = _system_matrix(geom)
    sino = A0 @ image.ravel() * geom.pixel_pitch
    return sino.reshape(geom.num_angles, geom.num_detector_bins)


def back_project(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Exact transpose of forward_project."""
    sino = np.asarray(sino, dtype=np.float64)
    shape = (geom.num_angles, geom.num_detector_bins)
    if sino.shape != shape:
        raise ValidationError(f"sinogram shape {sino.shape} != {shape}")
    if not np.all(np.isfinite(sino)):
        raise ValidationError("sinogram must be finite")
    A0 = _system_matrix(geom)
    img = A0.T @ sino.ravel() * geom.pixel_pitch
    return img.reshape(geom.image_size, geom.image_size)


def _ramp_multiplier(n_pad: int, filter_name: str) -> np.ndarray:
    if filter_name not in _FILTERS:
        raise ValidationError(f"filter must be one of {_FILTERS}, got {filter_name!r}")
    f = np.fft.rfftfreq(n_pad)  # cycles per sample, 0 .. 0.5
    mult = f.copy()
    if filter_name == "shepp-logan-window":
        mult *= np.sinc(f)  # sin(pi f)/(pi f), unity at DC
    return mult


def _filter_rays(Y: np.ndarray, geom: SliceGeometry, filter_name: str) -> np.ndarray:
    """Ramp-filter per view; Y and result are (num_angles*nd, C) ray-major."""
    nd = geom.num_detector_bins
    n_pad = 1 << max(int(np.ceil(np.log2(2 * nd))), 1)
    mult = _ramp_multiplier(n_pad, filter_name)
    Y3 = Y.reshape(geom.num_angles, nd, -1)
    padded = np.zeros((geom.num_angles, n_pad, Y3.shape[2]))
    padded[:, :nd, :] = Y3
    spec = np.fft.rfft(padded, axis=1) * mult[None, :, None]
    filt = np.fft.irfft(spec, n=n_pad, axis=1)[:, :nd, :]
    return filt.reshape(Y.shape)


def _fbp_batch(Y: np.ndarray, geom: SliceGeometry, filter_name: str) -> np.ndarray:
    """FBP over ray-major channels: Y (m, C) -> images (n^2, C)."""
    q = _filter_rays(Y, geom, filter_name)
    A0 = _system_matrix(geom)
    # filtered values are in cycles-per-sample units: the 1/pitch from the
    # physical frequency axis and the 1/pitch^2 from backprojection fold
    # into one scale together with the angular quadrature weight
    scale = np.pi / (geom.num_angles * geom.pixel_pitch)
    return (A0.T @ q) * scale


def fbp_reconstruct(sino: np.ndarray, geom: SliceGeometry,
                    filter_name: str = "ramp") -> np.ndarray:
    """Filtered backprojection of one slice sinogram."""
    if geom.num_angles < 2:
        raise ValidationError("fbp needs at least 2 view angles")
    sino = np.asarray(sino, dtype=np.float64)
    shape = (geom.num_angles, geom.num_detector_bins)
    if sino.shape != shape:
        raise ValidationError(f"sinogram shape {sino.shape} != {shape}")
    if not np.all(np.isfinite(sino)):
        raise ValidationError("sinogram must be finite")
    img = _fbp_batch(sino.reshape(-1, 1), geom, filter_name)
    return img.reshape(geom.image_size, geom.image_size)


# --- edge-preserving / quadratic pairwise prior -----------------------------

def _pair_slices(da, db):
    ra = slice(da, None) if da else slice(None)
    rb = slice(None, -da) if da else slice(None)
    if db > 0:
        return (ra, slice(db, None)), (rb, slice(None, -db))
    if db < 0:
        return (ra, slice(None, db)), (rb, slice(-db, None))
    return (ra, slice(None)), (rb, slice(None))


@functools.lru_cache(maxsize=_MATRIX_CACHE_MAX)
def _laplacian(n: int):
    """Weighted graph Laplacian L of the 8-neighbor pairs of an n x n grid.

    The quadratic prior is 0.5*x^T L x, with gradient L x and the constant
    surrogate curvature 2*diag(L), returned alongside as a flat array.
    Cached per image size; about 9 nonzeros per row.
    """
    idx = np.arange(n * n).reshape(n, n)
    curv = np.zeros((n, n))
    rows, cols, vals = [], [], []
    for da, db, k in _DIRS:
        sa, sb = _pair_slices(da, db)
        ia, ib = idx[sa].ravel(), idx[sb].ravel()
        rows += [ia, ib]
        cols += [ib, ia]
        vals += [np.full(2 * ia.size, -k)]
        curv[sa] += 2.0 * k
        curv[sb] += 2.0 * k
    curv = curv.ravel()
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(0.5 * curv)
    L = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n)).tocsr()
    curv.flags.writeable = False
    return L, curv


def _huber_terms(X: np.ndarray, n: int, delta: float):
    """Value per channel, gradient and majorizing curvature of the Huber
    prior in one pass over the 4 pair directions; X is (n^2, C).

    Each pair contributes rho'(diff) with opposite signs to its endpoints
    and surrogate curvature 2*kappa*rho'(diff)/diff to both.
    """
    X3 = X.reshape(n, n, -1)
    value = np.zeros(X3.shape[2])
    G = np.zeros_like(X3)
    K = np.zeros_like(X3)
    for da, db, k in _DIRS:
        sa, sb = _pair_slices(da, db)
        D = X3[sa] - X3[sb]
        a = np.abs(D)
        m = np.minimum(a, delta)
        value += k * (m * (a - 0.5 * m)).sum(axis=(0, 1))
        g = np.clip(D, -delta, delta, out=D)
        G[sa] += k * g
        G[sb] -= k * g
        c = np.divide(delta, np.maximum(a, delta, out=a), out=a)
        c *= 2.0 * k
        K[sa] += c
        K[sb] += c
    flat = X.shape[0]
    return value, G.reshape(flat, -1), K.reshape(flat, -1)


def _prior_terms(X: np.ndarray, n: int, prior: str, delta: float):
    """(value per channel, gradient, curvature) of the pairwise prior at X.

    The quadratic prior's curvature is constant, so it comes back as None;
    the solver takes it from ``_laplacian`` once per solve.
    """
    if prior == "quadratic-difference":
        LX = _laplacian(n)[0] @ X
        return 0.5 * np.einsum("ij,ij->j", X, LX), LX, None
    return _huber_terms(X, n, delta)


def _sqs_solve(A: sp.csr_matrix, Y: np.ndarray, W: np.ndarray, n: int,
               opts: MbirOptions, X0: np.ndarray):
    """Majorized projected descent on a batch of independent channels.

    A is the length-scaled system matrix (m x n^2); Y, W, X0 are (m, C) /
    (n^2, C).  X0 is updated in place.  Each iteration does one A product,
    one A^T product and one prior evaluation: the weighted residual W*(AX - Y)
    and the prior gradient at the new iterate are carried into the next
    step.  Channels that meet the stopping rule are frozen, so each
    channel's float sequence is identical whether solved alone or batched.
    Returns (X, info list per channel).
    """
    C = Y.shape[1]
    beta = float(opts.regularization_weight)
    # a 1-pixel image has no neighbor pairs, so its prior is zero
    use_prior = beta > 0 and n > 1
    huber = use_prior and opts.prior == "huber"
    Da = A.T @ (W * (A @ np.ones(A.shape[1]))[:, None])
    if not huber:
        # constant denominator; pixels that no weighted ray and no prior
        # pair touch have a zero gradient and stay put (0/inf = 0)
        D = Da + beta * _laplacian(n)[1][:, None] if use_prior else Da
        D[D <= 0] = np.inf
    traces = [[] for _ in range(C)]
    iters = np.zeros(C, dtype=int)
    conv = np.zeros(C, dtype=bool)

    active = np.arange(C)
    Xa, Ya, Wa = X0, Y, W
    R = A @ Xa
    R -= Ya
    WR = Wa * R
    obj_prev = 0.5 * np.einsum("ij,ij->j", WR, R)
    if use_prior:
        value, pg, pc = _prior_terms(Xa, n, opts.prior, opts.huber_delta)
        obj_prev = obj_prev + beta * value
    final_obj = np.asarray(obj_prev, dtype=np.float64).copy()
    X = None

    for _ in range(opts.max_iters):
        if active.size == 0:
            break
        G = A.T @ WR
        if use_prior:
            pg *= beta
            G += pg
            if huber:
                pc *= beta
                pc += Da
                D = pc
        step = np.divide(G, D, out=G)
        np.subtract(Xa, step, out=Xa)
        if opts.nonneg_constraint:
            np.maximum(Xa, 0.0, out=Xa)
        R = A @ Xa
        R -= Ya
        np.multiply(Wa, R, out=WR)
        obj = 0.5 * np.einsum("ij,ij->j", WR, R)
        if use_prior:
            value, pg, pc = _prior_terms(Xa, n, opts.prior, opts.huber_delta)
            obj = obj + beta * value

        final_obj[active] = obj
        iters[active] += 1
        for local, chan in enumerate(active):
            traces[chan].append(float(obj[local]))
        done = (obj <= 0.0) | (np.abs(obj_prev - obj)
                               <= opts.rel_tol * np.maximum(obj_prev, 1e-300))
        if np.any(done):
            if X is None:
                X = np.empty((Xa.shape[0], C))
            X[:, active[done]] = Xa[:, done]
            conv[active[done]] = True
            keep = ~done
            active = active[keep]
            Xa, Ya, Wa, WR = Xa[:, keep], Ya[:, keep], Wa[:, keep], WR[:, keep]
            if use_prior:
                pg = pg[:, keep]
            if huber:
                pc, Da = pc[:, keep], Da[:, keep]
            else:
                D = D[:, keep]
            obj_prev = obj[keep]
        else:
            obj_prev = obj

    if X is None:
        X = Xa
    else:
        X[:, active] = Xa
    info = [{"iterations": int(iters[c]), "converged": bool(conv[c]),
             "objective": float(final_obj[c]),
             "objective_trace": np.asarray(traces[c])} for c in range(C)]
    return X, info


def _default_weights(Y: np.ndarray) -> np.ndarray:
    # transmission-proportional statistical weights: high attenuation means
    # few counts and an unreliable ray
    return np.exp(-Y)


def _mbir_batch(Y: np.ndarray, geom: SliceGeometry, opts: MbirOptions,
                W: np.ndarray | None = None):
    """MBIR over ray-major channels: Y (m, C) -> (images (n^2, C), info)."""
    A0 = _system_matrix(geom)
    A = (A0 * geom.pixel_pitch).tocsr()
    if W is None:
        W = _default_weights(Y)
    if geom.num_angles >= 2:
        X0 = _fbp_batch(Y, geom, "ramp")
        if opts.nonneg_constraint:
            np.maximum(X0, 0.0, out=X0)
    else:
        X0 = np.zeros((geom.image_size ** 2, Y.shape[1]))
    return _sqs_solve(A, Y, W, geom.image_size, opts, X0)


def mbir_reconstruct(sino: np.ndarray, geom: SliceGeometry,
                     opts: MbirOptions | None = None, return_info: bool = False):
    """Regularized weighted-least-squares reconstruction of one slice."""
    if opts is None:
        opts = MbirOptions()
    sino = np.asarray(sino, dtype=np.float64)
    shape = (geom.num_angles, geom.num_detector_bins)
    if sino.shape != shape:
        raise ValidationError(f"sinogram shape {sino.shape} != {shape}")
    if not np.all(np.isfinite(sino)):
        raise ValidationError("sinogram must be finite")
    if opts.noise_weights is not None:
        W = opts.noise_weights.reshape(-1, 1)
        if W.shape[0] != sino.size:
            raise ValidationError(
                f"noise_weights size {W.shape[0]} != measurement count {sino.size}")
        if float(W.max()) == 0.0:
            raise ValidationError("noise_weights are all zero")
    else:
        W = None
    X, info = _mbir_batch(sino.reshape(-1, 1), geom, opts, W)
    img = X[:, 0].reshape(geom.image_size, geom.image_size)
    return (img, info[0]) if return_info else img


def reconstruct_stack(sinos, geom: ScanGeometry, engine: str,
                      opts: MbirOptions | None = None, *,
                      fbp_filter: str = "ramp", threads: int = 1) -> VolumeStack:
    """Reconstruct every (slice, channel) pair of a measurement stack.

    ``sinos`` is a SubspaceSinogram (C = subspace channels) or a
    HyperspectralSinogram (C = wavelength bins).  Detector row r maps to
    volume slice r; the channels of consecutive slices are solved together,
    as independent columns of one batch.
    ``threads`` parallelizes over batches of slices; single-threaded runs
    are bit-reproducible.
    """
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
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
    if engine == "fbp" and opts is not None:
        raise ValidationError("options only apply to the mbir engine")
    if engine == "mbir" and opts is None:
        opts = MbirOptions()

    n_v, n_r, n_c = geom.num_views, geom.num_rows, geom.num_cols
    C = values.shape[1]
    sg = slice_geometry_for(geom)
    Y4 = values.astype(np.float64).reshape(n_v, n_r, n_c, C)

    W4 = None
    if engine == "mbir" and opts.noise_weights is not None:
        w = opts.noise_weights
        if w.shape == (n_v * n_r * n_c,):
            W4 = np.broadcast_to(w.reshape(n_v, n_r, n_c, 1), Y4.shape)
        elif w.shape == (n_v * n_r * n_c, C):
            W4 = w.reshape(n_v, n_r, n_c, C)
        else:
            raise ValidationError(
                f"noise_weights shape {w.shape} matches neither (N_p,) nor (N_p, C)")

    # consecutive slices share the system matrix, so they are solved as one
    # batch of (slice, channel) columns, up to about _BATCH_COLUMNS of them
    # and at least one batch per worker
    per = max(1, min(_BATCH_COLUMNS // C, -(-n_r // threads)))
    batches = [range(r, min(r + per, n_r)) for r in range(0, n_r, per)]
    out = np.empty((n_r, n_c * n_c, C))

    def columns(V4, rows):
        # (view, row, col, channel) -> rays x (slice, channel)
        return V4[:, rows.start:rows.stop].transpose(0, 2, 1, 3).reshape(
            n_v * n_c, len(rows) * C)

    def run_batch(rows: range):
        Y = columns(Y4, rows)
        if engine == "fbp":
            X = _fbp_batch(Y, sg, fbp_filter)
        else:
            W = None if W4 is None else columns(W4, rows)
            X, _ = _mbir_batch(Y, sg, opts, W)
        out[rows.start:rows.stop] = X.reshape(n_c * n_c, len(rows), C).transpose(1, 0, 2)

    if threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(batches))) as pool:
            list(pool.map(run_batch, batches))
    else:
        for rows in batches:
            run_batch(rows)
    return VolumeStack(out.reshape(n_r * n_c * n_c, C), n_r, n_c, geom.pixel_pitch)
