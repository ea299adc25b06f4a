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
  Huber.  The solver is a diagonally-majorized (separable quadratic
  surrogate) projected update, monotone in the objective by construction.

All solver arithmetic is float64.
"""

from __future__ import annotations

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


def _rho_value(D, prior, delta):
    if prior == "quadratic-difference":
        return 0.5 * D * D
    a = np.abs(D)
    return np.where(a <= delta, 0.5 * D * D, delta * a - 0.5 * delta * delta)


def _prior_value(X: np.ndarray, n: int, prior: str, delta: float) -> np.ndarray:
    """Pairwise roughness per channel; X is (n^2, C)."""
    X3 = X.reshape(n, n, -1)
    out = np.zeros(X3.shape[2])
    for da, db, k in _DIRS:
        sa, sb = _pair_slices(da, db)
        D = X3[sa] - X3[sb]
        out += k * _rho_value(D, prior, delta).sum(axis=(0, 1))
    return out


def _prior_grad_curv(X: np.ndarray, n: int, prior: str, delta: float):
    """Per-voxel gradient and majorizing curvature of the pairwise prior.

    Each pair contributes rho'(diff) with opposite signs to its endpoints
    and surrogate curvature 2*kappa*c(diff) to both, where c(t) = rho'(t)/t
    (Huber) or 1 (quadratic).
    """
    X3 = X.reshape(n, n, -1)
    G = np.zeros_like(X3)
    K = np.zeros_like(X3)
    for da, db, k in _DIRS:
        sa, sb = _pair_slices(da, db)
        D = X3[sa] - X3[sb]
        if prior == "quadratic-difference":
            g = D
            c = np.ones_like(D)
        else:
            g = np.clip(D, -delta, delta)
            a = np.abs(D)
            c = np.where(a <= delta, 1.0, delta / np.maximum(a, delta))
        G[sa] += k * g
        G[sb] -= k * g
        K[sa] += 2.0 * k * c
        K[sb] += 2.0 * k * c
    flat = X.shape[0]
    return G.reshape(flat, -1), K.reshape(flat, -1)


def _sqs_solve(A: sp.csr_matrix, Y: np.ndarray, W: np.ndarray, n: int,
               opts: MbirOptions, X0: np.ndarray):
    """Majorized projected descent on a batch of independent channels.

    A is the length-scaled system matrix (m x n^2); Y, W, X0 are (m, C) /
    (n^2, C).  Channels that meet the stopping rule are frozen, so each
    channel's float sequence is identical whether solved alone or batched.
    Returns (X, info list per channel).
    """
    m, C = Y.shape
    beta = float(opts.regularization_weight)
    X = X0.copy()
    d_data = A.T @ (W * (A @ np.ones(A.shape[1]))[:, None])
    traces = [[] for _ in range(C)]
    iters = np.zeros(C, dtype=int)
    conv = np.zeros(C, dtype=bool)

    active = np.arange(C)
    Xa = X.copy()
    AXa = A @ Xa
    Ya, Wa, Da = Y, W, d_data
    obj_prev = (0.5 * np.einsum("ij,ij->j", Wa * (AXa - Ya), AXa - Ya)
                + (beta * _prior_value(Xa, n, opts.prior, opts.huber_delta)
                   if beta > 0 else 0.0))
    final_obj = np.asarray(obj_prev, dtype=np.float64).copy()

    for _ in range(opts.max_iters):
        if active.size == 0:
            break
        R = AXa - Ya
        G = A.T @ (Wa * R)
        if beta > 0:
            pg, pc = _prior_grad_curv(Xa, n, opts.prior, opts.huber_delta)
            G += beta * pg
            D = Da + beta * pc
        else:
            D = Da
        step = np.divide(G, D, out=np.zeros_like(G), where=D > 0)
        Xn = Xa - step
        if opts.nonneg_constraint:
            np.maximum(Xn, 0.0, out=Xn)
        AXn = A @ Xn
        Rn = AXn - Ya
        obj = 0.5 * np.einsum("ij,ij->j", Wa * Rn, Rn)
        if beta > 0:
            obj = obj + beta * _prior_value(Xn, n, opts.prior, opts.huber_delta)

        X[:, active] = Xn
        final_obj[active] = obj
        iters[active] += 1
        for local, chan in enumerate(active):
            traces[chan].append(float(obj[local]))
        done = (obj <= 0.0) | (np.abs(obj_prev - obj)
                               <= opts.rel_tol * np.maximum(obj_prev, 1e-300))
        if np.any(done):
            conv[active[done]] = True
            keep = ~done
            active = active[keep]
            Xa, AXa = Xn[:, keep], AXn[:, keep]
            Ya, Wa, Da = Ya[:, keep], Wa[:, keep], Da[:, keep]
            obj_prev = obj[keep]
        else:
            Xa, AXa = Xn, AXn
            obj_prev = obj

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
    volume slice r; channels within a slice are solved as one batch.
    ``threads`` parallelizes over slices; single-threaded runs are
    bit-reproducible.
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

    out = np.empty((n_r * n_c * n_c, C))

    def run_slice(r: int):
        Y = Y4[:, r, :, :].reshape(n_v * n_c, C)
        if engine == "fbp":
            X = _fbp_batch(Y, sg, fbp_filter)
        else:
            W = None if W4 is None else np.ascontiguousarray(
                W4[:, r, :, :]).reshape(n_v * n_c, C)
            X, _ = _mbir_batch(Y, sg, opts, W)
        out[r * n_c * n_c:(r + 1) * n_c * n_c, :] = X

    if threads > 1 and n_r > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_slice, range(n_r)))
    else:
        for r in range(n_r):
            run_slice(r)
    return VolumeStack(out, n_r, n_c, geom.pixel_pitch)
