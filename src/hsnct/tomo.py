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
test exact up to float rounding.

Reconstructors:

* ``fbp_reconstruct``: frequency-domain ramp filtering per view (the bare
  ramp, no window; rows zero-padded to the next power of two >= twice the
  detector width), backprojection with A^T, and a pi/(num_angles*pitch^2)
  scale so a density-1 disk comes back at value ~1.
* ``mbir_reconstruct``: minimizes 0.5*||W^(1/2)(Ax - y)||^2 + beta*R(x)
  over x >= 0, where R sums rho(x_i - x_j) over 8-neighbor pairs (each
  unordered pair once, diagonals weighted 1/sqrt(2)) with rho quadratic or
  Huber.  The quadratic prior is 0.5*x^T L x with L the weighted graph
  Laplacian of the pairs, so its gradient is one sparse product and its
  surrogate curvature the constant 2*diag(L).  The solver takes
  diagonally-majorized (separable quadratic surrogate) steps projected
  onto x >= 0, starting from the FBP image clamped at 0, and accelerates
  them with per-channel momentum (Kim, Ramani & Fessler 2015) and two
  restarts (O'Donoghue & Candes 2015): one when a step turns against the
  momentum, one that discards a step that raised the objective.  A
  discarded step counts as an iteration and repeats the objective in the
  trace, so the trace does not increase.  Each iteration does one A and
  one A^T product and one prior evaluation.

Both run through one driver, ``_reconstruct_columns``, which takes
independent ray-major columns: one for a single slice, and one per
(slice, channel) pair for ``reconstruct_stack``.  It alone decides how
columns are grouped (parts of at most ``_BATCH_COLUMNS``, at least one per
worker), the MBIR start and default weights, and the threading.  Columns
never mix.

All solver arithmetic is float64.
"""

from __future__ import annotations

import functools
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
    require_count,
    require_positive,
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

_PRIORS = ("quadratic-difference", "huber")
_ENGINES = ("fbp", "mbir")
# columns per reconstruction part: the sparse products cost ~1.8x more per
# column at 4 columns than at 16-256, and the solver runs ~5-10 % slower per
# column at 256 than at 64
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
        require_positive(self.pixel_pitch, "pixel_pitch")
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

    def __post_init__(self):
        if self.prior not in _PRIORS:
            raise ValidationError(f"prior must be one of {_PRIORS}, got {self.prior!r}")
        if not (np.isfinite(self.regularization_weight) and self.regularization_weight >= 0):
            raise ValidationError("regularization_weight must be finite and >= 0")
        if not (np.isfinite(self.huber_delta) and self.huber_delta > 0):
            raise ValidationError("huber_delta must be finite and > 0")
        require_count(self.max_iters, "max_iters")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError("rel_tol must be finite and > 0")
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
    A = _system_matrix(slice_geometry_for(geom))
    vox = volume.voxels.astype(np.float64)
    out = np.empty((n_v, n_r, n_c, C))
    for r in range(n_r):
        out[:, r] = (A @ vox[r * n_c * n_c:(r + 1) * n_c * n_c]).reshape(n_v, n_c, C)
    return out.reshape(n_v * n_r * n_c, C)


def _system_matrix(geom: SliceGeometry) -> sp.csr_matrix:
    """The length-scaled system matrix A, (num_angles*num_detector_bins) x
    n^2: splat weights times the pixel pitch.

    Cached per geometry (the angles enter the key as bytes, since an
    ndarray does not hash).
    """
    return _splat_matrix(geom.angles.tobytes(), geom.num_detector_bins,
                         geom.image_size, geom.pixel_pitch)


# geometries are tiny and few per process
@functools.lru_cache(maxsize=8)
def _splat_matrix(angle_bytes: bytes, nd: int, n: int, pitch: float) -> sp.csr_matrix:
    angles = np.frombuffer(angle_bytes)
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
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(angles.size * nd, n * n), dtype=np.float64).tocsr()


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
    sino = _system_matrix(geom) @ image.ravel()
    return sino.reshape(geom.num_angles, geom.num_detector_bins)


def back_project(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Exact transpose of forward_project."""
    sino = _slice_input(sino, geom)
    img = _system_matrix(geom).T @ sino.ravel()
    return img.reshape(geom.image_size, geom.image_size)


def _fbp_batch(Y: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """FBP over ray-major columns: Y (m, C) -> images (n^2, C); each view
    is ramp-filtered, then backprojected."""
    if geom.num_angles < 2:
        raise ValidationError("fbp needs at least 2 view angles")
    nd = geom.num_detector_bins
    n_pad = 1 << max(int(np.ceil(np.log2(2 * nd))), 1)
    mult = np.fft.rfftfreq(n_pad)  # the ramp |f| in cycles per sample, 0 .. 0.5
    padded = np.zeros((geom.num_angles, n_pad, Y.shape[1]))
    padded[:, :nd, :] = Y.reshape(geom.num_angles, nd, -1)
    spec = np.fft.rfft(padded, axis=1) * mult[None, :, None]
    q = np.fft.irfft(spec, n=n_pad, axis=1)[:, :nd, :].reshape(Y.shape)
    # filtered values are in cycles-per-sample units and A^T carries one
    # pitch factor, so the physical units fold into one 1/pitch^2 scale
    # together with the angular quadrature weight
    scale = np.pi / (geom.num_angles * geom.pixel_pitch ** 2)
    return (_system_matrix(geom).T @ q) * scale


def fbp_reconstruct(sino: np.ndarray, geom: SliceGeometry) -> np.ndarray:
    """Filtered backprojection of one slice sinogram."""
    sino = _slice_input(sino, geom)
    img, _ = _reconstruct_columns(sino.reshape(-1, 1), geom, None)
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


@functools.lru_cache(maxsize=8)
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
    """Majorized projected descent with momentum on a batch of independent
    channels.

    A is the length-scaled system matrix (m x n^2); Y, W, X0 are (m, C) /
    (n^2, C); X0's memory is reused.  Each channel keeps its iterate x, an
    extrapolated point z and a momentum scalar t (z = x0 and t = 1 at the
    start), and one iteration is

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
    product, one A^T product and one prior evaluation (Huber adds a pass
    for its gradient and curvature at z).  Columns never mix and t is per
    channel, so a channel's float sequence is the same alone or batched.
    A channel that stops is saved and no longer recorded; stopped columns
    ride along until they make up a quarter of the batch, then are
    dropped.  Returns (X, info list per channel).
    """
    C = Y.shape[1]
    beta = float(opts.regularization_weight)
    # a 1-pixel image has no neighbor pairs, so its prior is zero
    use_prior = beta > 0 and n > 1
    huber = use_prior and opts.prior == "huber"
    quadratic = use_prior and not huber
    Dc = A.T @ (W * (A @ np.ones(A.shape[1]))[:, None])
    if not huber:
        # constant denominator; pixels that no weighted ray and no prior
        # pair touch have a zero gradient and stay put (0/inf = 0)
        if use_prior:
            Dc += beta * _laplacian(n)[1][:, None]
        Dc[Dc <= 0] = np.inf

    def evaluate(X, Yb, Wb, WR):
        """A X - Y, the prior's (value, gradient, curvature) and the
        objective at X; W*(A X - Y) goes into WR."""
        R = A @ X
        R -= Yb
        np.multiply(Wb, R, out=WR)
        obj = 0.5 * np.einsum("ij,ij->j", WR, R)
        terms = (None, None, None)
        if use_prior:
            terms = _prior_terms(X, n, opts.prior, opts.huber_delta)
            obj = obj + beta * terms[0]
        return R, terms[1], terms[2], obj

    traces = [[] for _ in range(C)]
    iters = np.zeros(C, dtype=int)
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
    RX, PX, KZ, fX = evaluate(X, Yb, Wb, WR)
    Z, RZ = X.copy(), RX.copy()
    PZ = None if PX is None else PX.copy()

    for _ in range(opts.max_iters):
        G = A.T @ WR
        D = Dc
        if use_prior:
            PZ *= beta
            G += PZ
        if huber:
            KZ *= beta
            KZ += Dc
            D = KZ
        Xn = np.divide(G, D, out=G)
        np.subtract(Z, Xn, out=Xn)
        np.maximum(Xn, 0.0, out=Xn)
        Rn, Pn, _, fn = evaluate(Xn, Yb, Wb, WR)

        back = (fn > fX) & (coef > 0)  # restart (b)
        if np.any(back):
            Xn[:, back] = X[:, back]
            Rn[:, back] = RX[:, back]
            if quadratic:
                Pn[:, back] = PX[:, back]
            fn[back] = fX[back]
        dX = np.subtract(Xn, X, out=X)
        Z -= Xn
        turned = np.einsum("ij,ij->j", Z, dX) > 0.0  # restart (a)
        # a discarded step, or one that turned against the momentum, is no
        # measure of convergence
        done = live & ~back & ~turned & (
            (fn <= 0.0) | (np.abs(fX - fn) <= opts.rel_tol * np.maximum(fX, 1e-300)))
        chans = idx[live]
        iters[chans] += 1
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
            PZ = np.subtract(Pn, PX, out=PX)
            PZ *= coef
            PZ += Pn
        elif huber:
            _, PZ, KZ = _huber_terms(Z, n, opts.huber_delta)
        X, RX, PX, fX = Xn, Rn, Pn, fn
        np.multiply(Wb, RZ, out=WR)

        if 4 * np.count_nonzero(~live) >= live.size:
            keep = live
            Yb, Wb, WR, X, Z, RX, RZ, PX, PZ, KZ, Dc, fX, t, coef, idx, live = (
                None if a is None else a[..., keep]
                for a in (Yb, Wb, WR, X, Z, RX, RZ, PX, PZ, KZ, Dc, fX, t, coef,
                          idx, live))

    out[:, idx[live]] = X[:, live]
    info = [{"iterations": int(iters[c]), "converged": bool(conv[c]),
             "objective": traces[c][-1],
             "objective_trace": np.asarray(traces[c])} for c in range(C)]
    return out, info


def _reconstruct_columns(Y: np.ndarray, geom: SliceGeometry, opts: MbirOptions | None,
                         W: np.ndarray | None = None, threads: int = 1):
    """Reconstruct independent ray-major columns: Y (m, C) -> (images
    (n^2, C), MBIR info per column).

    ``opts`` None runs FBP, and there is no info.  Otherwise MBIR starts
    from the FBP image clamped at 0 (zeros below 2 views), with weights W
    (m, C), or exp(-y) where W is None.  Columns never mix, so they are
    solved in parts of at most _BATCH_COLUMNS, with at least one part per
    worker, and the parts are spread over ``threads`` workers.
    """
    C = Y.shape[1]
    n = geom.image_size
    A = _system_matrix(geom)
    step = max(1, min(_BATCH_COLUMNS, -(-C // threads)))
    out = np.empty((n * n, C))

    def solve(start: int):
        part = slice(start, start + step)
        y = np.ascontiguousarray(Y[:, part])
        if opts is None:
            out[:, part] = _fbp_batch(y, geom)
            return []
        if geom.num_angles >= 2:
            x0 = np.maximum(_fbp_batch(y, geom), 0.0)
        else:
            x0 = np.zeros((n * n, y.shape[1]))
        # transmission-proportional statistical weights: high attenuation
        # means few counts and an unreliable ray
        w = np.exp(-y) if W is None else np.ascontiguousarray(W[:, part])
        X, info = _sqs_solve(A, y, w, n, opts, x0)
        out[:, part] = X
        return info

    starts = range(0, C, step)
    if threads == 1:
        infos = list(map(solve, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            infos = list(pool.map(solve, starts))
    return out, [i for info in infos for i in info]


def mbir_reconstruct(sino: np.ndarray, geom: SliceGeometry,
                     opts: MbirOptions | None = None, return_info: bool = False):
    """Regularized weighted-least-squares reconstruction of one slice."""
    if opts is None:
        opts = MbirOptions()
    sino = _slice_input(sino, geom)
    W = None
    if opts.noise_weights is not None:
        W = opts.noise_weights.reshape(-1, 1)
        if W.shape[0] != sino.size:
            raise ValidationError(
                f"noise_weights size {W.shape[0]} != measurement count {sino.size}")
    X, info = _reconstruct_columns(sino.reshape(-1, 1), geom, opts, W)
    img = X.reshape(geom.image_size, geom.image_size)
    return (img, info[0]) if return_info else img


def reconstruct_stack(sinos, geom: ScanGeometry, engine: str,
                      opts: MbirOptions | None = None, *,
                      threads: int = 1) -> VolumeStack:
    """Reconstruct every (slice, channel) pair of a measurement stack.

    ``sinos`` is a SubspaceSinogram (C = subspace channels) or a
    HyperspectralSinogram (C = wavelength bins).  Detector row r maps to
    volume slice r.  Every (slice, channel) pair is one column of a single
    ``_reconstruct_columns`` call, which spreads its parts over ``threads``
    workers.
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

    def columns(V):
        # (view, row, col, channel) -> rays (view, col) x (slice, channel)
        V4 = V.reshape(n_v, n_r, n_c, -1).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(V4, dtype=np.float64).reshape(n_v * n_c, -1)

    W = None
    if engine == "mbir" and opts.noise_weights is not None:
        w = opts.noise_weights
        if w.shape == values.shape[:1]:
            w = np.broadcast_to(w[:, None], values.shape)
        elif w.shape != values.shape:
            raise ValidationError(
                f"noise_weights shape {w.shape} matches neither (N_p,) nor (N_p, C)")
        W = columns(w)
    X, _ = _reconstruct_columns(columns(values), slice_geometry_for(geom), opts, W, threads)
    # pixels x (slice, channel) -> (slice, pixel, channel), cast once
    vox = np.ascontiguousarray(X.reshape(n_c * n_c, n_r, C).transpose(1, 0, 2),
                               dtype=np.float32)
    return VolumeStack(vox.reshape(-1, C), n_r, n_c, geom.pixel_pitch)
