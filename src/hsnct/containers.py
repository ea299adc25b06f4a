"""Shared array containers and the ``.hsnct`` on-disk format.

Every array that crosses a module or process boundary is one of the typed
containers below, and every file on disk is the same single format:

    8-byte magic ``HSNCT1\\n\\0``
    uint32 little-endian header length
    UTF-8 JSON header (sorted keys, compact separators)
    raw little-endian float32 payload, row-major

The header always carries ``dtype`` (``"f32le"``), ``shape``, ``axis_order``
and ``role``; ``geometry`` and ``spectral`` sub-dicts are present when the
container type has them.  Identical logical content produces identical bytes
on every platform.

Axis orders:

    ``view,row,col,bin``       4-D measurement-domain arrays (raw scans,
                               sinograms; for subspace sinograms the ``bin``
                               axis indexes subspace channels)
    ``row,col,slice,channel``  reconstructed volumes, shape [N_r,N_c,N_c,C]
    ``bin,channel``            the 2-D spectral basis, shape [N_k,N_s]

In-memory layout is row-major with the spectral/channel index
fastest-varying, so one row of a sinogram is a single pixel's full spectrum.
Arrays are float32 and marked read-only after construction; heavy numerics
upcast to float64 internally.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PLANCK_H",
    "NEUTRON_MASS",
    "MAGIC",
    "ALLOWED_AXIS_ORDERS",
    "ValidationError",
    "ContainerError",
    "ScanGeometry",
    "SpectralAxis",
    "ToFConverter",
    "RawScan",
    "HyperspectralSinogram",
    "SubspaceSinogram",
    "SpectralBasis",
    "VolumeStack",
    "require_count",
    "require_positive",
    "sinogram_row_count",
    "tof_to_wavelength",
    "write_container",
    "read_container",
    "load_container",
    "load_raw_scan",
    "load_sinogram",
    "load_subspace_sinogram",
    "load_basis",
    "load_volume",
]

# CODATA 2018
PLANCK_H = 6.62607015e-34  # J*s
NEUTRON_MASS = 1.67492749804e-27  # kg

MAGIC = b"HSNCT1\n\0"
ALLOWED_AXIS_ORDERS = ("view,row,col,bin", "row,col,slice,channel", "bin,channel")


class ValidationError(ValueError):
    """A container invariant or precondition does not hold."""


class ContainerError(OSError):
    """A ``.hsnct`` file is malformed: bad magic, bad header, short payload."""


def _as_f32(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float32)
    arr.flags.writeable = False
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def require_count(value, name: str):
    """Raise ValidationError unless ``value`` is an integer >= 1 (a bool is
    not a count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def require_positive(value, name: str):
    """Raise ValidationError unless ``value`` is finite and > 0."""
    _require(bool(np.isfinite(value)) and value > 0,
             f"{name} must be > 0 and finite, got {value!r}")


def sinogram_row_count(geometry: "ScanGeometry") -> int:
    """Number of measurement rows N_p = N_v * N_r * N_c."""
    return geometry.num_views * geometry.num_rows * geometry.num_cols


@dataclass(frozen=True)
class ScanGeometry:
    """Parallel-beam acquisition description.

    ``view_angles`` are radians, strictly increasing, all in [0, pi).
    ``flight_path`` is the source-to-detector distance in meters and
    ``pixel_pitch`` the physical size of one detector pixel (also used as
    the voxel pitch of reconstructed slices).
    """

    num_views: int
    num_rows: int
    num_cols: int
    view_angles: np.ndarray
    flight_path: float
    pixel_pitch: float = 1.0

    def __post_init__(self):
        _require(self.num_views >= 1, "num_views must be >= 1")
        _require(self.num_rows >= 1, "num_rows must be >= 1")
        _require(self.num_cols >= 1, "num_cols must be >= 1")
        angles = np.ascontiguousarray(self.view_angles, dtype=np.float64)
        angles.flags.writeable = False
        object.__setattr__(self, "view_angles", angles)
        _require(angles.shape == (self.num_views,),
                 f"expected {self.num_views} view angles, got shape {angles.shape}")
        _require(np.all(np.isfinite(angles)), "view angles must be finite")
        _require(np.all(angles >= 0.0) and np.all(angles < np.pi),
                 "view angles must lie in [0, pi)")
        if self.num_views > 1:
            _require(np.all(np.diff(angles) > 0), "view angles must be strictly increasing")
        require_positive(self.flight_path, "flight_path")
        require_positive(self.pixel_pitch, "pixel_pitch")


@dataclass(frozen=True)
class ToFConverter:
    """Time-of-flight to wavelength conversion constants.

    wavelength = (planck_h / neutron_mass) * (dt / flight_path)
    """

    flight_path: float
    planck_h: float = PLANCK_H
    neutron_mass: float = NEUTRON_MASS

    def __post_init__(self):
        require_positive(self.planck_h, "planck_h")
        require_positive(self.neutron_mass, "neutron_mass")
        require_positive(self.flight_path, "flight_path")


def tof_to_wavelength(converter: ToFConverter, dt):
    """Wavelength(s) in meters for time-of-flight ``dt`` in seconds.

    Linear map (h/m_n) * dt / L; rejects negative dt.
    """
    dt_arr = np.asarray(dt, dtype=np.float64)
    _require(bool(np.all(np.isfinite(dt_arr))), "dt must be finite")
    _require(not np.any(dt_arr < 0), "dt must be >= 0")
    out = (converter.planck_h / converter.neutron_mass) * (dt_arr / converter.flight_path)
    return float(out) if np.ndim(dt) == 0 else out


@dataclass(frozen=True)
class SpectralAxis:
    """Wavelength binning: N_k+1 strictly increasing ToF edges plus the
    derived per-bin wavelength centers (midpoint ToF mapped through the
    converter)."""

    tof_edges: np.ndarray
    converter: ToFConverter
    wavelength_centers: np.ndarray = field(init=False)

    def __post_init__(self):
        edges = np.ascontiguousarray(self.tof_edges, dtype=np.float64)
        edges.flags.writeable = False
        object.__setattr__(self, "tof_edges", edges)
        _require(edges.ndim == 1 and edges.size >= 2, "tof_edges must hold at least 2 values")
        _require(np.all(np.isfinite(edges)), "tof_edges must be finite")
        _require(edges[0] >= 0.0, "tof_edges must be >= 0")
        _require(np.all(np.diff(edges) > 0), "tof_edges must be strictly increasing")
        centers = tof_to_wavelength(self.converter, 0.5 * (edges[:-1] + edges[1:]))
        centers.flags.writeable = False
        object.__setattr__(self, "wavelength_centers", centers)

    @property
    def num_bins(self) -> int:
        return self.tof_edges.size - 1


@dataclass(frozen=True)
class RawScan:
    """Measured counts: sample radiographs [N_v,N_r,N_c,N_k] plus one
    open-beam radiograph [N_r,N_c,N_k], all non-negative."""

    counts: np.ndarray
    open_beam: np.ndarray
    geometry: ScanGeometry
    axis: SpectralAxis

    def __post_init__(self):
        g, ax = self.geometry, self.axis
        counts = _as_f32(self.counts, "counts")
        open_beam = _as_f32(self.open_beam, "open_beam")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "open_beam", open_beam)
        expect = (g.num_views, g.num_rows, g.num_cols, ax.num_bins)
        _require(counts.shape == expect,
                 f"counts shape {counts.shape} does not match geometry/axis {expect}")
        _require(open_beam.shape == expect[1:],
                 f"open_beam shape {open_beam.shape} does not match geometry/axis {expect[1:]}")
        _require(counts.size == 0 or float(counts.min()) >= 0.0, "counts must be >= 0")
        _require(open_beam.size == 0 or float(open_beam.min()) >= 0.0, "open_beam must be >= 0")


@dataclass(frozen=True)
class HyperspectralSinogram:
    """Normalized projections viewed as [N_p, N_k], N_p = N_v*N_r*N_c.
    Entries are finite; they may be negative if clamping was disabled."""

    values: np.ndarray
    geometry: ScanGeometry
    axis: SpectralAxis

    def __post_init__(self):
        values = _as_f32(self.values, "values")
        object.__setattr__(self, "values", values)
        n_p = sinogram_row_count(self.geometry)
        _require(values.shape == (n_p, self.axis.num_bins),
                 f"values shape {values.shape} does not match "
                 f"(N_p={n_p}, N_k={self.axis.num_bins})")

    @property
    def num_bins(self) -> int:
        return self.axis.num_bins


@dataclass(frozen=True)
class SubspaceSinogram:
    """Non-negative subspace coefficient views, [N_p, N_s]."""

    coeffs: np.ndarray
    geometry: ScanGeometry

    def __post_init__(self):
        coeffs = _as_f32(self.coeffs, "coeffs")
        object.__setattr__(self, "coeffs", coeffs)
        n_p = sinogram_row_count(self.geometry)
        _require(coeffs.ndim == 2 and coeffs.shape[0] == n_p,
                 f"coeffs shape {coeffs.shape} does not match N_p={n_p}")
        _require(coeffs.shape[1] >= 1, "subspace rank must be >= 1")
        _require(coeffs.size == 0 or float(coeffs.min()) >= 0.0, "coeffs must be >= 0")

    @property
    def rank(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class SpectralBasis:
    """Non-negative spectral basis, [N_k, N_s]; every column carries energy.

    Columns are kept in the canonical order produced by the factorization
    (descending L2 norm of the paired coefficient columns, ties broken by
    element-wise comparison)."""

    basis: np.ndarray
    axis: SpectralAxis

    def __post_init__(self):
        basis = _as_f32(self.basis, "basis")
        object.__setattr__(self, "basis", basis)
        _require(basis.ndim == 2, "basis must be 2-D [N_k, N_s]")
        _require(basis.shape[0] == self.axis.num_bins,
                 f"basis has {basis.shape[0]} bins, axis has {self.axis.num_bins}")
        _require(basis.shape[1] >= 1, "basis must have at least one column")
        _require(basis.size == 0 or float(basis.min()) >= 0.0, "basis must be >= 0")
        col_max = basis.max(axis=0) if basis.size else np.zeros(basis.shape[1])
        _require(bool(np.all(col_max > 0)), "basis contains an all-zero column")

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class VolumeStack:
    """Reconstructed voxel grids, [N_x, C] with N_x = N_r*N_c*N_c.

    Voxel index (r, a, b) flattens C-order: one N_c x N_c slice per detector
    row r.  C is N_s for subspace volumes and N_k for hyperspectral ones."""

    voxels: np.ndarray
    num_rows: int
    num_cols: int
    voxel_pitch: float = 1.0

    def __post_init__(self):
        voxels = _as_f32(self.voxels, "voxels")
        object.__setattr__(self, "voxels", voxels)
        _require(self.num_rows >= 1 and self.num_cols >= 1, "grid dims must be >= 1")
        require_positive(self.voxel_pitch, "voxel_pitch")
        n_x = self.num_rows * self.num_cols * self.num_cols
        _require(voxels.ndim == 2 and voxels.shape[0] == n_x,
                 f"voxels shape {voxels.shape} does not match N_x="
                 f"{self.num_rows}*{self.num_cols}^2={n_x}")
        _require(voxels.shape[1] >= 1, "channel count must be >= 1")

    @property
    def num_channels(self) -> int:
        return self.voxels.shape[1]

    def slice_image(self, z: int, channel: int) -> np.ndarray:
        """One reconstructed N_c x N_c slice."""
        n = self.num_cols
        _require(0 <= z < self.num_rows, f"slice index {z} out of range [0, {self.num_rows})")
        _require(0 <= channel < self.num_channels,
                 f"channel index {channel} out of range [0, {self.num_channels})")
        return self.voxels.reshape(self.num_rows, n, n, -1)[z, :, :, channel]


# ---------------------------------------------------------------------------
# serialization helpers

def geometry_header(g: ScanGeometry) -> dict:
    """JSON-compatible description of a ScanGeometry (inverse of
    geometry_from_header)."""
    return {
        "num_views": g.num_views,
        "num_rows": g.num_rows,
        "num_cols": g.num_cols,
        "view_angles": [float(a) for a in g.view_angles],
        "flight_path": float(g.flight_path),
        "pixel_pitch": float(g.pixel_pitch),
    }


def spectral_header(ax: SpectralAxis) -> dict:
    """JSON-compatible description of a SpectralAxis (inverse of
    spectral_from_header)."""
    return {
        "tof_edges": [float(t) for t in ax.tof_edges],
        "flight_path": float(ax.converter.flight_path),
        "planck_h": float(ax.converter.planck_h),
        "neutron_mass": float(ax.converter.neutron_mass),
    }


def geometry_from_header(h: dict) -> ScanGeometry:
    # a missing key or a value of the wrong JSON type is a malformed
    # container; ScanGeometry's own checks still raise ValidationError
    try:
        fields = dict(
            num_views=int(h["num_views"]),
            num_rows=int(h["num_rows"]),
            num_cols=int(h["num_cols"]),
            view_angles=np.asarray(h["view_angles"], dtype=np.float64),
            flight_path=float(h["flight_path"]),
            pixel_pitch=float(h.get("pixel_pitch", 1.0)),
        )
    except KeyError as exc:
        raise ContainerError(f"geometry header is missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # a non-object header or a bad value
        raise ContainerError(f"malformed geometry header: {exc}") from None
    return ScanGeometry(**fields)


def spectral_from_header(h: dict) -> SpectralAxis:
    try:
        flight_path = float(h["flight_path"])
        planck_h = float(h.get("planck_h", PLANCK_H))
        neutron_mass = float(h.get("neutron_mass", NEUTRON_MASS))
        tof_edges = np.asarray(h["tof_edges"], dtype=np.float64)
    except KeyError as exc:
        raise ContainerError(f"spectral header is missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # a non-object header or a bad value
        raise ContainerError(f"malformed spectral header: {exc}") from None
    return SpectralAxis(tof_edges, ToFConverter(flight_path=flight_path, planck_h=planck_h,
                                                neutron_mass=neutron_mass))


def _pack(data) -> tuple[dict, np.ndarray]:
    """Header dict + payload array for a typed container (inverse of _unpack)."""
    if isinstance(data, RawScan):
        payload = np.concatenate([data.counts, data.open_beam[None]], axis=0)
        return {
            "role": "raw-scan",
            "axis_order": "view,row,col,bin",
            "geometry": geometry_header(data.geometry),
            "spectral": spectral_header(data.axis),
        }, payload
    if isinstance(data, HyperspectralSinogram):
        g = data.geometry
        payload = data.values.reshape(g.num_views, g.num_rows, g.num_cols, data.axis.num_bins)
        return {
            "role": "sinogram",
            "axis_order": "view,row,col,bin",
            "geometry": geometry_header(g),
            "spectral": spectral_header(data.axis),
        }, payload
    if isinstance(data, SubspaceSinogram):
        g = data.geometry
        payload = data.coeffs.reshape(g.num_views, g.num_rows, g.num_cols, data.rank)
        return {
            "role": "subspace-sinogram",
            "axis_order": "view,row,col,bin",
            "geometry": geometry_header(g),
        }, payload
    if isinstance(data, SpectralBasis):
        return {
            "role": "basis",
            "axis_order": "bin,channel",
            "spectral": spectral_header(data.axis),
        }, data.basis
    if isinstance(data, VolumeStack):
        payload = data.voxels.reshape(data.num_rows, data.num_cols, data.num_cols,
                                      data.num_channels)
        return {
            "role": "volume",
            "axis_order": "row,col,slice,channel",
            "voxel_pitch": float(data.voxel_pitch),
        }, payload
    raise ValidationError(f"cannot serialize object of type {type(data).__name__}")


def _unpack(header: dict, arr: np.ndarray, path):
    """The typed container a header's role and payload describe (inverse of
    _pack)."""
    role = header.get("role")
    if role == "basis":
        return SpectralBasis(arr, spectral_from_header(header.get("spectral", {})))
    if role == "volume":
        if arr.ndim != 4 or arr.shape[2] != arr.shape[1]:
            raise ValidationError(f"{path}: volume shape {arr.shape} is not [N_r,N_c,N_c,C]")
        try:
            pitch = float(header.get("voxel_pitch", 1.0))
        except TypeError as exc:  # a null or list value
            raise ContainerError(f"{path}: malformed voxel_pitch: {exc}") from None
        n_r, n_c = arr.shape[0], arr.shape[1]
        return VolumeStack(arr.reshape(n_r * n_c * n_c, arr.shape[3]), n_r, n_c,
                           voxel_pitch=pitch)
    geom = geometry_from_header(header.get("geometry", {}))
    # a raw scan stores its open-beam radiograph as one more view
    views = geom.num_views + (role == "raw-scan")
    if arr.ndim != 4 or arr.shape[:3] != (views, geom.num_rows, geom.num_cols):
        raise ValidationError(
            f"{path}: {role} shape {list(arr.shape)} does not match its geometry's "
            f"[{views}, {geom.num_rows}, {geom.num_cols}, C]")
    if role == "subspace-sinogram":
        return SubspaceSinogram(arr.reshape(-1, arr.shape[3]), geom)
    axis = spectral_from_header(header.get("spectral", {}))
    if role == "sinogram":
        return HyperspectralSinogram(arr.reshape(-1, arr.shape[3]), geom, axis)
    return RawScan(arr[: geom.num_views], arr[geom.num_views], geom, axis)


def write_container(path, data, extra_header: dict | None = None) -> None:
    """Write a typed container to ``path``.

    The header is derived from ``data``; ``extra_header`` entries are merged
    into it, and entries that contradict a derived value are rejected.  The
    file is written to a temporary name in the same directory and then
    renamed onto ``path``, so an existing target is replaced whole or left
    as it was.
    """
    header, payload = _pack(data)
    header["dtype"] = "f32le"
    header["shape"] = list(payload.shape)
    for key, value in (extra_header or {}).items():
        if header.setdefault(key, value) != value:
            raise ValidationError(f"extra header key {key!r} conflicts with derived value")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        try:
            with open(tmp, "xb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)
                fh.write(payload.astype("<f4", copy=False).tobytes(order="C"))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ContainerError(f"cannot write {path}: {exc}") from exc
def read_container(path) -> tuple[dict, np.ndarray]:
    """Read a ``.hsnct`` file back as (header, float32 array).

    Raises :class:`ContainerError` on bad magic, malformed header, or a
    payload whose byte length does not match the declared shape, and
    :class:`ValidationError` if the payload contains non-finite entries
    (every declared type forbids them).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ContainerError(f"cannot read {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"{path}: bad magic, not an .hsnct container")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    body = len(MAGIC) + 4
    if body + hlen > len(raw):
        raise ContainerError(f"{path}: header extends past end of file")
    try:
        header = json.loads(raw[body : body + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    if header.get("dtype") != "f32le":
        raise ContainerError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    axis_order = header.get("axis_order")
    if axis_order not in ALLOWED_AXIS_ORDERS:
        raise ContainerError(f"{path}: axis_order {axis_order!r} not in allowed set")
    shape = header.get("shape")
    if (not isinstance(shape, list) or not shape
            or not all(isinstance(s, int) and s >= 1 for s in shape)):
        raise ContainerError(f"{path}: bad shape {shape!r}")
    count = int(np.prod(shape))
    expected = count * 4
    available = len(raw) - body - hlen
    if available < expected:
        raise ContainerError(
            f"{path}: truncated payload, need {expected} bytes, have {available}")
    if available > expected:
        raise ContainerError(
            f"{path}: {available - expected} trailing bytes after payload")
    arr = np.frombuffer(raw, dtype="<f4", count=count, offset=body + hlen)
    arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: payload contains non-finite entries")
    arr.flags.writeable = False
    return header, arr


def load_container(path, *roles: str):
    """Read ``path`` as the typed container of its role, which must be one
    of ``roles``; returns (container, header)."""
    header, arr = read_container(path)
    if header.get("role") not in roles:
        raise ValidationError(
            f"{path}: expected a {' or '.join(map(repr, roles))} container, "
            f"found role {header.get('role')!r}")
    return _unpack(header, arr, path), header


def load_raw_scan(path) -> RawScan:
    return load_container(path, "raw-scan")[0]


def load_sinogram(path) -> HyperspectralSinogram:
    return load_container(path, "sinogram")[0]


def load_subspace_sinogram(path) -> SubspaceSinogram:
    return load_container(path, "subspace-sinogram")[0]


def load_basis(path) -> SpectralBasis:
    return load_container(path, "basis")[0]


def load_volume(path) -> tuple[VolumeStack, dict]:
    """Volume plus its header (the header may carry a spectral dict)."""
    return load_container(path, "volume")
