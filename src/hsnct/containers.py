"""Shared array containers and the ``.hsnct`` on-disk format.

Every array that crosses a module or process boundary is one of the typed
containers below, and every file on disk is the same single format:

    8-byte magic ``HSNCT1\\n\\0``
    uint32 little-endian header length
    UTF-8 JSON header (sorted keys, compact separators)
    raw little-endian float32 payload, row-major

The header always carries ``dtype`` (``"f32le"``), ``shape``, ``axis_order``
and ``role``; the role fixes which of the ``geometry`` and ``spectral``
sub-dicts it carries (a volume may also carry the spectral axis of its
channels).  One table gives each geometry, spectral and volume key its JSON
kind (integer count, real number or list of reals): readers check that kind
and writers convert to it.  Identical logical content produces identical
bytes on every platform.

The role fixes the axis order (``AXIS_ORDERS``); a header whose
``axis_order`` disagrees with its role, that holds a value of the wrong JSON
type (``2.9`` as a count, ``"10"`` as a length) or whose geometry/spectral
dict misses a key or has one its dataclass lacks, raises ContainerError:

    ``view,row,col,bin``       raw scans, sinograms, subspace sinograms
                               (channels on ``bin``)
    ``row,col,slice,channel``  volumes, shape [N_r,N_c,N_c,C]
    ``bin,channel``            the spectral basis, shape [N_k,N_s]

In-memory layout is row-major with the spectral/channel index
fastest-varying, so one row of a sinogram is a single pixel's full spectrum.
Arrays are float32 and marked read-only after construction; heavy numerics
upcast to float64 internally.

Each scalar input rule is written once here, as a ``require_*`` function
that the type owning the input calls.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import reprlib
import struct
import uuid
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PLANCK_H",
    "NEUTRON_MASS",
    "MAGIC",
    "AXIS_ORDERS",
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
    "require_nonneg_int",
    "require_positive",
    "require_nonneg",
    "require_view_angles",
    "sinogram_row_count",
    "tof_to_wavelength",
    "write_container",
    "load_container",
    "load_raw_scan",
    "load_sinogram",
    "load_basis",
    "load_volume",
]

# CODATA 2018
PLANCK_H = 6.62607015e-34  # J*s
NEUTRON_MASS = 1.67492749804e-27  # kg

MAGIC = b"HSNCT1\n\0"
AXIS_ORDERS = {"raw-scan": "view,row,col,bin", "sinogram": "view,row,col,bin",
               "subspace-sinogram": "view,row,col,bin", "basis": "bin,channel",
               "volume": "row,col,slice,channel"}
# the header sections each role carries; a volume may carry the spectral axis of its channels
_SECTIONS = {"raw-scan": ("geometry", "spectral"), "sinogram": ("geometry", "spectral"),
             "subspace-sinogram": ("geometry",), "basis": ("spectral",), "volume": ()}


class ValidationError(ValueError):
    """A container invariant or precondition does not hold."""


class ContainerError(OSError):
    """A ``.hsnct`` file is malformed: bad magic, bad header, short payload."""


_BLOCK_ROWS = 4096  # rows per float64 block of an [N, C] array: 8 MiB at 256 bins


def _row_blocks(X):
    """X's rows, ``_BLOCK_ROWS`` at a time, each block a float64 copy."""
    return (X[i:i + _BLOCK_ROWS].astype(np.float64) for i in range(0, X.shape[0], _BLOCK_ROWS))


def _require_finite(arr: np.ndarray, msg: str):
    """``arr``'s min (inf if empty), or ValidationError(msg) if an entry is NaN
    or +-inf: then the min or the max is, a test with no array-sized mask."""
    if not arr.size:
        return np.inf
    lo = arr.min()
    _require(bool(np.isfinite(lo) and np.isfinite(arr.max())), msg)
    return lo


def _as_f32(values, name: str, nonneg: bool = False) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float32)
    arr.flags.writeable = False
    lo = _require_finite(arr, f"{name} contains non-finite entries")
    _require(not nonneg or lo >= 0.0, f"{name} must be >= 0")
    return arr


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # numpy's float and integer scalars are numbers.Real; bool is not a number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # a real number that float64 holds: not NaN, +-inf or an integer beyond its range
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _float64_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only contiguous float64 array; an entry beyond the
    float64 range is a ValidationError."""
    try:
        arr = np.ascontiguousarray(values, dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"{name} holds a value beyond the float64 range") from None
    arr.flags.writeable = False
    return arr


class _Kind(NamedTuple):
    """A header value's JSON kind: the test a reader applies, the conversion a writer applies."""

    check: Callable[[object], bool]
    write: Callable[[object], object]


# the JSON kind of each geometry, spectral and volume value; the dataclasses check the values
_HEADER_KINDS = {
    **dict.fromkeys(("num_views", "num_rows", "num_cols"), _Kind(_is_integer, int)),
    **dict.fromkeys(("flight_path", "pixel_pitch", "planck_h", "neutron_mass", "voxel_pitch"),
                    _Kind(_is_real, float)),
    **dict.fromkeys(("view_angles", "tof_edges"),
                    _Kind(lambda v: isinstance(v, list) and all(map(_is_real, v)),
                          lambda v: [float(x) for x in v])),
}


def require_count(value, name: str):
    """Raise ValidationError unless ``value`` is an integer >= 1 (a bool is not a count)."""
    _require(_is_integer(value) and value >= 1,
             f"{name} must be >= 1 and an integer, got {value!r}")


def require_nonneg_int(value, name: str):
    """Raise ValidationError unless ``value`` is an integer >= 0 (not a bool)."""
    _require(_is_integer(value) and value >= 0,
             f"{name} must be an integer >= 0, got {value!r}")


def require_positive(value, name: str):
    """Raise ValidationError unless ``value`` is a real number, finite and > 0."""
    _require(_is_finite(value) and value > 0,
             f"{name} must be > 0 and finite, got {value!r}")


def require_nonneg(value, name: str):
    """Raise ValidationError unless ``value`` is a real number, finite and >= 0."""
    _require(_is_finite(value) and value >= 0,
             f"{name} must be >= 0 and finite, got {value!r}")


def require_view_angles(values) -> np.ndarray:
    """``values`` as a read-only, non-empty 1-D float64 array of angles in [0, pi)."""
    angles = _float64_array(values, "view angles")
    _require(angles.ndim == 1 and angles.size >= 1,
             f"view angles must be a non-empty 1-D array, got shape {angles.shape}")
    # NaN and +-inf fail the range test too
    _require(np.all((angles >= 0.0) & (angles < np.pi)),
             "view angles must be finite and lie in [0, pi)")
    return angles


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
        for name in ("num_views", "num_rows", "num_cols"):
            require_count(getattr(self, name), name)
        angles = require_view_angles(self.view_angles)
        object.__setattr__(self, "view_angles", angles)
        _require(angles.size == self.num_views,
                 f"expected {self.num_views} view angles, got shape {angles.shape}")
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
    _require(_require_finite(dt_arr, "dt must be finite") >= 0, "dt must be >= 0")
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
        edges = _float64_array(self.tof_edges, "tof_edges")
        object.__setattr__(self, "tof_edges", edges)
        _require(edges.ndim == 1 and edges.size >= 2, "tof_edges must hold at least 2 values")
        _require(_require_finite(edges, "tof_edges must be finite") >= 0, "tof_edges must be >= 0")
        _require(np.all(np.diff(edges) > 0), "tof_edges must be strictly increasing")
        centers = tof_to_wavelength(self.converter, 0.5 * (edges[:-1] + edges[1:]))
        centers.flags.writeable = False
        object.__setattr__(self, "wavelength_centers", centers)

    @property
    def num_bins(self) -> int:
        return self.tof_edges.size - 1


def _require_one_flight_path(g: ScanGeometry, axis: SpectralAxis):
    # wavelengths come from the axis's flight path, so the geometry's must agree
    _require(g.flight_path == axis.converter.flight_path, f"geometry flight_path "
             f"{g.flight_path!r} != spectral flight_path {axis.converter.flight_path!r}")


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
        counts = _as_f32(self.counts, "counts", nonneg=True)
        open_beam = _as_f32(self.open_beam, "open_beam", nonneg=True)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "open_beam", open_beam)
        expect = (g.num_views, g.num_rows, g.num_cols, ax.num_bins)
        _require(counts.shape == expect,
                 f"counts shape {counts.shape} does not match geometry/axis {expect}")
        _require(open_beam.shape == expect[1:],
                 f"open_beam shape {open_beam.shape} does not match geometry/axis {expect[1:]}")
        _require_one_flight_path(g, ax)


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
        _require_one_flight_path(self.geometry, self.axis)

    @property
    def num_bins(self) -> int:
        return self.axis.num_bins


@dataclass(frozen=True)
class SubspaceSinogram:
    """Non-negative subspace coefficient views, [N_p, N_s]."""

    coeffs: np.ndarray
    geometry: ScanGeometry

    def __post_init__(self):
        coeffs = _as_f32(self.coeffs, "coeffs", nonneg=True)
        object.__setattr__(self, "coeffs", coeffs)
        n_p = sinogram_row_count(self.geometry)
        _require(coeffs.ndim == 2 and coeffs.shape[0] == n_p,
                 f"coeffs shape {coeffs.shape} does not match N_p={n_p}")
        _require(coeffs.shape[1] >= 1, "subspace rank must be >= 1")

    @property
    def rank(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class SpectralBasis:
    """Non-negative spectral basis, [N_k, N_s]; every column carries energy.

    Columns are kept in the order the factorization gives them: descending
    L2 norm of the paired coefficient columns, equal norms in their factor
    order."""

    basis: np.ndarray
    axis: SpectralAxis

    def __post_init__(self):
        basis = _as_f32(self.basis, "basis", nonneg=True)
        object.__setattr__(self, "basis", basis)
        _require(basis.ndim == 2, "basis must be 2-D [N_k, N_s]")
        _require(basis.shape[0] == self.axis.num_bins,
                 f"basis has {basis.shape[0]} bins, axis has {self.axis.num_bins}")
        _require(basis.shape[1] >= 1, "basis must have at least one column")
        _require(bool(np.all(basis.max(axis=0) > 0)), "basis contains an all-zero column")

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
        require_count(self.num_rows, "num_rows")
        require_count(self.num_cols, "num_cols")
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

def _header(obj, keys=None) -> dict:
    """The attributes ``keys`` of ``obj`` (default: its dataclass fields), each
    written as its JSON kind."""
    keys = keys or [f.name for f in fields(obj)]
    return {key: _HEADER_KINDS[key].write(getattr(obj, key)) for key in keys}


def geometry_header(g: ScanGeometry) -> dict:
    """JSON-compatible description of a ScanGeometry (inverse of
    geometry_from_header)."""
    return _header(g)


def spectral_header(ax: SpectralAxis) -> dict:
    """JSON-compatible description of a SpectralAxis (inverse of
    spectral_from_header)."""
    return {**_header(ax, ["tof_edges"]), **_header(ax.converter)}


def _from_header(h, section: str, build):
    """``build(**h)``.  A non-object, a value of the wrong JSON type and a missing
    or unknown key are a ContainerError; ``build``'s checks raise ValidationError."""
    try:  # a non-object header fails at its first use as one
        for key in h:
            if key in _HEADER_KINDS and not _HEADER_KINDS[key].check(h[key]):
                raise TypeError(f"{key} has the wrong JSON type: {reprlib.repr(h[key])}")
        return build(**h)
    except TypeError as exc:
        raise ContainerError(f"malformed {section} header: {exc}") from None


def geometry_from_header(h: dict) -> ScanGeometry:
    return _from_header(h, "geometry", ScanGeometry)


def spectral_from_header(h: dict) -> SpectralAxis:
    return _from_header(h, "spectral", lambda tof_edges, **rest:
                        SpectralAxis(tof_edges, ToFConverter(**rest)))


def _pack(data) -> tuple[dict, tuple[np.ndarray, ...]]:
    """Header dict + payload arrays for a typed container (inverse of
    _unpack); the payload is the arrays concatenated along their first axis."""
    header = {}
    if isinstance(data, RawScan):
        role, payload = "raw-scan", (data.counts, data.open_beam[None])
    elif isinstance(data, HyperspectralSinogram):
        role, payload = "sinogram", (data.values,)
    elif isinstance(data, SubspaceSinogram):
        role, payload = "subspace-sinogram", (data.coeffs,)
    elif isinstance(data, SpectralBasis):
        role, payload = "basis", (data.basis,)
    elif isinstance(data, VolumeStack):
        role, header = "volume", _header(data, ["voxel_pitch"])
        payload = (data.voxels.reshape(data.num_rows, data.num_cols, data.num_cols, -1),)
    else:
        raise ValidationError(f"cannot serialize object of type {type(data).__name__}")
    header["role"] = role
    if "geometry" in _SECTIONS[role]:
        g = data.geometry
        header["geometry"] = geometry_header(g)
        # the rows of a sinogram-like payload run over [view, row, col]
        payload = tuple(a.reshape(-1, g.num_rows, g.num_cols, a.shape[-1]) for a in payload)
    if "spectral" in _SECTIONS[role]:
        header["spectral"] = spectral_header(data.axis)
    return header, payload


def _unpack(header: dict, arr: np.ndarray):
    """The typed container a header's role and payload describe (inverse of
    _pack), and the SpectralAxis of its spectral section (None without one)."""
    role = header.get("role")
    axis = None
    # a volume may carry the spectral axis of its channels; the roles that own one need it
    if "spectral" in header or "spectral" in _SECTIONS[role]:
        axis = spectral_from_header(header.get("spectral", {}))
    if role == "basis":
        return SpectralBasis(arr, axis), axis
    if role == "volume":
        if arr.ndim != 4 or arr.shape[2] != arr.shape[1]:
            raise ValidationError(f"volume shape {arr.shape} is not [N_r,N_c,N_c,C]")
        n_r, n_c = arr.shape[0], arr.shape[1]
        voxels = arr.reshape(n_r * n_c * n_c, arr.shape[3])
        # without a voxel_pitch, VolumeStack's default applies
        pitch = {key: header[key] for key in ("voxel_pitch",) if key in header}
        return _from_header(pitch, "volume",
                            lambda **h: VolumeStack(voxels, n_r, n_c, **h)), axis
    geom = geometry_from_header(header.get("geometry", {}))
    # a raw scan stores its open-beam radiograph as one more view
    views = geom.num_views + (role == "raw-scan")
    if arr.ndim != 4 or arr.shape[:3] != (views, geom.num_rows, geom.num_cols):
        raise ValidationError(
            f"{role} shape {list(arr.shape)} does not match its geometry's "
            f"[{views}, {geom.num_rows}, {geom.num_cols}, C]")
    if role == "subspace-sinogram":
        return SubspaceSinogram(arr.reshape(-1, arr.shape[3]), geom), axis
    if role == "sinogram":
        return HyperspectralSinogram(arr.reshape(-1, arr.shape[3]), geom, axis), axis
    return RawScan(arr[: geom.num_views], arr[geom.num_views], geom, axis), axis


def write_container(path, data, extra_header: dict | None = None) -> None:
    """Write a typed container to ``path``.

    The header is derived from ``data``; ``extra_header`` entries are merged
    into it, and entries that contradict a derived value are rejected.
    ``_write_whole`` replaces an existing target whole or leaves it as it was.
    """
    header, payload = _pack(data)
    header["axis_order"] = AXIS_ORDERS[header["role"]]
    header["dtype"] = "f32le"
    header["shape"] = [sum(a.shape[0] for a in payload), *payload[0].shape[1:]]
    for key, value in (extra_header or {}).items():
        if header.setdefault(key, value) != value:
            raise ValidationError(f"extra header key {key!r} conflicts with derived value")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        _write_whole(path, [MAGIC, struct.pack("<I", len(blob)), blob,
                            *(memoryview(np.ascontiguousarray(a, "<f4")) for a in payload)])
    except OSError as exc:
        raise ContainerError(f"cannot write {path}: {exc}") from exc


def _write_whole(path, chunks) -> None:
    """Write the byte ``chunks`` to a temporary name beside ``path``, then
    rename it onto ``path``: an existing target is replaced whole or left as
    it was, and the temporary file does not outlive a failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _read_file(path) -> tuple[dict, np.ndarray]:
    """``load_container``'s parse of ``path`` into (header, float32 payload);
    the payload's values are left to the typed container to check."""
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
    role, axis_order = header.get("role"), header.get("axis_order")
    if not isinstance(role, str) or (role, axis_order) not in AXIS_ORDERS.items():
        raise ContainerError(
            f"{path}: role {role!r} with axis_order {axis_order!r} is not a "
            f"container layout")
    shape = header.get("shape")
    if (not isinstance(shape, list) or not shape
            or not all(_is_integer(s) and s >= 1 for s in shape)):
        raise ContainerError(f"{path}: bad shape {shape!r}")
    count = math.prod(shape)  # exact: an int64 product can wrap to a short count
    expected = count * 4
    available = len(raw) - body - hlen
    if available < expected:
        raise ContainerError(
            f"{path}: truncated payload, need {expected} bytes, have {available}")
    if available > expected:
        raise ContainerError(
            f"{path}: {available - expected} trailing bytes after payload")
    return header, np.frombuffer(raw, dtype="<f4", count=count, offset=body + hlen).reshape(shape)


def load_container(path, *roles: str):
    """Read ``path`` as the typed container of its role, which must be one
    of ``roles``; returns (container, SpectralAxis of its header or None).
    This is the only reader of ``.hsnct`` files.  Every fault in the file
    names it.  The payload is scanned once, by the typed container's own
    finiteness check."""
    header, arr = _read_file(path)
    if header.get("role") not in roles:
        raise ValidationError(
            f"{path}: expected a {' or '.join(map(repr, roles))} container, "
            f"found role {header.get('role')!r}")
    try:
        return _unpack(header, arr)
    except (ContainerError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_raw_scan(path) -> RawScan:
    return load_container(path, "raw-scan")[0]


def load_sinogram(path) -> HyperspectralSinogram:
    return load_container(path, "sinogram")[0]


def load_basis(path) -> SpectralBasis:
    return load_container(path, "basis")[0]


def load_volume(path) -> tuple[VolumeStack, SpectralAxis | None]:
    """Volume plus the spectral axis of its channels, if its header has one."""
    return load_container(path, "volume")
