"""Synthetic hyperspectral phantoms and noisy scan simulation.

A phantom is a stack of square slices populated by axis-aligned shapes, each
filled with one material.  A material is a wavelength-dependent attenuation
curve: a flat baseline plus smooth step edges (error-function ramps), which
is enough to give every material a distinct spectral fingerprint without any
crystallographic modeling.

``simulate_scan`` pushes the ground truth through the forward projector and
draws Poisson counts for both the sample exposure and the open beam.  The
generator is counter-based (Philox keyed by seed, stream and the (view, row)
chunk), so the draw for any chunk is independent of evaluation order and the
simulation gives the same bytes under parallel execution.  The caller's
thread projects the volume into the float32 counts and checks they are
finite; then one task per detector row casts each view's chunk to
float64, draws Poisson(flux * exp(-line integral)) over it and draws the
row's open beam, on min(rows, usable CPUs, max(1, draws // 2**18))
threads whatever ``--threads`` is.  A task holds one chunk at a time, so
memory does not grow with the thread count.

Neither makes a float64 copy of the volume or a slice; both write straight
into their float32 outputs.  ``build_ground_truth`` labels each shape's
whole slice range in one assignment and indexes a float32 material table
with the voxel labels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import erf

from hsnct.containers import (
    RawScan,
    ScanGeometry,
    SpectralAxis,
    ToFConverter,
    ValidationError,
    VolumeStack,
    _is_finite,
    _is_integer,
    _require,
    _require_finite,
    _require_one_flight_path,
    require_count,
    require_nonneg,
    require_nonneg_int,
    require_positive,
    tof_to_wavelength,
)
from hsnct.tomo import _map, _project, _usable_cpus

__all__ = [
    "EdgeFeature",
    "MaterialSpectrum",
    "ShapeSpec",
    "PhantomSpec",
    "build_ground_truth",
    "simulate_scan",
    "default_benchmark_phantom",
    "spec_to_dict",
    "spec_from_dict",
]

_SHAPE_KINDS = ("ellipse", "rectangle")
# simulate_scan's Poisson draws per worker (~15 ms): on 2 cores a 2-thread
# pool broke even at 2**18 draws and saved 27-35 % at 2**19
_DRAWS_PER_WORKER = 1 << 18


@dataclass(frozen=True)
class EdgeFeature:
    """One smooth spectral step: ``pre_level`` below the edge wavelength,
    ``post_level`` above it, blended by an erf ramp of ``smoothing_width``."""

    edge_wavelength: float
    pre_level: float
    post_level: float
    smoothing_width: float

    def __post_init__(self):
        require_positive(self.edge_wavelength, "edge_wavelength")
        require_nonneg(self.pre_level, "pre_level")
        require_nonneg(self.post_level, "post_level")
        require_positive(self.smoothing_width, "smoothing_width")

    def level_at(self, wavelengths: np.ndarray) -> np.ndarray:
        t = (wavelengths - self.edge_wavelength) / self.smoothing_width
        return self.pre_level + (self.post_level - self.pre_level) * 0.5 * (1.0 + erf(t))


@dataclass(frozen=True)
class MaterialSpectrum:
    """Non-negative attenuation per unit length as a function of wavelength:
    a flat baseline plus the sum of the edge features."""

    name: str
    baseline: float
    edges: tuple[EdgeFeature, ...] = ()

    def __post_init__(self):
        _require(bool(self.name), "material name must be non-empty")
        require_nonneg(self.baseline, "baseline")
        object.__setattr__(self, "edges", tuple(self.edges))

    def attenuation(self, wavelengths) -> np.ndarray:
        """Attenuation sampled at ``wavelengths`` (meters); always >= 0 since
        every component level is >= 0."""
        lam = np.asarray(wavelengths, dtype=np.float64)
        out = np.full(lam.shape, float(self.baseline))
        for edge in self.edges:
            out += edge.level_at(lam)
        return out


def _pair(value, name: str) -> tuple[float, float]:
    _require(isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_is_finite, value)),
             f"{name} must be a pair of finite numbers, got {value!r}")
    return float(value[0]), float(value[1])


@dataclass(frozen=True)
class ShapeSpec:
    """One filled shape.  ``center`` and ``half_size`` are (row, col) pairs
    of numbers, fractions of the slice extent, so a spec is resolution
    independent; ``slices`` limits the shape to the half-open slice range
    [start, stop) (None = all slices)."""

    kind: str
    center: tuple[float, float]
    half_size: tuple[float, float]
    material: int
    slices: tuple[int, int] | None = None

    def __post_init__(self):
        _require(self.kind in _SHAPE_KINDS,
                 f"shape kind must be one of {_SHAPE_KINDS}, got {self.kind!r}")
        center, half = _pair(self.center, "center"), _pair(self.half_size, "half_size")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_size", half)
        for c, h in zip(center, half):
            require_positive(h, "half_size")
            _require(c - h >= 0.0 and c + h <= 1.0,
                     f"shape exceeds the image bounds: center {center}, half_size {half}")
        require_nonneg_int(self.material, "material")
        if self.slices is not None:
            s = tuple(self.slices)
            object.__setattr__(self, "slices", s)
            _require(len(s) == 2 and all(map(_is_integer, s)) and 0 <= s[0] < s[1],
                     f"bad slice range {s}")

    def mask(self, image_size: int) -> np.ndarray:
        """Boolean raster on the pixel-center grid."""
        frac = (np.arange(image_size) + 0.5) / image_size
        fr = frac[:, None] - self.center[0]
        fc = frac[None, :] - self.center[1]
        hr, hc = self.half_size
        if self.kind == "ellipse":
            return (fr / hr) ** 2 + (fc / hc) ** 2 <= 1.0
        return (np.abs(fr) <= hr) & (np.abs(fc) <= hc)


@dataclass(frozen=True)
class PhantomSpec:
    """Full description of a synthetic object: raster size, slice count,
    shape list (later shapes overwrite earlier ones), the material table,
    the expected open-beam counts per bin, and the simulation seed."""

    image_size: int
    num_slices: int
    shapes: tuple[ShapeSpec, ...]
    materials: tuple[MaterialSpectrum, ...]
    flux: float
    seed: int

    def __post_init__(self):
        require_count(self.image_size, "image_size")
        require_count(self.num_slices, "num_slices")
        require_nonneg_int(self.seed, "seed")
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(self, "materials", tuple(self.materials))
        _require(len(self.materials) > 0, "materials must be non-empty")
        require_positive(self.flux, "flux")
        for shape in self.shapes:
            _require(shape.material < len(self.materials),
                     f"shape references material {shape.material} but only "
                     f"{len(self.materials)} are defined")
            if shape.slices is not None:
                _require(shape.slices[1] <= self.num_slices,
                         f"shape slice range {shape.slices} exceeds num_slices "
                         f"{self.num_slices}")


def spec_to_dict(spec: PhantomSpec) -> dict:
    """JSON-compatible dict for a PhantomSpec (inverse of spec_from_dict)."""
    return asdict(spec)


def _built(d, key: str, build) -> dict:
    # d with each item of its list under key, if it has one, made build(**item)
    return {**d, key: tuple(build(**item) for item in d[key])} if key in d else d


def spec_from_dict(d: dict) -> PhantomSpec:
    """Inverse of spec_to_dict: keys are the dataclass fields, no others, and a
    missing or unknown key raises ValidationError, as a bad value does."""
    try:
        d = _built(d, "materials", lambda **m: MaterialSpectrum(**_built(m, "edges", EdgeFeature)))
        return PhantomSpec(**_built(d, "shapes", ShapeSpec))
    except TypeError as exc:
        raise ValidationError(f"malformed phantom spec: {exc}") from None


def build_ground_truth(spec: PhantomSpec, axis: SpectralAxis) -> VolumeStack:
    """Rasterize the spec into a hyperspectral volume (C = N_k).

    Voxel spectra are the material attenuation curves sampled at the bin
    wavelength centers; overlapping shapes resolve last-wins; uncovered
    voxels stay zero.
    """
    lam_lo = tof_to_wavelength(axis.converter, axis.tof_edges[0])
    lam_hi = tof_to_wavelength(axis.converter, axis.tof_edges[-1])
    for m in spec.materials:
        for e in m.edges:
            _require(lam_lo <= e.edge_wavelength <= lam_hi,
                     f"material {m.name!r} edge at {e.edge_wavelength} is outside "
                     f"the spectral range [{lam_lo}, {lam_hi}]")
    # one float32 row per material, then an all-zero row that label -1
    # (uncovered) picks
    table = np.stack([m.attenuation(axis.wavelength_centers) for m in spec.materials]
                     + [np.zeros(axis.num_bins)]).astype(np.float32)
    n = spec.image_size
    labels = np.full((spec.num_slices, n, n), -1, dtype=np.int64)
    for shape in spec.shapes:
        m = shape.mask(n)
        start, stop = shape.slices or (0, spec.num_slices)
        labels[start:stop, m] = shape.material
    return VolumeStack(table[labels.reshape(-1)], spec.num_slices, n)


def _chunk_rng(seed: int, stream: int, *counters: int) -> Generator:
    return Generator(Philox(SeedSequence((int(seed), int(stream)) + counters)))


def simulate_scan(truth: VolumeStack, geom: ScanGeometry, axis: SpectralAxis,
                  flux: float, seed: int, *, noise: bool = True) -> RawScan:
    """Simulate a hyperspectral scan of ``truth``.

    Expected counts are flux * exp(-line integral) per (view, row, col, bin);
    with ``noise`` the sample counts are Poisson draws keyed by (seed, view,
    row) and the open beam is a separate Poisson(flux) frame keyed per row.
    With ``noise=False`` the expected values themselves are returned, which
    is the noiseless limit used by the physics round-trip checks.
    """
    require_positive(flux, "flux")
    require_nonneg_int(seed, "seed")
    _require(truth.num_channels == axis.num_bins,
             f"truth has {truth.num_channels} channels but the axis has "
             f"{axis.num_bins} bins")
    _require_one_flight_path(geom, axis)  # RawScan's rule, before the projection's work
    # the float32 line integrals, which the row tasks turn into counts in place
    counts = _project(truth, geom, np.float32)
    _require_finite(counts, "line integrals are not finite")
    n_v, n_r, n_c, n_k = counts.shape
    # the noiseless open beam; with noise each row draws its own
    open_beam = np.full((n_r, n_c, n_k), flux, dtype=np.float32)

    def draw_row(r):
        for v in range(n_v):
            # flux * exp(-ell) in float64, in place
            expected = counts[v, r].astype(np.float64)
            np.negative(expected, out=expected)
            np.exp(expected, out=expected)
            expected *= flux
            counts[v, r] = _chunk_rng(seed, 0, v, r).poisson(expected) if noise else expected
        if noise:
            open_beam[r] = _chunk_rng(seed, 1, r).poisson(flux, size=(n_c, n_k))

    draws = n_v * n_r * n_c * n_k
    _map(draw_row, range(n_r), min(n_r, _usable_cpus(), max(1, draws // _DRAWS_PER_WORKER)))
    return RawScan(counts, open_beam, geom, axis)


def default_benchmark_phantom() -> tuple[PhantomSpec, SpectralAxis, ScanGeometry]:
    """The fixed desk-scale benchmark object.

    16 slices of 64x64, 32 views, 256 wavelength bins spanning roughly 1 to
    5 Angstrom over a 10 m flight path, three materials with edges at 2.0,
    3.0 and 4.2 Angstrom, and 200 expected open-beam counts per bin (the
    low-count regime where per-bin reconstructions are noise dominated).
    """
    angstrom = 1e-10
    materials = (
        MaterialSpectrum("matrix", 0.008,
                         (EdgeFeature(2.0 * angstrom, 0.004, 0.012, 0.08 * angstrom),)),
        MaterialSpectrum("insert-a", 0.010,
                         (EdgeFeature(3.0 * angstrom, 0.012, 0.005, 0.05 * angstrom),)),
        MaterialSpectrum("insert-b", 0.006,
                         (EdgeFeature(4.2 * angstrom, 0.006, 0.024, 0.10 * angstrom),)),
    )
    shapes = (
        ShapeSpec("ellipse", (0.5, 0.5), (0.36, 0.36), 0),
        ShapeSpec("rectangle", (0.42, 0.38), (0.14, 0.11), 1, slices=(0, 12)),
        ShapeSpec("ellipse", (0.60, 0.62), (0.11, 0.15), 2, slices=(4, 16)),
    )
    spec = PhantomSpec(image_size=64, num_slices=16, shapes=shapes,
                       materials=materials, flux=200.0, seed=1234)
    converter = ToFConverter(flight_path=10.0)
    axis = SpectralAxis(np.linspace(2.5e-3, 1.31e-2, 257), converter)
    geom = ScanGeometry(num_views=32, num_rows=16, num_cols=64,
                        view_angles=np.linspace(0.0, np.pi, 32, endpoint=False),
                        flight_path=10.0)
    return spec, axis, geom
