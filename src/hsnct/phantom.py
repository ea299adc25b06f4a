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
simulation stays reproducible under parallel execution.
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
    _require,
    tof_to_wavelength,
)
from hsnct.tomo import project_volume

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


@dataclass(frozen=True)
class EdgeFeature:
    """One smooth spectral step: ``pre_level`` below the edge wavelength,
    ``post_level`` above it, blended by an erf ramp of ``smoothing_width``."""

    edge_wavelength: float
    pre_level: float
    post_level: float
    smoothing_width: float

    def __post_init__(self):
        _require(np.isfinite(self.edge_wavelength) and self.edge_wavelength > 0,
                 "edge_wavelength must be finite and > 0")
        _require(np.isfinite(self.pre_level) and self.pre_level >= 0,
                 "pre_level must be finite and >= 0")
        _require(np.isfinite(self.post_level) and self.post_level >= 0,
                 "post_level must be finite and >= 0")
        _require(np.isfinite(self.smoothing_width) and self.smoothing_width > 0,
                 "smoothing_width must be finite and > 0")

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
        _require(np.isfinite(self.baseline) and self.baseline >= 0,
                 "baseline must be finite and >= 0")
        object.__setattr__(self, "edges", tuple(self.edges))

    def attenuation(self, wavelengths) -> np.ndarray:
        """Attenuation sampled at ``wavelengths`` (meters); always >= 0 since
        every component level is >= 0."""
        lam = np.asarray(wavelengths, dtype=np.float64)
        out = np.full(lam.shape, float(self.baseline))
        for edge in self.edges:
            out += edge.level_at(lam)
        return out


@dataclass(frozen=True)
class ShapeSpec:
    """One filled shape.  ``center`` and ``half_size`` are fractions of the
    slice extent as (row, col) pairs, so a spec is resolution independent;
    ``slices`` limits the shape to the half-open slice range [start, stop)
    (None = all slices)."""

    kind: str
    center: tuple[float, float]
    half_size: tuple[float, float]
    material: int
    slices: tuple[int, int] | None = None

    def __post_init__(self):
        _require(self.kind in _SHAPE_KINDS,
                 f"shape kind must be one of {_SHAPE_KINDS}, got {self.kind!r}")
        center = (float(self.center[0]), float(self.center[1]))
        half = (float(self.half_size[0]), float(self.half_size[1]))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_size", half)
        for c, h in zip(center, half):
            _require(np.isfinite(c) and np.isfinite(h) and h > 0,
                     "shape placement must be finite with half_size > 0")
            _require(c - h >= 0.0 and c + h <= 1.0,
                     f"shape exceeds the image bounds: center {center}, half_size {half}")
        _require(self.material >= 0, "material index must be >= 0")
        if self.slices is not None:
            s = (int(self.slices[0]), int(self.slices[1]))
            object.__setattr__(self, "slices", s)
            _require(0 <= s[0] < s[1], f"bad slice range {s}")

    def mask(self, image_size: int) -> np.ndarray:
        """Boolean raster on the pixel-center grid."""
        frac = (np.arange(image_size) + 0.5) / image_size
        fr = frac[:, None] - self.center[0]
        fc = frac[None, :] - self.center[1]
        hr, hc = self.half_size
        if self.kind == "ellipse":
            return (fr / hr) ** 2 + (fc / hc) ** 2 <= 1.0
        return (np.abs(fr) <= hr) & (np.abs(fc) <= hc)

    def covers_slice(self, z: int) -> bool:
        return self.slices is None or self.slices[0] <= z < self.slices[1]


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
        _require(self.image_size >= 1, "image_size must be >= 1")
        _require(self.num_slices >= 1, "num_slices must be >= 1")
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(self, "materials", tuple(self.materials))
        _require(len(self.materials) > 0, "materials must be non-empty")
        _require(np.isfinite(self.flux) and self.flux > 0, "flux must be > 0")
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


def spec_from_dict(d: dict) -> PhantomSpec:
    try:
        materials = tuple(
            MaterialSpectrum(
                name=m["name"],
                baseline=m["baseline"],
                edges=tuple(EdgeFeature(**e) for e in m.get("edges", [])),
            )
            for m in d["materials"]
        )
        shapes = tuple(
            ShapeSpec(
                kind=s["kind"],
                center=tuple(s["center"]),
                half_size=tuple(s["half_size"]),
                material=int(s["material"]),
                slices=None if s.get("slices") is None else tuple(s["slices"]),
            )
            for s in d["shapes"]
        )
        return PhantomSpec(
            image_size=int(d["image_size"]),
            num_slices=int(d["num_slices"]),
            shapes=shapes,
            materials=materials,
            flux=float(d["flux"]),
            seed=int(d["seed"]),
        )
    except (KeyError, TypeError) as exc:
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
    table = np.stack([m.attenuation(axis.wavelength_centers) for m in spec.materials])
    n = spec.image_size
    labels = np.full((spec.num_slices, n, n), -1, dtype=np.int64)
    for shape in spec.shapes:
        m = shape.mask(n)
        for z in range(spec.num_slices):
            if shape.covers_slice(z):
                labels[z][m] = shape.material
    flat = labels.reshape(-1)
    voxels = np.zeros((flat.size, axis.num_bins), dtype=np.float32)
    covered = flat >= 0
    voxels[covered] = table[flat[covered]].astype(np.float32)
    return VolumeStack(voxels, spec.num_slices, n)


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
    _require(np.isfinite(flux) and flux > 0, "flux must be > 0")
    _require(truth.num_channels == axis.num_bins,
             f"truth has {truth.num_channels} channels but the axis has "
             f"{axis.num_bins} bins")
    n_v, n_r, n_c, n_k = geom.num_views, geom.num_rows, geom.num_cols, axis.num_bins
    ell = project_volume(truth, geom).reshape(n_v, n_r, n_c, n_k)
    if not np.all(np.isfinite(ell)):
        raise ValidationError("line integrals are not finite")
    expected = flux * np.exp(-ell)
    if not noise:
        counts = expected
        open_beam = np.full((n_r, n_c, n_k), flux)
    else:
        counts = np.empty((n_v, n_r, n_c, n_k))
        for v in range(n_v):
            for r in range(n_r):
                counts[v, r] = _chunk_rng(seed, 0, v, r).poisson(expected[v, r])
        open_beam = np.empty((n_r, n_c, n_k))
        for r in range(n_r):
            open_beam[r] = _chunk_rng(seed, 1, r).poisson(flux, size=(n_c, n_k))
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
