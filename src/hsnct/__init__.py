"""Hyperspectral neutron CT reconstruction.

Two reconstruction routes over the same measured data:

* a direct route that reconstructs every wavelength bin independently, and
* a subspace route that factorizes the spectral dimension first,
  reconstructs a handful of coefficient channels, and expands the result
  back to the full spectral grid.

Submodules: :mod:`~hsnct.containers` (typed arrays and the on-disk format),
:mod:`~hsnct.preprocess`, :mod:`~hsnct.subspace`, :mod:`~hsnct.tomo`,
:mod:`~hsnct.pipeline`, :mod:`~hsnct.phantom`, :mod:`~hsnct.cli`.
"""

from hsnct.containers import (
    ContainerError,
    HyperspectralSinogram,
    RawScan,
    ScanGeometry,
    SpectralAxis,
    SpectralBasis,
    SubspaceSinogram,
    ToFConverter,
    ValidationError,
    VolumeStack,
    load_container,
    write_container,
)

__version__ = "0.1.0"

__all__ = [
    "ContainerError",
    "HyperspectralSinogram",
    "RawScan",
    "ScanGeometry",
    "SpectralAxis",
    "SpectralBasis",
    "SubspaceSinogram",
    "ToFConverter",
    "ValidationError",
    "VolumeStack",
    "load_container",
    "write_container",
    "__version__",
]
