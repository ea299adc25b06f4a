"""The machine and library settings a benchmark number depends on.

Extraction time roughly doubles when OpenBLAS runs one thread instead of
two, so a figure is only comparable with another taken under the same BLAS
build, BLAS thread count and core count.  ``threadpoolctl`` is not a
dependency; the OpenBLAS thread count is read from the library numpy loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build(show_config) -> dict | None:
    try:
        deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy/scipy too old for mode="dicts"
        return None
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}


def _openblas_runtime() -> dict | None:
    """Config string and current thread count of numpy's bundled OpenBLAS."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))  # already loaded: same handle
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"library": lib_path.name, "num_threads": get_threads(),
                    "config": get_config().decode("ascii", "replace")}
    return None


def environment(**run) -> dict:
    """Interpreter, library, BLAS and core-count record, plus the run's own
    settings (``run`` keyword arguments such as threads and seed)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np.show_config),
        "scipy_blas": _blas_build(scipy.show_config),
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        **run,
    }
