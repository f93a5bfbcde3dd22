"""The software and thread settings a measurement was taken under."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy
import scipy

#: Thread-count getters exported by the OpenBLAS builds numpy and scipy bundle.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict:
    """Threads each bundled OpenBLAS will use, keyed by package.

    Reads the libraries numpy and scipy already loaded (``<pkg>.libs``
    wheels); a package whose BLAS cannot be queried this way is omitted.
    """
    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(
            os.path.dirname(os.path.dirname(package.__file__)),
            f"{package.__name__}.libs",
        )
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            library = ctypes.CDLL(path)
            for symbol in _OPENBLAS_GETTERS:
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[package.__name__] = int(getter())
                    break
    return found


def describe() -> dict:
    """Versions, CPU count and BLAS threads of this process."""
    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "blas_threads": blas_threads(),
    }
