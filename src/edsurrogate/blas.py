"""Run numpy's BLAS on one thread while the package trains or evaluates.

A minibatch graph's matrix products are small, around a million
multiply-adds each, yet big enough for OpenBLAS to split them across its
worker threads. Between two products the graph code runs Python for a
while, so the workers go idle, and waking them costs more than the product:
on a 2-vCPU virtual machine one surrogate step took 112 ms with OpenBLAS's
default two threads and 22 ms with one. The package is designed for one
core, so its training phases and evaluation pin BLAS to one thread while
they run and restore the previous count afterwards.

Only the OpenBLAS bundled with numpy's wheels can be reached this way; with
any other BLAS, one_blas_thread does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# Symbol prefixes and suffixes of the thread controls across numpy's
# bundled OpenBLAS builds (scipy-openblas since numpy 2, openblas before).
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


@functools.cache
def _thread_controls():
    """(get_num_threads, set_num_threads) of the bundled OpenBLAS, or None."""
    here = os.path.dirname(np.__file__)
    libraries = glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
    libraries += glob.glob(os.path.join(here, ".dylibs", "*openblas*"))
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if getter is None or setter is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def one_blas_thread():
    """Pin the bundled OpenBLAS to one thread for the block (or, used as a
    decorator, for each call)."""
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
