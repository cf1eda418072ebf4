"""One BLAS thread for the dense kernels, and the CPUs a worker may use.

The certificate's kernels are dense factorizations (Cholesky, SVDs and
eigendecompositions) of at most 640 rows.  OpenBLAS splits each over its
threads; up to about 300 rows that costs more than it gains, and
independent kernels on separate Python threads use the cores better.
(At 623 rows one SVD is slower on one thread, but the whole audit is still
faster.)  One thread also fixes the summation order, so results do not
depend on the thread count a user's environment sets.

This is the only module that knows about BLAS threads.  It reaches the
scipy-openblas build that numpy bundles (``numpy.libs``, or
``numpy/.dylibs`` on macOS) through ``ctypes``; with any other BLAS it does
nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

__all__ = ["single_blas_thread", "usable_cpus"]


@functools.cache
def _openblas_threads():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or None."""
    pkg = os.path.dirname(np.__file__)
    for libdir in (pkg + ".libs", os.path.join(pkg, ".dylibs")):
        try:
            names = sorted(n for n in os.listdir(libdir) if "openblas" in n)
        except OSError:
            continue
        for name in names:
            try:
                lib = ctypes.CDLL(os.path.join(libdir, name))  # loaded by numpy: same handle
            except OSError:
                continue
            for suffix in ("64_", ""):  # 64-bit and 32-bit integer builds
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class _ThreadPin:
    """Holds OpenBLAS at one thread while any holder is inside.

    The thread count is process-wide, so there is one pin per process: the
    first holder saves the count and sets 1, the last one to leave restores
    the saved count.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    @contextlib.contextmanager
    def hold(self):
        blas = _openblas_threads()
        if blas is None:
            yield False
            return
        get, put = blas
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                put(1)
            self._depth += 1
        try:
            yield True
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    put(self._saved)


_PIN = _ThreadPin()


def single_blas_thread():
    """Context manager: run the body with OpenBLAS at one thread.

    Yields whether the pin holds, False when numpy's OpenBLAS is not found.
    Nested and concurrent holders share the pin; the thread count the first
    holder found comes back when the last one leaves, on an exception too.
    """
    return _PIN.hold()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
