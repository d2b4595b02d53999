"""Scope OpenBLAS to one thread around calls that gain nothing from more.

The BLAS calls outside the dense tile product (the Gauss-Legendre and
Gauss-Hermite eigensolves, the recurrence's norm pre-test, the ``eval``
Gram product) are too small for a second thread to pay: it saves little
or no wall time and spins on after each call, so a pass costs more CPU
than wall time.  Their bits do not depend on the thread count, so
running them on one thread changes no output.

The thread count is a process-wide OpenBLAS setting, not a per-thread
one.  Setting it here is safe because the runner runs cells one after
another, in one thread; nothing else calls BLAS while a scope is open.
Without an OpenBLAS in the process, :func:`one_thread` does nothing.
"""

import contextlib
import ctypes

_STEMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_UNSET = object()
_found = _UNSET  # (get, set) of the loaded OpenBLAS, or None


def _lookup():
    """The thread-count getter and setter of the OpenBLAS mapped into this
    process, or None if there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in _STEMS:
            get = getattr(lib, stem.format("get"), None)
            put = getattr(lib, stem.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread; restore the old count
    after it, also on an exception.  Scopes nest."""
    global _found
    if _found is _UNSET:
        _found = _lookup()
    if _found is None:
        yield
        return
    get, put = _found
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)
