"""Hold OpenBLAS to one thread, split a computation over two fixed
workers, and reach LAPACK ``dsterf``: hermlp's threading contract, and
its only module that imports ``threading`` or ``concurrent``.

The BLAS thread count is process-wide, not per thread.  The BLAS calls
other than eigenfunction tile products of 64 terms or more (the tile
products of fewer terms, the Gauss-Hermite eigensolve and the
Gauss-Legendre fallback one, the recurrence's norm pre-test, the
``eval`` Gram product, the Mehler level gemv) run inside
:func:`one_thread`: a second thread saves them little or no wall time
and spins on after each call, and their bits do not depend on the
count.  Setting it is safe because the runner runs cells one after
another, in one thread; nothing else calls BLAS while a scope is open.
Without an OpenBLAS in the process, :func:`one_thread` does nothing.

:func:`on_two_workers` runs block k of a computation on worker k mod 2:
the calling thread, or one helper thread made at first use and kept for
the process.  The helper runs only the blocks a call hands it, inside
the caller's BLAS scope (it opens none) and in a copy of the caller's
context; the call returns once both workers are done.  The partition is
fixed, so no bit depends on which thread ran a block.

:func:`tridiagonal_eigvalsh` hands a symmetric tridiagonal matrix to the
same library's ``dsterf``.  ``numpy.linalg.eigvalsh`` runs ``dsyevd``,
which reduces the dense matrix to tridiagonal form (``dsytrd``) and then
calls ``dsterf`` on it.  On a matrix that is already tridiagonal every
Householder reflector of that reduction is the identity (tau = 0), so
it leaves the diagonal and off-diagonal as they were, and ``dsterf``
on them gives eigvalsh's bits without its O(n^3) dense work.  Both
OpenBLAS lookups scan ``/proc/self/maps`` on first use, not at import.
"""

import contextlib
import contextvars
import ctypes

import numpy as np

_STEMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")
# dsterf's names, with the integer width of their ILP64 or LP64 interface
_STERF = (("scipy_dsterf_64_", ctypes.c_int64), ("scipy_dsterf_", ctypes.c_int),
          ("dsterf_64_", ctypes.c_int64), ("dsterf_", ctypes.c_int))
_UNSET = object()
_found = _UNSET  # (get, set) of the loaded OpenBLAS, or None
_sterf = _UNSET  # (dsterf, its integer type), or None
_helper = None  # the executor of the one helper thread, once made


def _libraries():
    """Every OpenBLAS mapped into this process, loaded through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            yield ctypes.CDLL(path)
        except OSError:
            continue


def _lookup():
    """The thread-count getter and setter of the OpenBLAS mapped into this
    process, or None if there is none."""
    for lib in _libraries():
        for stem in _STEMS:
            get = getattr(lib, stem.format("get"), None)
            put = getattr(lib, stem.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _lookup_sterf():
    """The ``dsterf`` of the OpenBLAS mapped into this process and its
    integer type, or None if there is none."""
    for lib in _libraries():
        for name, integer in _STERF:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = None
                return fn, integer
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


def on_two_workers(block, count: int) -> None:
    """Run ``block(k, k % 2)`` for every k < ``count``: worker 0 is the
    calling thread, worker 1 the helper thread, each taking its blocks in
    order.  Returns once both are done; raises the caller's exception if
    it has one, else the helper's.  Under two blocks everything runs in
    the caller and no helper is made.  ``block`` must not call this
    function again: the helper runs one call's blocks at a time.
    """
    global _helper

    def work(w):
        for k in range(w, count, 2):
            block(k, w)

    if count < 2:
        work(0)
        return
    if _helper is None:
        # imported here: most passes never split a computation
        from concurrent.futures import ThreadPoolExecutor
        _helper = ThreadPoolExecutor(max_workers=1)
    done = _helper.submit(contextvars.copy_context().run, work, 1)
    try:
        work(0)
    except BaseException:
        done.exception()  # waits for the helper
        raise
    done.result()


def tridiagonal_eigvalsh(diag, off):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``, from LAPACK ``dsterf``;
    None when no ``dsterf`` is mapped or it reports failure (info != 0).
    """
    global _sterf
    if _sterf is _UNSET:
        _sterf = _lookup_sterf()
    if _sterf is None:
        return None
    fn, integer = _sterf
    d = np.array(diag, dtype=float)  # dsterf overwrites both
    e = np.array(off, dtype=float)
    if e.size != max(d.size - 1, 0):
        raise ValueError("off-diagonal must be one shorter than the diagonal")
    n, info = integer(d.size), integer(0)
    fn(ctypes.byref(n), d.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
       e.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), ctypes.byref(info))
    return d if info.value == 0 else None
