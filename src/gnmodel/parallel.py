"""The one way gnmodel spreads independent tasks over worker threads.

Results come back in item order and each task computes the same thing on
any thread, so a result never depends on the thread count: callers give
every task its own inputs and random stream and collect the returned list.
The work overlaps only where NumPy releases the GIL (Philox fills, einsum,
BLAS, array arithmetic).  Workers take items in the order given, so a caller
whose tasks differ in cost may pass them dearest first and scatter the
results back to its own order; the values cannot change.  The thread pool
machinery (``concurrent.futures``, with ``logging``) is imported on the first
call with ``threads`` > 1, so a serial process never loads it.

This is the only parallel layer while it runs: BLAS is pinned to one thread
before the workers start and its saved pool size is restored once they have
joined, also when a task raises, so a worker's GEMM never wakes a second
pool that competes with the other workers.  No bit moves, since OpenBLAS
splits a GEMM by rows and columns, not along the summed index.  The pool
setter is that of the OpenBLAS NumPy loaded, looked up on the first call
with ``threads`` > 1 (never by a serial call); where none is found the pin
does nothing.  The pool size is process-wide, so the call is not reentrant
across caller threads: two callers mapping at once may leave BLAS pinned.
"""
from __future__ import annotations

import functools

__all__ = ["ordered_map"]


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads when
    ``threads`` > 1, with BLAS on one thread meanwhile; the first exception
    a task raises propagates.  Each task runs in a copy of the caller's
    context, so the caller's NumPy error state (``np.errstate``) holds on
    the workers too."""
    if threads > 1:
        import contextvars
        from concurrent.futures import ThreadPoolExecutor
        context = contextvars.copy_context()
        blas = _blas_threads()
        if blas:
            get_blas, set_blas = blas
            saved = get_blas()
            set_blas(1)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(lambda item: context.copy().run(fn, item),
                                     items))
        finally:
            if blas:
                set_blas(saved)
    return [fn(item) for item in items]


@functools.cache
def _blas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS that NumPy
    loaded, or None when no such library or setter is found."""
    import ctypes
    import glob
    import os

    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None
