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
"""
from __future__ import annotations

__all__ = ["ordered_map"]


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads when
    ``threads`` > 1; the first exception a task raises propagates.  Each
    task runs in a copy of the caller's context, so the caller's NumPy error
    state (``np.errstate``) holds on the workers too."""
    if threads > 1:
        import contextvars
        from concurrent.futures import ThreadPoolExecutor
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda item: context.copy().run(fn, item),
                                 items))
    return [fn(item) for item in items]
