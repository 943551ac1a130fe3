"""The one way gnmodel spreads independent tasks over worker threads.

Results come back in item order and each task computes the same thing on
any thread, so a result never depends on the thread count: callers give
every task its own inputs and random stream and collect the returned list.
The work overlaps only where NumPy releases the GIL (Philox fills, einsum,
BLAS, array arithmetic).  Workers take items in the order given, so a caller
whose tasks differ in cost may pass them dearest first and scatter the
results back to its own order; the values cannot change.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["ordered_map"]


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads when
    ``threads`` > 1; the first exception a task raises propagates."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]
