"""Order-preserving parallel map.

Results come back in input order, so any reduction over them is identical
whatever the worker count — reports produced with workers=1 and workers=N
are byte-for-byte the same.
"""

from __future__ import annotations

import math
import multiprocessing


def pmap(fn, items, workers: int = 1) -> list:
    """Map `fn` over `items`, in order; forks min(`workers`, len(items))
    processes when that is > 1.

    `fn` and items must be picklable when workers > 1 (use a module-level
    function, optionally wrapped in functools.partial).
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        ctx = multiprocessing.get_context()
    chunksize = max(1, math.ceil(len(items) / (workers * 4)))
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=chunksize)
