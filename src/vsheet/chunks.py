"""Fixed chunks of work on the ``VFS_THREADS`` worker pool.

The certificate scans, the source transforms and the half-line kernel split
their work into chunks whose boundaries depend only on the size being
split, never on the number of threads, and collect the results in chunk
order.  Whatever a caller computes from them is therefore the same for any
``VFS_THREADS``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int | None:
    """``VFS_THREADS`` as a positive integer, or None (the executor's default) when unset."""
    raw = os.environ.get("VFS_THREADS", "").strip()
    if not raw:
        return None
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"VFS_THREADS must be a positive integer, got {raw!r}")
    return count


def map_chunks(fn, size: int, chunk: int) -> list:
    """``[fn(start, stop) for each [start, stop) of range(size) cut every chunk]``, on the worker pool.

    One chunk, or ``VFS_THREADS=1``, runs inline; otherwise the chunks run
    on a pool made for this call.  The results come back in chunk order.
    """
    starts = range(0, size, chunk)

    def run(start: int):
        return fn(start, min(start + chunk, size))

    workers = worker_count()
    if len(starts) <= 1 or workers == 1:
        return [run(start) for start in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, starts))
