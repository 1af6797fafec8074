"""Fixed chunks of work on the ``VFS_THREADS`` worker pool, and the one extremum scan.

The certificate scans, the source transforms and the half-line kernel split
their work into chunks whose boundaries depend only on the size being
split, never on the number of threads, and collect the results in chunk
order.  Whatever a caller computes from them is therefore the same for any
``VFS_THREADS``.

:func:`scan_extrema` is the one place an extremum over a frequency batch is
taken: the certificates over a hemisphere sample and the symbol floor over
a solve mesh.  It says where each extremum sits, as a flat index into the
batch.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

# points per chunk of a scan (and of the hemisphere sampler) on the worker pool,
# and per block inside a chunk; a block's temporaries (0.5 MB each in
# complex128) are a worker's only scratch.  Read at call time, so a test may patch them.
CHUNK = 2**17
BLOCK = 2**15


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


class Extrema(NamedTuple):
    """Count, least value and its flat index, largest value and its flat index.

    Ties go to the lowest index.  A NaN is both the least and the largest
    value, at the index of the first NaN.  An empty part has count 0, the
    bounds ``inf`` and ``-inf`` and no index.
    """

    count: int
    min: float
    argmin: int | None
    max: float
    argmax: int | None


_EMPTY = Extrema(0, math.inf, None, -math.inf, None)


def extrema(values: np.ndarray, where: np.ndarray | None = None, offset: int = 0) -> Extrema:
    """The :class:`Extrema` of a 1-d ``values``, or of its subset ``where`` holds, indexed from ``offset``.

    ``np.argmin`` and ``np.argmax`` give the first occurrence, and the first NaN when there is one.
    """
    index = None if where is None else np.flatnonzero(where)
    if index is not None:
        values = values[index]
    if not values.size:
        return _EMPTY
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    at = (lo, hi) if index is None else (int(index[lo]), int(index[hi]))
    return Extrema(values.size, float(values[lo]), offset + at[0], float(values[hi]), offset + at[1])


def _replaces(later: float, earlier: float, better) -> bool:
    """Whether a value at a higher index replaces one at a lower index: if it is ``better``, or a first NaN."""
    return not math.isnan(earlier) and (math.isnan(later) or better(later, earlier))


def _join(first: Extrema, then: Extrema) -> Extrema:
    """The extrema of two parts, ``first`` holding the lower indices."""
    if not (first.count and then.count):
        return first if first.count else then
    low = then if _replaces(then.min, first.min, operator.lt) else first
    high = then if _replaces(then.max, first.max, operator.gt) else first
    return Extrema(first.count + then.count, low.min, low.argmin, high.max, high.argmax)


def _join_all(parts) -> list[Extrema]:
    """Per part, the join of ``parts``, a sequence (in index order) of equally long lists of extrema."""
    return functools.reduce(lambda acc, found: [_join(a, b) for a, b in zip(acc, found)], parts)


def scan_extrema(evaluate, size: int) -> list[Extrema]:
    """For each part that ``evaluate`` returns, its :class:`Extrema` over the flat indices ``range(size)``.

    ``evaluate(lo, hi)`` returns a sequence of parts for the indices
    ``[lo, hi)``: each a 1-d array of ``hi - lo`` values, or a pair
    ``(values, where)`` whose extrema are taken over the subset ``where``
    holds.  The indices are cut into chunks of :data:`CHUNK` on the worker
    pool (:func:`map_chunks`), and each chunk is evaluated in blocks of
    :data:`BLOCK`, so a worker holds one block's temporaries at a time.  The
    extrema are joined in index order, so the result, its indices
    included, is the same for any ``VFS_THREADS``, chunk or block size.
    ``size`` must be positive.
    """

    def parts(lo: int, hi: int) -> list[Extrema]:
        return [extrema(*(part if isinstance(part, tuple) else (part,)), offset=lo) for part in evaluate(lo, hi)]

    def run(start: int, stop: int) -> list[Extrema]:
        return _join_all(parts(lo, min(lo + BLOCK, stop)) for lo in range(start, stop, BLOCK))

    return _join_all(map_chunks(run, size, CHUNK))
