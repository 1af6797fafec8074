"""Spans and counters at vsheet's layer boundaries, for the traced run only.

``shimmed(tracer)`` replaces module attributes of vsheet with wrappers that
open a span around each call and, for the symbol functions, count the
frequency points evaluated.  The wrappers sit where callers look the names
up: ``cli.certify_sandwich`` is the name ``vfs certify`` calls,
``hemisphere.big_sigma`` the one ``certify_sandwich`` calls, and
``front.forward_transform`` the one ``transform_source`` calls.  The
originals are put back when the block ends.  Nothing here changes a value
the program computes.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from vsheet import cli, fileio, front, grids, hemisphere, pressure


class Tracer:
    """Spans ``(id, parent, name, start, end)`` and named counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end))

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def top_level(self, prefix: str) -> list[float]:
        """Durations of ``prefix*`` spans whose parent is not itself a ``prefix*`` span."""
        names = {sid: n for sid, _, n, _, _ in self.spans}
        return [
            end - start
            for _, parent, n, start, end in self.spans
            if n.startswith(prefix) and not names.get(parent, "").startswith(prefix)
        ]


def _points(args) -> int:
    return int(args[0].size)


def _fft_bytes(args) -> int:
    # computed, not measured: the complex128 array read plus the one written
    return 2 * 16 * int(args[0].size)


# (module, attribute, span name, counter name, counter function)
_SHIMS = (
    (cli, "sample_hemisphere", "hemisphere.sample", None, None),
    (cli, "certify_sandwich", "hemisphere.sandwich", None, None),
    (cli, "certify_weight_bounds", "hemisphere.weight_bounds", None, None),
    (cli, "certify_simple_root", "hemisphere.simple_root", None, None),
    (hemisphere, "big_sigma", "symbols.big_sigma", "symbols.big_sigma_points", _points),
    (hemisphere, "weight_sigma", "symbols.weight_sigma", "symbols.weight_sigma_points", _points),
    (front, "big_sigma", "symbols.big_sigma", "symbols.big_sigma_points", _points),
    (front, "mu_pm", "symbols.mu_pm", "symbols.mu_pm_points", _points),
    (pressure, "mu_pm", "symbols.mu_pm", "symbols.mu_pm_points", _points),
    (grids, "weight_sigma", "symbols.weight_sigma", "symbols.weight_sigma_points", _points),
    (front, "forward_transform", "grids.forward_transform", "grids.fft_bytes", _fft_bytes),
    (front, "inverse_transform", "grids.inverse_transform", "grids.fft_bytes", _fft_bytes),
    (front, "transform_source", "front.transform_source", None, None),
    (front, "build_g", "front.build_g", None, None),
    (front, "solve_front", "front.solve_front", None, None),
    (pressure, "solve_half_space", "pressure.solve_half_space", None, None),
    (pressure, "front_equation_residual", "pressure.residual", None, None),
    (fileio, "write_json", "fileio.write_json", None, None),
    (fileio, "write_csv", "fileio.write_csv", None, None),
    (fileio, "write_front_solution", "fileio.write_front_solution", None, None),
)


def _wrap(tracer: Tracer, fn, span_name: str, counter: str | None, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter:
            tracer.count(counter, measure(args))
        with tracer.span(span_name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def shimmed(tracer: Tracer):
    """Install every shim for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module, attr, span_name, counter, measure in _SHIMS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, span_name, counter, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
