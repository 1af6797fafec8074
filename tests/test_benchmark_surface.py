"""The names the benchmark patches or reads stay in the library.

``perfbench/tracing.py`` wraps module attributes of vsheet for its traced
runs, and the workloads and their self-tests read a few more names.  The
benchmark's own self-tests are not part of this suite, so a change that
deletes or renames one of those names is caught here.
"""

import importlib.util
import inspect
import pathlib

import numpy as np

from vsheet import GridSpec, cli, front, hemisphere, pressure
from vsheet.symbols import Frequency, NumericalGuard, PhysicalParams

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shimmed_name_resolves_and_is_restored():
    tracing = _tracing()
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in tracing._SHIMS]
    assert all(callable(fn) for _, _, fn in originals)
    tracer = tracing.Tracer()
    with tracing.shimmed(tracer):
        for module, attr, fn in originals:
            assert getattr(module, attr).__wrapped__ is fn, f"{module.__name__}.{attr}"
        # a point counts as one evaluated frequency
        hemisphere.big_sigma(Frequency(1.0, 0.0, 1.0), PhysicalParams(v=2.0, c=1.0))
    assert tracer.counts["symbols.big_sigma_points"] == 1
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr} was not restored"


def test_the_names_the_benchmark_reads_resolve():
    # the closure workload counts an injected DecayViolated as a failed mode, as it does any guard
    assert issubclass(pressure.DecayViolated, NumericalGuard)
    assert hemisphere.SampleStrategy.UNIFORM_ANGULAR in hemisphere.SampleStrategy
    seed = inspect.signature(hemisphere.certify_sandwich).parameters["seed"]
    assert seed.kind in (seed.POSITIONAL_OR_KEYWORD, seed.KEYWORD_ONLY)


def test_a_sweep_reaches_the_traced_front_spans_once_per_rung(monkeypatch):
    # the traced sweep report reads the front.solve_front and grids.inverse_transform spans, which the
    # shims open around front.solve_front and front.inverse_transform: the sweep must look both up there
    calls = []

    def counted(name):
        original = getattr(front, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("solve_front", "inverse_transform"):
        monkeypatch.setattr(front, name, counted(name))
    grid = GridSpec(nt=16, nx=16, ny=16, Lt=2 * np.pi, Lx=2 * np.pi, Ly=14.0)
    gammas = (1.0, 2.0, 4.0)
    front.estimate_sweep(*cli.builtin_sources(grid), grid, PhysicalParams(v=2.0, c=1.0), gammas)
    assert calls == ["solve_front", "inverse_transform"] * len(gammas)
