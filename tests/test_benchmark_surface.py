"""The names the benchmark patches or reads stay in the library.

``perfbench/tracing.py`` wraps module attributes of vsheet for its traced
runs, and the workloads and their self-tests read a few more names.  The
benchmark's own self-tests are not part of this suite, so a change that
deletes or renames one of those names is caught here.
"""

import importlib.util
import inspect
import pathlib
import warnings

import numpy as np
import pytest

from vsheet import GridSpec, cli, fileio, front, hemisphere, pressure
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


def _counted(monkeypatch, module, names, calls):
    """Replace each of ``module``'s ``names`` with a wrapper that appends (name, the first argument) to ``calls``."""
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args[0] if args else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("heatmap", [False, True], ids=["plain", "heatmap"])
def test_a_certify_reaches_every_traced_span_once_and_counts_its_evaluations(tmp_path, monkeypatch, heatmap):
    # the traced certify report reads the four hemisphere spans with no default (span_total_s[...]), which
    # the shims open around the cli names; the symbol counters count the points of hemisphere.big_sigma and
    # hemisphere.weight_sigma.  n + 720 and 2n points (the 720 of the simple-root arcs), and a 41 x 41
    # [heatmap] of the ratio adds 1681 to each: 22 401 and 41 681 at n = 20 000 with it.
    n = 20_000
    calls, points = [], []
    _counted(monkeypatch, cli, ("sample_hemisphere", "certify_sandwich", "certify_weight_bounds", "certify_simple_root"), calls)
    _counted(monkeypatch, hemisphere, ("big_sigma", "weight_sigma"), points)
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(f"[params]\nv = 2.0\nc = 1.0\n\n[sample]\nn = {n}\n" + ("\n[heatmap]\nfield = ratio\n" if heatmap else ""))
    assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in calls] == ["sample_hemisphere", "certify_sandwich", "certify_weight_bounds", "certify_simple_root"]
    extra = 41 * 41 if heatmap else 0
    for name, want in (("big_sigma", n + 720 + extra), ("weight_sigma", 2 * n + extra)):
        assert sum(freq.size for called, freq in points if called == name) == want, name


def test_a_sweep_reaches_the_traced_front_spans_once_per_rung(monkeypatch):
    # the traced sweep report reads these five spans with no default (span_median_s[...]), which the shims open
    # around front's names: the sweep must look each up there, the transform once per side, the rest once
    calls = []
    names = ("transform_source", "forward_transform", "build_g", "solve_front", "inverse_transform")
    _counted(monkeypatch, front, names, calls)
    grid = GridSpec(nt=16, nx=16, ny=16, Lt=2 * np.pi, Lx=2 * np.pi, Ly=14.0)
    gammas = (1.0, 2.0, 4.0)
    front.estimate_sweep(*cli.builtin_sources(grid), grid, PhysicalParams(v=2.0, c=1.0), gammas)
    rung = ["transform_source", "forward_transform"] * 2 + ["build_g", "solve_front", "inverse_transform"]
    assert [name for name, _ in calls] == rung * len(gammas)


def test_a_complex_source_with_a_zero_imaginary_part_is_written_as_its_real_part(tmp_path):
    # the workloads' seeded_sources hands write_source_bin complex128 fields cast from real ones; a
    # -0.0 imaginary part is zero too, and the cast to the float32 payload must not warn
    grid = GridSpec(nt=16, nx=16, ny=16, Lt=2 * np.pi, Lx=2 * np.pi, Ly=14.0)
    real = cli.builtin_sources(grid)[0]
    raw = real.astype(np.complex128)
    raw.imag[::3] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fileio.write_source_bin(tmp_path / "complex.bin", raw, grid)
    fileio.write_source_bin(tmp_path / "real.bin", real, grid)
    assert (tmp_path / "complex.bin").read_bytes() == (tmp_path / "real.bin").read_bytes()
