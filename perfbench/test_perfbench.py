"""Self-tests of the benchmark: small-size smoke runs and checks that can fail.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import common  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vsheet import cli, front, hemisphere, pressure  # noqa: E402
from vsheet.grids import GridSpec  # noqa: E402
from vsheet.symbols import PhysicalParams, big_sigma, weight_sigma  # noqa: E402


class SmallCertify(workloads.Certify):
    n = 20_000


class SmallSweep(workloads.Sweep):
    grid = GridSpec(nt=32, nx=32, ny=32, Lt=workloads.TWO_PI, Lx=workloads.TWO_PI, Ly=20.0)


class SmallClosure(workloads.Closure):
    grid = GridSpec(nt=8, nx=8, ny=96, Lt=workloads.TWO_PI, Lx=workloads.TWO_PI, Ly=30.0)


SMALL = {"certify": SmallCertify(), "sweep": SmallSweep(), "closure": SmallClosure()}


def _args(seed=3, seconds=0.0):
    return argparse.Namespace(seed=seed, seconds=seconds)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_passes_every_check(name, tmp_path):
    result = worker.mode_run(SMALL[name], _args(), tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 3  # cold study, one repetition, the run-level check
    assert len(result["rep_s"]) >= 1
    assert result["cold_digest"] and result["loop_digest"]
    assert 0 < result["setup_s"] < result["cold_s"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_trace_counts_repeat_and_shims_are_removed(name, tmp_path):
    originals = [getattr(m, a) for m, a, *_ in tracing._SHIMS]
    result = worker.mode_trace(SMALL[name], _args(seconds=1e-3), tmp_path)
    assert [getattr(m, a) for m, a, *_ in tracing._SHIMS] == originals
    assert result["failed"] == 0
    assert result["counts_repeat"]
    assert len(result["traced_s"]) >= 2 and len(result["untraced_s"]) >= 1
    if name == "certify":
        # 1 pass plus 10 homogeneity rescalings, and the simple-root arcs
        assert result["counts"]["symbols.big_sigma_points"] == 11 * SmallCertify.n + 720
        # the hemisphere spans come from the names vfs certify calls
        assert {"hemisphere.sample", "hemisphere.sandwich", "hemisphere.weight_bounds",
                "hemisphere.simple_root"} <= set(result["span_total_s"])
        assert result["sandwich_single_s"] > 0 and result["sandwich_pinned_s"] > 0


def test_trace_without_seconds_runs_one_traced_repetition(tmp_path):
    result = worker.mode_trace(SMALL["sweep"], _args(seconds=0.0), tmp_path)
    assert result["failed"] == 0
    assert len(result["traced_s"]) == 1 and result["untraced_s"] == []
    assert result["counts"]["grids.fft_bytes"] > 0


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    sources = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        SMALL["sweep"].prepare(seed, tmp_path / sub)
        inputs = worker.input_digests(tmp_path / sub)
        sources.append({k: v for k, v in inputs.items() if k.endswith(".bin")})
    assert len(sources[0]) == 2
    assert sources[0] == sources[1] != sources[2]


def test_residual_above_bound_raises_error_rate(tmp_path, monkeypatch):
    monkeypatch.setattr(pressure, "front_equation_residual", lambda *a: 10 * workloads.RESIDUAL_BOUND)
    result = worker.mode_run(SMALL["closure"], _args(), tmp_path)
    modes = SmallClosure.grid.nt * SmallClosure.grid.nx
    assert result["failed"] == (1 + len(result["rep_s"])) * modes  # the cold repetition is checked too


def test_decay_violation_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise pressure.DecayViolated("injected")

    monkeypatch.setattr(pressure, "solve_half_space", boom)
    result = worker.mode_run(SMALL["closure"], _args(), tmp_path)
    assert result["failed"] == result["attempted"] - 1  # all modes; the run-level check passes
    assert any("DecayViolated" in p for p in result["problems"])


def test_a_study_that_raises_is_counted_and_the_loop_ends(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(cli, "estimate_sweep", boom)
    result = worker.mode_run(SMALL["sweep"], _args(), tmp_path)
    # vfs reports the error and exits 2 in the cold run and in every repetition
    assert result["failed"] == 1 + len(result["rep_s"]) == result["attempted"]
    assert any("vfs sweep exited 2" in p for p in result["problems"])
    assert result["loop_digest"] is None


def test_failing_certificate_raises_error_rate(tmp_path, monkeypatch):
    real = hemisphere.certify_simple_root

    def failing(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.passed = False
        return cert

    monkeypatch.setattr(cli, "certify_simple_root", failing)
    result = worker.mode_run(SMALL["certify"], _args(), tmp_path)
    assert result["failed"] == 1 + len(result["rep_s"])  # the cold run and every repetition
    assert any("simple_root_quotient FAIL" in p for p in result["problems"])


def test_prefix_recomputation_catches_a_wrong_sandwich(tmp_path, monkeypatch):
    wl = SMALL["certify"]
    state = wl.prepare(3, tmp_path)
    rep = wl.rep(state, tmp_path)
    assert wl.run_checks(state, rep) == []
    real = hemisphere.certify_sandwich

    def skewed(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.empirical_min *= 1 + 1e-6
        return cert

    monkeypatch.setattr(hemisphere, "certify_sandwich", skewed)
    assert any("closed form" in p for p in wl.run_checks(state, rep))


def test_closed_form_ratio_matches_vsheet_away_from_roots():
    sample = hemisphere.sample_hemisphere(2000, hemisphere.SampleStrategy.UNIFORM_ANGULAR, 0.1)
    params = PhysicalParams(v=2.0, c=1.0)
    f = sample.freqs
    ours = workloads.closed_form_ratio(f.gamma, f.delta, f.eta, params.v, params.c)
    theirs = np.abs(big_sigma(f, params)) / (np.abs(weight_sigma(f, params)) * f.lam)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)


def test_artifact_checks_fail_on_bad_payloads():
    good = [{"ratio_name": f"r{i}", "pass": True} for i in range(6)]
    assert common.check_certificates(good) == []
    assert common.check_certificates(good[:5])
    assert common.check_certificates(good[:5] + [{"ratio_name": "x", "pass": False}])
    row = {"gamma": 1.0, "front_aniso": 1.0, "g_over_f": 1.0, "front_plain": 1.0}
    assert common.check_sweep({"rows": [row], "passed": True}) == []
    assert common.check_sweep({"rows": [row], "passed": False})
    assert common.check_sweep({"rows": [dict(row, g_over_f=float("nan"))], "passed": True})
    assert common.check_sweep({"rows": [], "passed": True})


def test_sweep_failure_is_counted(tmp_path, monkeypatch):
    real = front.estimate_sweep

    def failing(*args, **kwargs):
        res = real(*args, **kwargs)
        return front.SweepResult(rows=res.rows, passed=False, slack=res.slack, s=res.s)

    monkeypatch.setattr(cli, "estimate_sweep", failing)
    result = worker.mode_run(SMALL["sweep"], _args(), tmp_path)
    assert result["failed"] == 1 + len(result["rep_s"])  # the cold run and every repetition


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "sweep-256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
