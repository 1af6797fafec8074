"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``.  The report lines are
written to the real stdout so they stay visible under pytest capture.
"""

import sys

import numpy as np
import pytest

from conftest import source_from_spectral
from vsheet.front import Side, build_g, estimate_sweep, solve_front
from vsheet.grids import GridSpec, Space, mesh_terms, weighted_norm
from vsheet.hemisphere import (
    SampleStrategy,
    certify_sandwich,
    certify_simple_root,
    certify_weight_bounds,
    count_zeros_right,
    locate_roots,
    sample_hemisphere,
)
from vsheet.pressure import front_equation_residual, solve_half_space
from vsheet.symbols import (
    SQRT2,
    Frequency,
    PhysicalParams,
    big_sigma,
    mu_pm,
    root_constants,
)

M2 = PhysicalParams(v=2.0, c=1.0)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _capture_bridge(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def dense_certificates():
    """One n=10^6 stratified sample and its certificates, shared by 3/4/8/10."""
    sample = sample_hemisphere(
        1_000_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0
    )
    sandwich = certify_sandwich(sample, M2, explosion_threshold=1e4)
    weights = {c.ratio_name: c for c in certify_weight_bounds(sample, M2)}
    return sandwich, weights


def test_criterion_01_root_location():
    worst = 0.0
    for mach in (1.5, 2.0, 3.0):
        params = PhysicalParams(v=mach, c=1.0)
        y2 = root_constants(params)
        found = locate_roots(params)
        worst = max(worst, abs(abs(found) - params.c * y2) / y2)
    for mach in (0.5, 1.0):
        params = PhysicalParams(v=mach, c=1.0)
        y1 = root_constants(params)
        found = locate_roots(params)
        worst = max(worst, abs(found - params.c * y1) / y1)
    ok = worst <= 1e-8
    _report(1, "root location vs closed form", ok, f"worst rel err {worst:.3e}")
    assert ok, f"worst relative root error {worst:.3e} > 1e-8"


def test_criterion_02_simple_root_band():
    cert = certify_simple_root(M2)
    assert cert.extras["radius"] == 1e-3 and cert.sample_size == 720
    band = cert.extras["band_ratio"]
    shrunk = cert.extras["shrunk_band_ratio"]
    drift = cert.extras["center_drift"]
    ok = cert.passed and band <= 2.0 and shrunk <= 2.0 and drift <= 0.05
    _report(2, "simple-root quotient band", ok, f"band {band:.4f}, drift {drift:.2e}")
    assert ok, f"band={band}, shrunk={shrunk}, drift={drift}"


def test_criterion_03_sandwich_bound(dense_certificates):
    sandwich, _ = dense_certificates
    spread = sandwich.empirical_max / sandwich.empirical_min
    ok = (
        sandwich.passed
        and sandwich.empirical_min > 0
        and spread <= 1e4
        and sandwich.sample_size == 1_000_000
    )
    _report(3, "symbol/weight sandwich on 1e6 samples", ok,
            f"band [{sandwich.empirical_min:.4f}, {sandwich.empirical_max:.4f}]")
    assert ok


def test_criterion_04_weight_bounds(dense_certificates):
    _, weights = dense_certificates
    ok = all(c.passed for c in weights.values()) and len(weights) == 4
    lo = weights["weight_over_gamma"].empirical_min
    _report(4, "weight bounds (gamma floor, Lambda comparability)", ok,
            f"min |sigma|/gamma = {lo:.6f}")
    assert ok


def test_criterion_05_manufactured_recovery():
    grid = GridSpec(nt=256, nx=256, ny=8, Lt=2 * np.pi, Lx=2 * np.pi, Ly=10.0, gamma=1.0)
    mesh = grid.freq_mesh()
    d, e = np.asarray(mesh.delta), np.asarray(mesh.eta)
    f0 = np.exp(-0.05 * (d**2 + e**2)).astype(complex)
    ghat = np.asarray(big_sigma(mesh, M2)) * f0
    sol = solve_front(ghat, grid, M2)
    err = float(np.max(np.abs(sol.f_hat - f0)) / np.max(np.abs(f0)))
    ok = err <= 1e-12
    _report(5, "manufactured front recovery on 256x256", ok, f"rel err {err:.3e}")
    assert ok, f"recovery error {err:.3e}"


def test_criterion_06_source_moment_closed_form():
    a = 0.9
    grid = GridSpec(nt=8, nx=8, ny=128, Lt=2 * np.pi, Lx=2 * np.pi, Ly=26.0, gamma=1.0)
    y, _ = grid.quadrature()
    spec = np.zeros((8, grid.half_nx, 128), dtype=complex)
    spec[1, 2, :] = np.exp(-a * y)
    fplus = source_from_spectral(spec, Side.PLUS, grid)
    fminus = source_from_spectral(np.zeros_like(spec), Side.MINUS, grid)
    freq = grid.freq_mesh()[1, 2]
    mp, _ = mu_pm(freq, M2)
    t_plus, t_minus = mesh_terms(grid, fplus.spectral, fminus.spectral, grid.symbol_table(M2))
    got = (t_plus - t_minus)[1, 2]
    want = 1.0 / (mp * (mp + a))
    err = abs(got - want) / abs(want)
    tail = float(np.exp(-(mp.real + a) * grid.Ly))
    ok = err <= 1e-8 and tail <= 1e-12
    _report(6, "exponential source moment closed form", ok,
            f"rel err {err:.3e}, tail bound {tail:.1e}")
    assert ok, f"moment error {err:.3e}, tail {tail:.3e}"


def test_criterion_07_estimate_sweep():
    grid = GridSpec(nt=64, nx=64, ny=32, Lt=2 * np.pi, Lx=2 * np.pi, Ly=20.0, gamma=1.0)
    from vsheet.cli import builtin_sources

    raw_p, raw_m = builtin_sources(grid)
    res = estimate_sweep(raw_p, raw_m, grid, M2, gammas=(1.0, 2.0, 4.0, 8.0, 16.0), slack=0.1)
    finite = all(
        np.isfinite(row["g_over_f"]) and np.isfinite(row["front_plain"]) and np.isfinite(row["front_aniso"])
        for row in res.rows
    )
    ok = res.passed and finite
    head = res.rows[0]
    _report(7, "energy-estimate sweep gamma 1..16", ok,
            f"ratios at gamma=1: {head['g_over_f']:.3e}, {head['front_plain']:.3e}")
    assert ok


def test_criterion_08_norm_equivalence(dense_certificates):
    sandwich, _ = dense_certificates
    grid = GridSpec(nt=32, nx=32, ny=8, Lt=2 * np.pi, Lx=2 * np.pi, Ly=10.0, gamma=1.0)
    rng = np.random.default_rng(42)
    lo, hi = np.inf, -np.inf
    for _ in range(100):
        fhat = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        num = weighted_norm(np.asarray(big_sigma(grid.freq_mesh(), M2)) * fhat, grid, 0.0)
        den = weighted_norm(fhat, grid, 1.0, space=Space.ANISOTROPIC, params=M2)
        ratio = num / den
        lo, hi = min(lo, ratio), max(hi, ratio)
    ok = lo >= sandwich.empirical_min and hi <= sandwich.empirical_max
    _report(8, "norm equivalence inside certified band", ok,
            f"observed [{lo:.4f}, {hi:.4f}] vs certified [{sandwich.empirical_min:.4f}, {sandwich.empirical_max:.4f}]")
    assert ok


def test_criterion_09_end_to_end_residual():
    grid = GridSpec(nt=8, nx=8, ny=96, Lt=2 * np.pi, Lx=2 * np.pi, Ly=30.0, gamma=1.0)
    rng = np.random.default_rng(7)
    # the modes that the Nyquist rule carries: all but row nt/2 and column nx/2
    carried = [0, 1, 2, 3, 5, 6, 7]
    worst = 0.0
    for _ in range(50):
        it = carried[int(rng.integers(0, 7))]
        ix = carried[int(rng.integers(0, 7))]
        a = float(rng.uniform(0.6, 1.6))
        b = float(rng.uniform(0.6, 1.6))
        y, _ = grid.quadrature()
        spec_p = np.zeros((8, grid.half_nx, 96), dtype=complex)
        spec_m = np.zeros_like(spec_p)
        amp_p = complex(rng.standard_normal(), rng.standard_normal())
        amp_m = complex(rng.standard_normal(), rng.standard_normal())
        # the half-mesh entry that holds mode (it, ix): the mode itself, or its conjugated mirror
        hit, hix, conj = grid.mirror(it, ix)
        amp_p, amp_m = (np.conj(amp) if conj else amp for amp in (amp_p, amp_m))
        spec_p[hit, hix, :] = amp_p * np.exp(-a * y)
        spec_m[hit, hix, :] = amp_m * np.exp(-b * y)
        fp = source_from_spectral(spec_p, Side.PLUS, grid)
        fm = source_from_spectral(spec_m, Side.MINUS, grid)
        sol = solve_front(build_g(fp, fm, M2), grid, M2)
        freq = grid.freq_mesh()[it, ix]
        fhat = complex(sol.f_hat[it, ix])
        pp, pm = solve_half_space(fp, fm, freq, fhat, M2)
        worst = max(worst, front_equation_residual(pp, pm, freq, fhat, M2))
    ok = worst <= 1e-8
    # the residual compares the discrete operator with itself: a consistency check, not an accuracy check
    _report(9, "front-equation residual over 50 single-mode cases", ok,
            f"worst {worst:.3e}; consistency of the closure with the solve, not accuracy")
    assert ok, f"worst end-to-end residual {worst:.3e}"


def test_criterion_10_embedding_chain(dense_certificates):
    sandwich, weights = dense_certificates
    c_low = 1.0 / weights["weight_over_gamma"].empirical_min
    c_high = weights["weight_over_lambda"].empirical_max
    grid = GridSpec(nt=32, nx=32, ny=8, Lt=2 * np.pi, Lx=2 * np.pi, Ly=10.0, gamma=1.0)
    rng = np.random.default_rng(11)
    ok = True
    margin = 1.0 + 1e-12
    for _ in range(100):
        u = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        s = float(rng.uniform(-1.0, 1.0))
        plain = weighted_norm(u, grid, s)
        aniso = weighted_norm(u, grid, s, space=Space.ANISOTROPIC, params=M2)
        higher = weighted_norm(u, grid, s + 1.0)
        ok &= grid.gamma * plain <= c_low * aniso * margin
        ok &= aniso <= c_high * higher * margin
    _report(10, "embedding chain with certified constants", ok,
            f"C_low {c_low:.6f}, C_high {c_high:.6f}")
    assert ok


def test_criterion_11_dichotomy_flip():
    # the zeros of Sigma with Re tau > 0, counted by the argument principle on a ladder of machs
    machs = [0.5 + 0.05 * i for i in range(61)]
    counts = [count_zeros_right(PhysicalParams(v=mach, c=1.0)) for mach in machs]
    flips = [(a, b, m, n) for a, b, m, n in zip(machs, machs[1:], counts, counts[1:]) if m != n]
    ok = len(flips) == 1 and flips[0][2:] == (1, 0) and flips[0][0] < SQRT2 <= flips[0][1]
    detail = (
        f"zeros with Re tau > 0 flip {flips[0][2]} -> {flips[0][3]} in ({flips[0][0]:.2f}, {flips[0][1]:.2f}]"
        if len(flips) == 1 else f"{len(flips)} flips: {[(round(a, 2), m, n) for a, _, m, n in flips]}"
    )
    _report(11, "regime dichotomy at sqrt(2)", ok, detail)
    assert ok, detail
