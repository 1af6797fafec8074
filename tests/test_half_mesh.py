"""Real sources on the half mesh against a full-mesh reference written here.

The reference transforms each real source with a complex ``np.fft.fft2``,
runs :func:`grids.boundary_terms` on all nt * nx modes and sums the norms
over the full mesh, as the library did before sources were kept on the
half mesh.  The tolerances are five times the deviations measured on these
inputs (numpy 2.4, one and two worker threads alike): build_g 7.9e-16 of
max |g| at gamma 1 and 1.5e-16 at gamma 16, half_line_norm 4.0e-16
relative, the sweep ratios 5.0e-16 relative at gamma 1 and 1.6e-16 at
gamma 16.  The closure bound is the one the benchmark's closure check
applies to every mode; the worst mode here measured 8.0e-16.
"""

import dataclasses
import math

import numpy as np
import pytest

from vsheet import front, grids
from vsheet.cli import builtin_sources
from vsheet.front import Side, build_g, estimate_sweep, solve_front, transform_source
from vsheet.grids import GridSpec, half_line_norm
from vsheet.pressure import front_equation_residual, solve_half_space
from vsheet.symbols import PhysicalParams, big_sigma, mu_pm, weight_sigma

M2 = PhysicalParams(v=2.0, c=1.0)

G_TOL = 4e-15         # |build_g - reference| / max |reference|
NORM_RTOL = 2e-15     # half_line_norm against the full-mesh sum
SWEEP_RTOL = 2.5e-15  # each sweep ratio against the reference's
CLOSURE_BOUND = 1e-12


def _grid(nt=32, nx=32, ny=16, Ly=14.0, gamma=1.0):
    return GridSpec(nt=nt, nx=nx, ny=ny, Lt=2 * math.pi, Lx=2 * math.pi, Ly=Ly, gamma=gamma)


def _noisy_pair(grid, seed=5):
    """The builtin pair times 1 + 0.3 real noise in (t, x1), so every mode of the mesh carries content."""
    rng = np.random.default_rng(seed)
    return tuple(raw * (1.0 + 0.3 * rng.standard_normal((grid.nt, grid.nx, 1))) for raw in builtin_sources(grid))


def _reference_spectral(raw, grid):
    damp = np.exp(-grid.gamma * grid.t())[:, None, None]
    return grid.cell * np.fft.fft2(damp * raw.astype(complex), axes=(0, 1))


def _reference_g(raw_p, raw_m, grid, params):
    mup, mum = mu_pm(grid.freq_mesh(), params)
    t_plus, t_minus = (
        grids.boundary_terms(grid, _reference_spectral(raw, grid), mu) for raw, mu in ((raw_p, mup), (raw_m, mum))
    )
    return -(mup * mum / (mup + mum)) * (t_plus - t_minus)


def _plain_sum(u, w, grid):
    """sum over the full (delta, eta) mesh of (w |u|)^2 / (Lt Lx), per trailing index."""
    w = w.reshape(w.shape + (1,) * (u.ndim - 2))
    return np.sum((w * np.abs(u)) ** 2, axis=(0, 1)) / (grid.Lt * grid.Lx)


def _reference_norm(raw, grid, s):
    squares = _plain_sum(_reference_spectral(raw, grid), grid.freq_mesh().lam ** s, grid)
    return math.sqrt(np.dot(grid.quadrature()[1], squares))


def _reference_row(raw_p, raw_m, grid, params, gamma, s=0.0):
    grid = dataclasses.replace(grid, gamma=gamma)
    mesh = grid.freq_mesh()
    g_hat = _reference_g(raw_p, raw_m, grid, params)
    f_hat = g_hat / big_sigma(mesh, params)
    rhs = sum(_reference_norm(raw, grid, s) ** 2 for raw in (raw_p, raw_m))
    lam = mesh.lam
    return {
        "g_over_f": gamma * _plain_sum(g_hat, lam**s, grid) / rhs,
        "front_plain": gamma**3 * _plain_sum(f_hat, lam ** (s + 1.0), grid) / rhs,
        "front_aniso": gamma * _plain_sum(f_hat, np.abs(weight_sigma(mesh, params)) * lam ** (s + 1.0), grid) / rhs,
    }


@pytest.mark.parametrize("gamma", [1.0, 16.0])
def test_build_g_matches_the_full_mesh_reference(gamma):
    grid = _grid(gamma=gamma)
    raw_p, raw_m = _noisy_pair(grid)
    got = build_g(transform_source(raw_p, Side.PLUS, grid), transform_source(raw_m, Side.MINUS, grid), M2)
    want = _reference_g(raw_p, raw_m, grid, M2)
    assert got.shape == (grid.nt, grid.nx)
    dev = np.abs(got - want) / np.max(np.abs(want))
    # the Nyquist row past column nx/2 is not its mirror's conjugate, and must match as well
    assert np.max(dev[grid.nyquist_row, grid.half_nx :]) <= G_TOL
    assert np.max(dev) <= G_TOL, np.unravel_index(np.argmax(dev), dev.shape)


@pytest.mark.parametrize("s", [0.0, 1.5])
def test_half_line_norm_matches_the_full_mesh_reference(s):
    grid = _grid()
    raw = _noisy_pair(grid)[0]
    got = half_line_norm(transform_source(raw, Side.PLUS, grid).spectral, grid, s)
    assert got == pytest.approx(_reference_norm(raw, grid, s), rel=NORM_RTOL)


def test_sweep_rows_match_the_full_mesh_reference():
    grid = _grid()
    raw_p, raw_m = _noisy_pair(grid)
    rows = estimate_sweep(raw_p, raw_m, grid, M2, gammas=(1.0, 16.0)).rows
    for row in rows:
        want = _reference_row(raw_p, raw_m, grid, M2, row["gamma"])
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=SWEEP_RTOL), (row["gamma"], key)


def test_the_closure_holds_on_every_mode():
    # both halves of the mesh, eta = 0, the last half-mesh column and the Nyquist row
    grid = _grid(nt=16, nx=16, ny=48, Ly=30.0)
    raw_p, raw_m = _noisy_pair(grid, seed=6)
    fp, fm = transform_source(raw_p, Side.PLUS, grid), transform_source(raw_m, Side.MINUS, grid)
    sol = solve_front(build_g(fp, fm, M2), grid, M2)
    mesh = grid.freq_mesh()
    residual = np.empty((grid.nt, grid.nx))
    for it, ix in np.ndindex(grid.nt, grid.nx):
        fhat = complex(sol.f_hat[it, ix])
        pair = solve_half_space(fp, fm, mesh[it, ix], fhat, M2)
        residual[it, ix] = front_equation_residual(*pair, mesh[it, ix], fhat, M2)
    assert np.all(np.abs(sol.f_hat) > 0.0)
    assert np.max(residual) <= CLOSURE_BOUND, np.unravel_index(np.argmax(residual), residual.shape)


class TestComplexSources:
    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    def test_transform_source_names_the_side(self, side):
        grid = _grid(nt=8, nx=8, ny=8, Ly=10.0)
        raw = np.zeros((8, 8, 8), dtype=complex)
        raw[1, 2, 3] = 1e-300j
        with pytest.raises(ValueError, match=f"^{side.value}-side source has a non-zero imaginary part; sources are real$"):
            transform_source(raw, side, grid)

    def test_a_zero_imaginary_part_is_the_real_source(self):
        grid = _grid(nt=8, nx=8, ny=8, Ly=10.0)
        raw = builtin_sources(grid)[0]
        for dtype in (np.complex128, np.complex64):
            got = transform_source(raw.astype(dtype), Side.PLUS, grid).spectral
            assert got.tobytes() == transform_source(raw.astype(dtype).real, Side.PLUS, grid).spectral.tobytes()

    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    def test_estimate_sweep_names_the_side(self, side):
        grid = _grid(nt=8, nx=8, ny=8, Ly=10.0)
        raws = {other: builtin_sources(grid)[i].astype(complex) for i, other in enumerate(Side)}
        raws[side][0, 0, 0] += 1j
        with pytest.raises(ValueError, match=f"^{side.value}-side source has a non-zero imaginary part; sources are real$"):
            estimate_sweep(raws[Side.PLUS], raws[Side.MINUS], grid, M2, gammas=(1.0, 2.0))

    def test_estimate_sweep_checks_each_source_once(self, monkeypatch):
        checked = []
        real_source = grids.real_source

        def counting(raw, what):
            if np.iscomplexobj(raw):
                checked.append(what)
            return real_source(raw, what)

        monkeypatch.setattr(front, "real_source", counting)
        grid = _grid(nt=16, nx=16, ny=16, Ly=14.0)
        raw_p, raw_m = builtin_sources(grid)
        rows = estimate_sweep(raw_p.astype(np.complex64), raw_m.astype(np.complex64), grid, M2, gammas=(1.0, 2.0, 4.0)).rows
        assert checked == ["plus-side source", "minus-side source"]
        # a complex pair with a zero imaginary part gives the rows of its real parts
        want = estimate_sweep(raw_p.astype(np.float32), raw_m.astype(np.float32), grid, M2, gammas=(1.0, 2.0, 4.0)).rows
        assert rows == want
