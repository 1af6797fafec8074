"""Half-space pressure reconstruction: jump conditions, ODE residuals."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import source_from_spectral
from vsheet import grids, pressure
from vsheet.front import Side, half_line_terms
from vsheet.grids import GridSpec
from vsheet.pressure import DecayViolated, front_equation_residual, solve_half_space
from vsheet.symbols import Frequency, PhysicalParams, mu_pm

M2 = PhysicalParams(v=2.0, c=1.0)


def _particular_at(x, mu, Ly, c, source_fn):
    """Free-space particular solution at x by adaptive quadrature, splitting the kernel kink."""
    total = 0.0 + 0.0j
    if x > 0.0:
        total += quad(lambda y: np.exp(-mu * (x - y)) * source_fn(y), 0.0, x,
                      complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    if x < Ly:
        total += quad(lambda y: np.exp(-mu * (y - x)) * source_fn(y), x, Ly,
                      complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    return total / (2.0 * mu * c * c)


def _ode_residual(profile, source_fn, Ly, c, h=1e-2, order=2, n_check=16):
    """Finite-difference residual of c^2 mu^2 P - c^2 P'' = F at interior nodes.

    An oracle independent of the library's sweeps: ``source_fn`` is the
    analytic source profile in the mirrored variable xi (F(-xi) on the
    MINUS side), and the particular solution is re-evaluated by adaptive
    quadrature on [0, Ly].  ``order`` picks the 3-point (2) or 5-point (4)
    stencil; the residuals are normalized by the size of the terms and
    converge at the stencil order as h shrinks.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    mu = profile.mu
    reach = 2 * h if order == 4 else h
    interior = profile.nodes[(profile.nodes > reach) & (profile.nodes < Ly - reach)]
    checks = interior[:: max(1, interior.size // n_check)]

    def total(x):
        return profile.amplitude * np.exp(-mu * x) + _particular_at(x, mu, Ly, c, source_fn)

    scale = max(abs(source_fn(float(x))) for x in checks)
    scale += abs(c * c * mu * mu) * float(np.max(np.abs(profile.values)))
    out = np.empty(checks.size)
    for j, x in enumerate(map(float, checks)):
        if order == 2:
            second = (total(x - h) - 2.0 * total(x) + total(x + h)) / (h * h)
        else:
            second = (-total(x + 2 * h) + 16.0 * total(x + h) - 30.0 * total(x)
                      + 16.0 * total(x - h) - total(x - 2 * h)) / (12.0 * h * h)
        out[j] = abs(c * c * mu * mu * total(x) - c * c * second - source_fn(x)) / scale
    return out


def _grid(ny=96, Ly=30.0, nt=8, nx=8):
    return GridSpec(nt=nt, nx=nx, ny=ny, Lt=2 * np.pi, Lx=2 * np.pi, Ly=Ly, gamma=1.0)


def _exp_fields(grid, a=0.9, b=0.7, it=1, ix=2, scale_m=1.0):
    y, _ = grid.quadrature()
    spec_p = np.zeros((grid.nt, grid.nx, grid.ny), dtype=complex)
    spec_m = np.zeros_like(spec_p)
    spec_p[it, ix, :] = np.exp(-a * y)
    spec_m[it, ix, :] = scale_m * np.exp(-b * y)
    return (
        source_from_spectral(spec_p, Side.PLUS, grid),
        source_from_spectral(spec_m, Side.MINUS, grid),
    )


def _zero_fields(grid):
    z = np.zeros((grid.nt, grid.nx, grid.ny), dtype=complex)
    return (
        source_from_spectral(z, Side.PLUS, grid),
        source_from_spectral(z.copy(), Side.MINUS, grid),
    )


class TestSolveHalfSpace:
    def test_zero_everything(self):
        g = _grid()
        fp, fm = _zero_fields(g)
        freq = g.freq_mesh()[1, 2]
        pp, pm = solve_half_space(fp, fm, freq, 0.0, M2)
        assert np.max(np.abs(pp.values)) == 0.0
        assert np.max(np.abs(pm.values)) == 0.0
        assert pp.dp0 == 0.0 and pm.dp0 == 0.0

    def test_jump_conditions_sourceless(self):
        # F = 0, fhat = 1: pressure continuous, normal-derivative jump
        # equals the front coupling  c^2 (dp0+ - dp0-) = -4 i v tau eta
        g = _grid()
        fp, fm = _zero_fields(g)
        freq = g.freq_mesh()[2, 3]
        fhat = 1.0 + 0.0j
        pp, pm = solve_half_space(fp, fm, freq, fhat, M2)
        assert abs(pp.p0 - pm.p0) < 1e-14 * max(abs(pp.p0), 1.0)
        lhs = M2.c**2 * (pp.dp0 - pm.dp0)
        rhs = -4.0 * M2.v * freq.tau * 1j * freq.eta * fhat
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_amplitudes_against_direct_2x2_solve(self):
        g = _grid()
        fp, fm = _exp_fields(g, it=2, ix=1, scale_m=0.8)
        freq = g.freq_mesh()[2, 1]
        fhat = 0.4 - 0.2j
        pp, pm = solve_half_space(fp, fm, freq, fhat, M2)
        mp, mm = mu_pm(freq, M2)
        y, w = g.quadrature()
        c2 = M2.c**2
        i_p = np.sum(w * np.exp(-mp * y) * fp.spectral[2, 1]) / (2.0 * mp * c2)
        i_m = np.sum(w * np.exp(-mm * y) * fm.spectral[2, 1]) / (2.0 * mm * c2)
        coupling = 4.0 * M2.v * freq.tau * 1j * freq.eta * fhat / c2
        mat = np.array([[1.0, -1.0], [mp, mm]], dtype=complex)
        rhs = np.array([i_m - i_p, mp * i_p + mm * i_m + coupling], dtype=complex)
        a_p, a_m = np.linalg.solve(mat, rhs)
        assert abs(pp.amplitude - a_p) < 1e-12 * max(abs(a_p), 1.0)
        assert abs(pm.amplitude - a_m) < 1e-12 * max(abs(a_m), 1.0)

    def test_boundary_values_extrapolate_from_p0_dp0(self):
        # P(y0) = p0 + dp0*y0 + O(y0^2) at the first quadrature node
        g = _grid()
        fp, fm = _exp_fields(g)
        freq = g.freq_mesh()[1, 2]
        pp, pm = solve_half_space(fp, fm, freq, 0.3 + 0.1j, M2)
        for prof, orient in ((pp, 1.0), (pm, -1.0)):
            # dp0 is the physical d/dx2 derivative; the minus-side profile
            # is tabulated in the mirrored variable xi = -x2
            y0 = float(prof.nodes[0])
            assert y0 > 0
            taylor = prof.p0 + orient * prof.dp0 * y0
            curvature = abs(prof.mu) ** 2 * float(np.max(np.abs(prof.values)))
            assert abs(prof.values[0] - taylor) < 2.0 * curvature * y0**2

    def test_decay_guard(self, monkeypatch):
        monkeypatch.setattr(pressure, "DECAY_TOL", 1e-30)
        g = _grid(ny=8, Ly=2.0)
        fp, fm = _zero_fields(g)
        freq = g.freq_mesh()[1, 1]
        with pytest.raises(DecayViolated):
            solve_half_space(fp, fm, freq, 1.0, M2)

    @pytest.mark.parametrize("fhat", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_fhat_is_rejected(self, fhat):
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^fhat must be finite, got ") as err:
                solve_half_space(fp, fm, g.freq_mesh()[1, 2], fhat, M2)
        assert "\n" not in str(err.value)

    @staticmethod
    def _poison_closure(monkeypatch, part, side):
        """Make ``closure_sums`` return NaN for ``side`` in ``part``: 0 is the terms T, 2 the free-space sums."""

        def poisoned(*args):
            sums = list(grids.closure_sums(*args))
            sums[part] = sums[part].copy()
            sums[part][side] = np.nan
            return tuple(sums)

        monkeypatch.setattr(pressure, "closure_sums", poisoned)

    def test_decay_guard_trips_on_a_nan_profile(self, monkeypatch):
        # `nan > x` is False: a guard written as "fail when larger" would let this profile through
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)
        self._poison_closure(monkeypatch, 2, 0)
        with pytest.raises(DecayViolated, match="^plus-side pressure retains nan of its peak"):
            solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)

    def test_decay_guard_trips_on_a_nan_minus_profile(self, monkeypatch):
        # the jump system couples the sides: a NaN minus term makes both profiles NaN, and the message names both
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)
        self._poison_closure(monkeypatch, 0, 1)
        with pytest.raises(DecayViolated, match="^plus-side pressure retains nan and minus-side") as err:
            solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf_j"])
    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    def test_a_non_finite_source_sample_is_named(self, side, value):
        # checked before the jump system couples the sides, so the message can name the side, the mode and the node
        g = _grid(ny=16, nt=16, nx=16)
        fields = dict(zip(Side, _exp_fields(g)))
        spectral = fields[side].spectral.copy()
        spectral[1, 2, 3] = value
        fields[side] = source_from_spectral(spectral, side, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{side.value}-side source is not finite at mode \(1, 2\), node 3$"):
                solve_half_space(fields[Side.PLUS], fields[Side.MINUS], g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)

    def test_mu_is_the_symbol_table_entry_bit_for_bit(self):
        g = _grid(ny=96, Ly=30.0, nt=64, nx=64)
        fp, fm = _zero_fields(g)
        table, mesh = g.symbol_table(M2), g.freq_mesh()
        differ = []
        for it, ix in np.ndindex(g.nt, g.nx):
            pp, pm = solve_half_space(fp, fm, mesh[it, ix], 0.0, M2)
            if (pp.mu, pm.mu) != (table.mup[it, ix], table.mum[it, ix]):
                differ.append((it, ix))
        assert not differ, f"{len(differ)} modes, first {differ[0]}"

    def test_off_lattice_frequency_rejected(self):
        g = _grid()
        fp, fm = _zero_fields(g)
        with pytest.raises(ValueError):
            solve_half_space(fp, fm, Frequency(1.0, 0.5, 1.0), 1.0, M2)


def _random_fields(grid, seed):
    """Seeded complex sources on every mode, under a Gaussian depth envelope."""
    rng = np.random.default_rng(seed)
    y, _ = grid.quadrature()
    envelope = np.exp(-(((y - 0.15 * grid.Ly) / (0.06 * grid.Ly)) ** 2))
    shape = (grid.nt, grid.nx, grid.ny)
    return tuple(
        source_from_spectral((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope, side, grid)
        for side in (Side.PLUS, Side.MINUS)
    )


def _dense_values(prof, field, mode, c):
    """The profile with its particular solution summed through the dense exp(-mu|y_i - y_j|) kernel."""
    y, w = field.grid.quadrature()
    kernel = np.exp(-prof.mu * np.abs(y[:, None] - y[None, :]))
    particular = (kernel * field.spectral[mode][None, :]) @ w / (2.0 * prof.mu * c**2)
    return prof.amplitude * np.exp(-prof.mu * y) + particular


def _assert_matches_dense(pair, fields, mode, params=M2):
    for prof, field in zip(pair, fields):
        ref = _dense_values(prof, field, mode, params.c)
        dev = np.max(np.abs(prof.values - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-13, f"{prof.side.value} side at mode {mode}: deviation {dev:.3e} of the peak"


class TestParticularSolution:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_kernel_sum(self, seed):
        g = _grid(ny=96, Ly=30.0, nt=8, nx=16)
        fields = _random_fields(g, seed)
        mesh = g.freq_mesh()
        for mode in [(0, 0), (1, 2), (3, 5), (4, 8), (7, 15)]:
            pair = solve_half_space(*fields, mesh[mode], 0.3 - 0.7j, M2)
            _assert_matches_dense(pair, fields, mode)

    def test_steep_mode_is_exact_and_warning_free(self):
        # Re(mu) Ly > 1000 on both sides: a sum factored through exp(+mu y) would overflow
        slow = PhysicalParams(v=0.5, c=1.0)
        g = _grid(ny=96, Ly=40.0, nt=4, nx=64)
        fields = _random_fields(g, 7)
        mode = (1, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                pair = solve_half_space(*fields, g.freq_mesh()[mode], 0.5 + 0.5j, slow)
        assert min(prof.mu.real for prof in pair) * g.Ly > 1000
        _assert_matches_dense(pair, fields, mode, slow)

    def test_memory_is_linear_in_ny(self):
        # at ny = 2048 the dense complex kernel alone would take 64 MiB
        g = _grid(ny=2048, Ly=30.0, nt=4, nx=4)
        fp, fm = _exp_fields(g, it=1, ix=2)
        freq = g.freq_mesh()[1, 2]
        g.quadrature()  # fill the grid's cached rule outside the traced call
        tracemalloc.start()
        try:
            solve_half_space(fp, fm, freq, 0.3 + 0.1j, M2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, f"one mode at ny = 2048 peaked at {peak / 1e6:.2f} MB"


class TestSharedKernel:
    @pytest.mark.parametrize("ny", [32, 96])
    def test_mesh_call_equals_mode_calls_and_half_line_terms(self, ny):
        g = _grid(ny=ny, nt=16, nx=8)
        fields = _random_fields(g, ny)
        spectral = np.array([field.spectral for field in fields])
        mus = np.array(mu_pm(g.freq_mesh(), M2))
        mesh = grids.closure_sums(g, spectral, mus)
        assert [part.shape for part in mesh] == [mus.shape, spectral.shape, spectral.shape]
        for got, want in zip(mesh[0], half_line_terms(*fields, *mus)):
            assert np.array_equal(got, want)
        for it, ix in np.ndindex(g.nt, g.nx):
            mode = grids.closure_sums(g, spectral[:, it, ix], mus[:, it, ix])
            for got, want in zip(mode, mesh):
                assert np.array_equal(got, want[:, it, ix])


class TestOdeResidual:
    def test_order_four_hits_tight_tolerance(self):
        g = _grid(ny=96, Ly=30.0)
        a = 0.9
        fp, fm = _exp_fields(g, a=a)
        freq = g.freq_mesh()[1, 2]
        pp, _ = solve_half_space(fp, fm, freq, 0.3 + 0.1j, M2)
        res = _ode_residual(pp, lambda y: np.exp(-a * y), g.Ly, M2.c, h=3e-3, order=4)
        assert np.max(res) < 1e-8, f"order-4 residual {np.max(res):.3e}"

    def test_second_order_convergence(self):
        g = _grid(ny=48, Ly=24.0)
        fp, fm = _exp_fields(g, a=1.1, b=0.8, it=1, ix=1)
        freq = g.freq_mesh()[1, 1]
        _, pm = solve_half_space(fp, fm, freq, 0.2 - 0.4j, M2)
        coarse = np.max(_ode_residual(pm, lambda y: np.exp(-0.8 * y), g.Ly, M2.c, h=2e-2, order=2, n_check=4))
        fine = np.max(_ode_residual(pm, lambda y: np.exp(-0.8 * y), g.Ly, M2.c, h=1e-2, order=2, n_check=4))
        rate = coarse / fine
        assert 3.0 < rate < 5.0, f"halving h changed the residual by x{rate}, expected ~4"

    def test_rejects_bad_order(self):
        g = _grid()
        fp, fm = _exp_fields(g)
        freq = g.freq_mesh()[1, 2]
        pp, _ = solve_half_space(fp, fm, freq, 0.0, M2)
        with pytest.raises(ValueError):
            _ode_residual(pp, lambda y: 0.0, g.Ly, M2.c, order=3)

    def test_minus_side_uses_mirrored_variable(self):
        # the minus profile solves the ODE in xi = -x2 with its own source
        g = _grid(ny=96, Ly=30.0)
        b = 0.7
        fp, fm = _exp_fields(g, b=b)
        freq = g.freq_mesh()[1, 2]
        _, pm = solve_half_space(fp, fm, freq, 0.1 + 0.2j, M2)
        res = _ode_residual(pm, lambda y: np.exp(-b * y), g.Ly, M2.c, h=3e-3, order=4)
        assert np.max(res) < 1e-8


class TestFrontEquationResidual:
    def test_end_to_end_single_mode(self):
        from vsheet.front import build_g
        from vsheet.front import solve_front

        g = _grid(ny=96, Ly=30.0)
        fp, fm = _exp_fields(g, it=2, ix=3)
        sol = solve_front(build_g(fp, fm, M2), g, M2)
        freq = g.freq_mesh()[2, 3]
        fhat = complex(sol.f_hat[2, 3])
        pp, pm = solve_half_space(fp, fm, freq, fhat, M2)
        res = front_equation_residual(pp, pm, freq, fhat, M2)
        assert res < 1e-13, f"closed-loop residual {res:.3e}"

    def test_perturbed_front_detected(self):
        from vsheet.front import build_g, solve_front

        g = _grid(ny=96, Ly=30.0)
        fp, fm = _exp_fields(g, it=2, ix=3)
        sol = solve_front(build_g(fp, fm, M2), g, M2)
        freq = g.freq_mesh()[2, 3]
        fhat = complex(sol.f_hat[2, 3])
        pp, pm = solve_half_space(fp, fm, freq, 1.1 * fhat, M2)
        res = front_equation_residual(pp, pm, freq, 1.1 * fhat, M2)
        assert res > 1e-3, f"10% front perturbation went unnoticed: {res:.3e}"

    def test_zero_case_defined(self):
        g = _grid()
        fp, fm = _zero_fields(g)
        freq = g.freq_mesh()[1, 1]
        pp, pm = solve_half_space(fp, fm, freq, 0.0, M2)
        assert front_equation_residual(pp, pm, freq, 0.0, M2) == 0.0
