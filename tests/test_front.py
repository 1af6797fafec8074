"""Front equation right-hand side, solver, and estimate sweeps."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import half_zeros, manufactured_solution, off_nyquist, source_from_spectral
from vsheet import chunks, front, grids, symbols
from vsheet.cli import builtin_sources
from vsheet.front import (
    QuadratureUnderResolved,
    Side,
    SymbolTooSmall,
    build_g,
    estimate_sweep,
    solve_front,
    transform_source,
)
from vsheet.grids import GridSpec, Space, forward_transform, inverse_transform, weighted_norm
from vsheet.pressure import solve_half_space
from vsheet.symbols import PhysicalParams, Regime, big_sigma, mu_pm

M2 = PhysicalParams(v=2.0, c=1.0)
ELL = PhysicalParams(v=1.0, c=1.0)


def _grid(nt=16, nx=16, ny=64, Ly=26.0, gamma=1.0):
    return GridSpec(nt=nt, nx=nx, ny=ny, Lt=2 * np.pi, Lx=2 * np.pi, Ly=Ly, gamma=gamma)


def _exp_pair(grid, a=0.9, b=0.7, it=1, ix=2):
    """Single-mode half-mesh sources with exponential y-profiles e^{-a y}, e^{-b y}."""
    y, _ = grid.quadrature()
    spec_p = half_zeros(grid)
    spec_m = np.zeros_like(spec_p)
    spec_p[it, ix, :] = np.exp(-a * y)
    spec_m[it, ix, :] = np.exp(-b * y)
    return (
        source_from_spectral(spec_p, Side.PLUS, grid),
        source_from_spectral(spec_m, Side.MINUS, grid),
    )


def _terms(fplus, fminus, params=M2):
    """T+- of a (plus, minus) pair on the grid's full mesh."""
    g = fplus.grid
    return grids.mesh_terms(g, fplus.spectral, fminus.spectral, g.symbol_table(params))


def _moment(fplus, fminus, params=M2):
    """The source moment M = T+ - T- on the grid's full mesh."""
    t_plus, t_minus = _terms(fplus, fminus, params)
    return t_plus - t_minus


def _band_limited_real(grid, seed, kmax=4):
    """Smooth random real source, band-limited away from the Nyquist rows."""
    rng = np.random.default_rng(seed)
    t, x = grid.t(), grid.x1()
    y, _ = grid.quadrature()
    out = np.zeros((grid.nt, grid.nx, grid.ny))
    for _ in range(4):
        kt, kx = rng.integers(-kmax, kmax + 1, size=2)
        amp, phase = rng.standard_normal(), rng.uniform(0, 2 * np.pi)
        out += amp * np.cos(kt * t[:, None, None] + kx * x[None, :, None] + phase)
    prof = np.exp(-(((y - 0.1 * grid.Ly) / (0.05 * grid.Ly)) ** 2))
    return out * prof[None, None, :]


class TestSourceField:
    def test_shape_validation(self):
        g = _grid()
        with pytest.raises(ValueError):
            transform_source(np.zeros((8, 16, 64)), Side.PLUS, g)

    def test_decay_flag(self, monkeypatch):
        g = _grid(Ly=26.0)
        y, _ = g.quadrature()
        good = np.broadcast_to(np.exp(-y), (16, 16, 64)).copy()
        flat = np.ones((16, 16, 64))
        zero = np.zeros((16, 16, 64))

        def g_of(plus, minus):
            return build_g(transform_source(plus, Side.PLUS, g), transform_source(minus, Side.MINUS, g), M2)

        g_hat = g_of(good, 0.5 * good)
        assert np.all(np.isfinite(g_hat)) and np.any(g_hat != 0.0)
        assert np.all(g_of(zero, zero) == 0.0)
        # both decay gates run before any symbol is evaluated, plus side first: a fresh grid has no
        # symbol table yet, and a branch evaluation would fail with a TypeError
        g = _grid(Ly=26.0)
        monkeypatch.setattr(symbols, "_mu_branch", None)
        for plus, minus, side in ((flat, good, "plus"), (good, flat, "minus"), (flat, flat, "plus")):
            with pytest.raises(ValueError, match=f"^{side}-side source has not decayed at the truncation depth Ly$"):
                g_of(plus, minus)

    @pytest.mark.parametrize("nt, nx", [(16, 16), (2, 8), (16, 2), (1, 8), (8, 1), (1, 1)])
    def test_transform_source_zeroes_the_nyquist_lines_and_nothing_else(self, nt, nx):
        # row nt/2 and column nx/2 of the half mesh are zero, every other mode is forward_transform's bits,
        # and an axis of length 1 has no Nyquist line
        g = _grid(nt=nt, nx=nx, ny=8, Ly=10.0)
        raw = np.random.default_rng(nt * 17 + nx).standard_normal((nt, nx, 8))
        want = forward_transform(raw, g)
        got = transform_source(raw, Side.MINUS, g).spectral
        lines = np.zeros(want.shape[:2], dtype=bool)
        lines[nt // 2 if nt > 1 else slice(0)] = True
        lines[:, nx // 2 if nx > 1 else slice(0)] = True
        assert np.all(got[lines] == 0.0) and np.all(want[lines] != 0.0)
        assert got[~lines].tobytes() == want[~lines].tobytes()

    @pytest.mark.parametrize("mode", [(8, 3, 0), (5, 8, 7), (8, 8, 2)], ids=["row", "column", "corner"])
    @pytest.mark.parametrize("value", [1e-300, np.nan], ids=["tiny", "nan"])
    def test_a_field_with_content_on_a_nyquist_line_is_refused(self, mode, value):
        g = _grid(nt=16, nx=16, ny=8, Ly=10.0)
        spectral = half_zeros(g)
        spectral[mode] = value
        message = (
            "minus-side spectral field has content on the Nyquist row nt/2 or column nx/2, "
            "where a real source's transform is zero"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            source_from_spectral(spectral, Side.MINUS, g)


class TestSourceMoment:
    def test_zero_sources(self):
        g = _grid()
        zp = source_from_spectral(half_zeros(g), Side.PLUS, g)
        zm = source_from_spectral(half_zeros(g), Side.MINUS, g)
        assert np.max(np.abs(_moment(zp, zm))) == 0.0

    def test_exponential_closed_form(self):
        a = 0.9
        g = _grid(ny=128, Ly=26.0)
        fp, fm = _exp_pair(g, a=a)
        fm = source_from_spectral(half_zeros(g), Side.MINUS, g)
        freq = g.freq_mesh()[1, 2]
        mp, _ = mu_pm(freq, M2)
        got = _moment(fp, fm)[1, 2]
        want = 1.0 / (mp * (mp + a))
        assert abs(got - want) <= 1e-8 * abs(want), f"moment {got} vs closed form {want}"

    def test_against_adaptive_quadrature(self):
        # mode (2,3) makes exp(-mu y) oscillate at |Im mu| ~ 8: the panel
        # rule needs ny=1024 over Ly=30 to resolve it to ~1e-13
        a, b = 1.1, 0.6
        g = _grid(ny=1024, Ly=30.0)
        fp, fm = _exp_pair(g, a=a, b=b, it=2, ix=3)
        freq = g.freq_mesh()[2, 3]
        mp, mm = mu_pm(freq, M2)
        got = _moment(fp, fm)[2, 3]
        ip = quad(lambda y: np.exp(-mp * y) * np.exp(-a * y), 0, g.Ly, complex_func=True)[0]
        im = quad(lambda y: np.exp(-mm * y) * np.exp(-b * y), 0, g.Ly, complex_func=True)[0]
        want = ip / mp - im / mm
        assert abs(got - want) < 1e-10 * max(abs(want), 1.0)

    def test_linear_in_sources(self):
        g = _grid()
        fp1, fm = _exp_pair(g, a=0.8)
        spec2 = 3.5 * fp1.spectral
        fp2 = source_from_spectral(spec2, Side.PLUS, g)
        m1 = _moment(fp1, fm)
        m2 = _moment(fp2, fm)
        mref = _moment(fp1, source_from_spectral(np.zeros_like(spec2), Side.MINUS, g))
        np.testing.assert_allclose(m2 - m1, 2.5 * mref, atol=1e-13)

    def test_under_resolved_tail_raises(self, monkeypatch):
        # decays enough to pass the truncation-depth gate (~1.5e-7 at Ly)
        # but the neglected mu-weighted tail is far above 1e-10
        g = _grid(ny=8, Ly=2.0)
        y, _ = g.quadrature()
        spec = half_zeros(g)
        spec[1, 1, :] = np.exp(-8.0 * y)
        fp = source_from_spectral(spec, Side.PLUS, g)
        fm = source_from_spectral(np.zeros_like(spec), Side.MINUS, g)
        monkeypatch.setattr(front, "TAIL_TOL", np.inf)
        assert np.all(np.isfinite(build_g(fp, fm, M2)))
        monkeypatch.setattr(front, "TAIL_TOL", 1e-10)
        with pytest.raises(QuadratureUnderResolved):
            build_g(fp, fm, M2)

    def test_a_tail_between_tail_tol_and_1e3_tail_tol_raises(self):
        # mode (1, 1) holds exp(-8 y) - k exp(-16 y), which passes the decay gate (|F(Ly)| ~ 1.5e-7 of its
        # peak); k makes T cancel down to eps T(exp(-8 y)), with eps set so that the relative tail is 3e-5:
        # above TAIL_TOL, and within a tail test loosened 1e3 times
        g = _grid(ny=8, Ly=2.0)
        y, _ = g.quadrature()
        mu = g.symbol_table(M2).mup[1, 1]
        t8, t16 = (grids.boundary_terms(g, np.exp(-a * y), mu) for a in (8.0, 16.0))
        tail = np.exp(-g.Ly * mu.real) * np.exp(-8.0 * y[-1]) / abs(mu)
        eps = tail / (3e-5 * abs(t8))
        spec = half_zeros(g)
        spec[1, 1] = np.exp(-8.0 * y) - t8 / t16 * (1.0 - eps) * np.exp(-16.0 * y)
        fp = source_from_spectral(spec, Side.PLUS, g)
        fm = source_from_spectral(np.zeros_like(spec), Side.MINUS, g)
        assert abs(spec[1, 1, -1]) <= front.DECAY_TOL * np.max(np.abs(spec))
        rel = np.exp(-g.Ly * mu.real) * abs(spec[1, 1, -1]) / abs(mu) / np.max(np.abs(_terms(fp, fm)[0]))
        assert front.TAIL_TOL < rel <= 1e3 * front.TAIL_TOL
        message = r"^half-line truncation tail ~3\.0\d\de-05 \(relative\) is not within tolerance 1e-06; increase Ly"
        with pytest.raises(QuadratureUnderResolved, match=message):
            build_g(fp, fm, M2)

    def test_single_mode_from_the_mesh(self):
        # one mode of g is mesh indexing; it is -(mu+ mu- / (mu+ + mu-)) (T+ - T-) with mu on the mesh
        g = _grid()
        fp, fm = _exp_pair(g)
        table = g.symbol_table(M2)
        mup, mum = table.mup, table.mum
        val = build_g(fp, fm, M2)[1, 2]
        assert val == (-(mup * mum / (mup + mum)) * _moment(fp, fm))[1, 2] and np.isfinite(val)


class TestBuildG:
    def test_zero_gives_zero(self):
        g = _grid()
        zp = source_from_spectral(half_zeros(g), Side.PLUS, g)
        zm = source_from_spectral(half_zeros(g), Side.MINUS, g)
        assert np.max(np.abs(build_g(zp, zm, M2))) == 0.0

    def test_mode_locality(self):
        # single-mode sources produce a single-mode right-hand side: the mode and its mirror
        g = _grid()
        fp, fm = _exp_pair(g, it=3, ix=5)
        ghat = build_g(fp, fm, M2)
        mask = np.zeros_like(ghat, dtype=bool)
        mask[3, 5] = mask[13, 11] = True
        assert np.max(np.abs(ghat[~mask])) == 0.0
        assert abs(ghat[3, 5]) > 0 and ghat[13, 11] == np.conj(ghat[3, 5])

    def test_prefactor_against_moment(self):
        g = _grid()
        fp, fm = _exp_pair(g, it=2, ix=1)
        freq = g.freq_mesh()[2, 1]
        mp, mm = mu_pm(freq, M2)
        moment = _moment(fp, fm)[2, 1]
        want = -(mp * mm / (mp + mm)) * moment
        got = build_g(fp, fm, M2)[2, 1]
        assert abs(got - want) < 1e-13 * max(abs(want), 1.0)


    def test_each_mu_branch_runs_once_per_rung_on_the_mesh(self, monkeypatch):
        calls = []
        branch = symbols._mu_branch

        def counting(gamma, *args):
            calls.append(np.shape(gamma))
            return branch(gamma, *args)

        monkeypatch.setattr(symbols, "_mu_branch", counting)
        g = _grid()
        fp, fm = _exp_pair(g)
        sol = solve_front(build_g(fp, fm, M2), g, M2)
        assert (1.0, Space.ANISOTROPIC) in sol.norms
        mesh = g.freq_mesh()
        for it, ix in np.ndindex(g.nt, g.nx):
            solve_half_space(fp, fm, mesh[it, ix], complex(sol.f_hat[it, ix]), M2)
        # build_g, solve_front, the anisotropic norm and the closure read one table, evaluated on the mesh's quarter
        assert calls == [(g.nt // 2 + 1, g.nx // 2 + 1)] * 2

    def test_non_finite_source_is_named_not_blamed_on_decay(self):
        g = _grid()
        raw = _band_limited_real(g, seed=1)
        raw[3, 4, 5] = np.nan
        fp = transform_source(raw, Side.PLUS, g)
        fm = transform_source(np.zeros_like(raw), Side.MINUS, g)
        # the NaN spreads over every mode at node 5; the first non-finite sample is named
        with pytest.raises(ValueError, match=r"^plus-side source is not finite at mode \(0, 0\), node 5$"):
            build_g(fp, fm, M2)


def _oracle_terms(grid, spectra, mup, mum, index=...):
    """The unfactored kernel (exp(-mu y) F) @ w / mu per side, with its scale sum_j w_j |exp(-mu y_j) F_j| / |mu|."""
    y, w = grid.quadrature()
    out = []
    for spectral, mu in zip(spectra, (np.asarray(mup), np.asarray(mum))):
        integrand = np.exp(-mu[..., None] * y) * spectral[index]
        out.append((integrand @ w / mu, np.abs(integrand) @ w / np.abs(mu)))
    return out


def _random_pair(grid, seed):
    """Random complex half-mesh spectral sources, zero on the Nyquist lines, with an exp(-y/2) depth profile."""
    rng = np.random.default_rng(seed)
    y, _ = grid.quadrature()
    shape = (grid.nt, grid.half_nx, grid.ny)
    spectra = [
        off_nyquist((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(-0.5 * y), grid)
        for _ in range(2)
    ]
    return source_from_spectral(spectra[0], Side.PLUS, grid), source_from_spectral(spectra[1], Side.MINUS, grid)


class TestHalfLineLayer:
    # ny = 4 is a single panel of four nodes; 32 and 96 are 4 and 12 panels of eight.
    # The 64 mesh rows are 33 mirror pairs, six kernel tasks, the last one short.
    @pytest.mark.parametrize("ny", [4, 32, 96])
    def test_panel_kernel_matches_the_oracle_on_the_mesh(self, ny):
        g = _grid(nt=64, nx=16, ny=ny)
        assert (g.nt // 2 + 1) % grids._KERNEL_PAIRS
        fp, fm = _random_pair(g, seed=ny)
        table = g.symbol_table(M2)
        # the oracle runs on the full mesh of the pair
        spectra = (g.expand(fp.spectral), g.expand(fm.spectral))
        for got, (want, scale) in zip(_terms(fp, fm), _oracle_terms(g, spectra, table.mup, table.mum)):
            assert got.shape == (g.nt, g.nx)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("ny", [4, 32, 96])
    def test_panel_kernel_matches_the_oracle_on_single_modes(self, ny, monkeypatch):
        def no_pool(*args):
            raise AssertionError("the closure kernel must not go to the worker pool")

        monkeypatch.setattr(grids, "map_chunks", no_pool)
        g = _grid(nt=16, nx=16, ny=ny)
        fp, fm = _random_pair(g, seed=ny + 1)
        # the kernel runs on the full mesh of the pair here, as the closure takes any mode
        spectra = np.array((g.expand(fp.spectral), g.expand(fm.spectral)))
        mus = np.array(mu_pm(g.freq_mesh(), M2))
        terms = grids.closure_sums(g, spectra, mus)[0]
        for it, ix in ((0, 0), (1, 2), (8, 8), (15, 3), (5, 15)):
            oracle = _oracle_terms(g, spectra, *mus[:, it, ix], index=(it, ix))
            for got, (want, scale) in zip(terms[:, it, ix], oracle):
                assert np.ndim(got) == 0
                assert abs(got - want) <= 1e-14 * scale

    @staticmethod
    def _lattice_case(params, nt=32):
        """A nt x 16 x 32 pair, and the grid's symbol table of ``params``.

        At nt = 32, with Lt = Lx = 2 pi, the lattice holds modes delta = +-v eta (v = 2: eta = 8
        meets the Nyquist row's delta = -16; v = 0.8: eta = 5, delta = +-4), where mu+- have exactly
        zero imaginary parts.  Rows 3 and 29 (a mirror pair) and 5 are zero on both sides there, as
        the Nyquist row 16 is, so that a slip in the sign of a zero would show in T's bytes.  At
        nt = 2 the mesh is row 0 and the Nyquist row only; at nt = 4 one inner mirror pair joins them.
        """
        g = _grid(nt=nt, nx=16, ny=32)
        fp, fm = _random_pair(g, seed=31)
        table = g.symbol_table(params)
        if nt == 32:
            for field in (fp, fm):
                field.spectral[[3, 29, 5]] = 0.0
            assert all(np.any(g.half(mu)[:, 1:].imag == 0.0) for mu in (table.mup, table.mum))
        return g, fp, fm, table

    @pytest.mark.parametrize("params", [M2, PhysicalParams(v=0.8, c=1.0)], ids=["M2", "M0.8"])
    def test_mirror_pairs_give_each_sides_boundary_terms_bit_for_bit(self, params, monkeypatch):
        # every mode of the full mesh: the half mesh and, past column nx/2, the mirror of its conjugate,
        # the Nyquist row among them
        for nt in (2, 4, 32):
            g, fp, fm, table = self._lattice_case(params, nt)
            want = [
                g.expand(grids.boundary_terms(g, field.spectral, g.half(mu)))
                for field, mu in zip((fp, fm), (table.mup, table.mum))
            ]
            for threads in ("1", "2"):
                monkeypatch.setenv("VFS_THREADS", threads)
                for got, side in zip(grids.mesh_terms(g, fp.spectral, fm.spectral, table), want):
                    assert got.tobytes() == side.tobytes(), nt

    def test_one_exponential_table_per_mirror_pair(self, monkeypatch):
        # nt half-mesh rows are exponentiated, the self-mirrored rows 0 and nt/2 once each
        original = grids._exponentials
        for nt in (2, 4, 32):
            g, fp, fm, table = self._lattice_case(M2, nt)
            rows = []
            monkeypatch.setattr(grids, "_exponentials", lambda grid, mu: rows.append(len(mu)) or original(grid, mu))
            grids.mesh_terms(g, fp.spectral, fm.spectral, table)
            assert sum(rows) == g.nt, nt

    @pytest.mark.parametrize("pair, message", [
        ("swapped", "in that order"),
        ("mismatched", "share one grid"),
        ("undecayed", "minus-side source has not decayed at the truncation depth Ly"),
        ("non-finite", "plus-side source is not finite at mode (1, 2), node 3"),
    ])
    @pytest.mark.parametrize("caller", ["build_g", "solve_half_space"])
    def test_pair_check_is_shared(self, caller, pair, message):
        # one check of the pair, so both callers refuse it with the same line, which ends in ``message``
        g = _grid()
        fp, fm = _exp_pair(g)
        if pair == "swapped":
            fp, fm = fm, fp
        elif pair == "mismatched":
            fm = source_from_spectral(half_zeros(_grid(ny=32)), Side.MINUS, _grid(ny=32))
        elif pair == "undecayed":
            fm = source_from_spectral(off_nyquist(np.ones_like(fm.spectral), g), Side.MINUS, g)
        else:
            spectral = fp.spectral.copy()
            spectral[1, 2, 3] = np.nan
            fp = source_from_spectral(spectral, Side.PLUS, g)
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            if caller == "build_g":
                build_g(fp, fm, M2)
            else:
                solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.5, M2)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_a_tail_of_1e_4_of_the_peak_has_not_decayed(self, side):
        # a profile that falls to 1e-4 of its peak at Ly: above DECAY_TOL, so refused
        g = _grid()
        fp, fm = _exp_pair(g)
        spectral = (fp if side == "plus" else fm).spectral.copy()
        spectral[1, 2, -1] = 1e-4 * np.max(np.abs(spectral))
        field = source_from_spectral(spectral, Side(side), g)
        fp, fm = (field, fm) if side == "plus" else (fp, field)
        with pytest.raises(ValueError, match=f"^{side}-side source has not decayed at the truncation depth Ly$"):
            build_g(fp, fm, M2)

    def test_moment_and_pressure_share_the_plus_term(self):
        # zero minus-side source: M = T+ in g, and the plus-side particular
        # boundary value p0 - A+ is T+ / (2 c^2)
        params = PhysicalParams(v=2.6, c=1.3)
        g = _grid()
        fp, _ = _exp_pair(g, it=2, ix=3)
        fm = source_from_spectral(np.zeros_like(fp.spectral), Side.MINUS, g)
        mup, mum = mu_pm(g.freq_mesh(), params)
        t_plus, t_minus = _terms(fp, fm, params)
        assert np.all(t_minus == 0.0)
        assert np.array_equal(build_g(fp, fm, params), -(mup * mum / (mup + mum)) * t_plus)
        pp, _ = solve_half_space(fp, fm, g.freq_mesh()[2, 3], 0.0, params)
        # the pressure takes scalar mu: scalar and ufunc paths may differ by an ulp
        want = t_plus[2, 3] / (2.0 * params.c**2)
        assert abs((pp.p0 - pp.amplitude) - want) <= 1e-14 * abs(want)


class TestManufacturedSolution:
    """The front of an exact solution (``conftest.manufactured_solution``: M = 2, Ly = 20, w = 2, kmax = 2).

    Its g is Sigma fhat exactly, so the error is the depth rule's and the cut's alone.  The raw
    fields reach 1e43 at gamma = 16, so they stay float64 in process.  The front is zero on the
    Nyquist row, so ``tests/test_half_mesh.py`` covers that row, not this class.
    """

    @staticmethod
    def _front_error(ny, gamma):
        g = _grid(nt=32, nx=32, ny=ny, Ly=20.0, gamma=gamma)
        fhat, _, raw = manufactured_solution(g, M2)
        fp, fm = (transform_source(field, side, g) for field, side in zip(raw, Side))
        f_hat = solve_front(build_g(fp, fm, M2), g, M2).f_hat
        return np.linalg.norm(f_hat - fhat) / np.linalg.norm(fhat)

    @pytest.mark.parametrize("gamma", [1.0, 16.0])
    def test_the_front_is_exact_where_the_depth_rule_resolves_the_kernel(self, gamma):
        # measured 1.9e-15 at gamma 1 and 1.3e-11 at gamma 16
        assert self._front_error(512, gamma) <= 1e-10

    def test_the_default_depth_rule_misses_the_front(self):
        # four panels of width 5 at ny = 32, the first node at y = 0.099: measured 2.2
        assert self._front_error(32, 1.0) > 1.0


class TestSolveFront:
    # sha256 of f_hat's bytes off the Nyquist lines, in row-major order, for the builtin pair on the default
    # 64x64x32 grid (Ly = 20, M = 2), as the code gave them before transform_source zeroed those lines:
    # the kernel works mode by mode, so the rule moves no other mode
    F_HAT_OFF_THE_LINES = "ed8a65ad3d8d8698c80832c24ce552bf4db09d51bd544426b920db493033487f"

    def test_f_hat_off_the_nyquist_lines_keeps_its_bits(self):
        g = GridSpec(nt=64, nx=64, ny=32, Lt=2 * np.pi, Lx=2 * np.pi, Ly=20.0)
        fp, fm = (transform_source(raw, side, g) for raw, side in zip(builtin_sources(g), Side))
        f_hat = solve_front(build_g(fp, fm, M2), g, M2).f_hat
        lines = np.zeros(f_hat.shape, dtype=bool)
        lines[32] = lines[:, 32] = True
        assert np.all(f_hat[lines] == 0.0)
        assert hashlib.sha256(f_hat[~lines].tobytes()).hexdigest() == self.F_HAT_OFF_THE_LINES

    def test_manufactured_recovery(self):
        g = _grid(nt=32, nx=32)
        mesh = g.freq_mesh()
        d = np.asarray(mesh.delta)
        e = np.asarray(mesh.eta)
        f0 = np.exp(-0.25 * (d**2 + e**2)).astype(complex)
        ghat = np.asarray(big_sigma(mesh, M2)) * f0
        sol = solve_front(ghat, g, M2, s=0.0)
        err = np.max(np.abs(sol.f_hat - f0)) / np.max(np.abs(f0))
        assert err < 1e-12, f"manufactured recovery error {err}"

    @pytest.mark.parametrize("nt, nx", [(32, 32), (16, 8), (1, 8), (8, 1)])
    def test_the_front_is_real_and_its_transform_is_f_hat(self, nt, nx):
        # without the Nyquist lines f_hat is Hermitian on the full mesh, so the real float64 front
        # transforms back to all of it, the columns past nx/2 included
        g = _grid(nt=nt, nx=nx)
        raw = _band_limited_real(g, seed=4)
        fp = transform_source(raw, Side.PLUS, g)
        fm = transform_source(0.5 * raw, Side.MINUS, g)
        sol = solve_front(build_g(fp, fm, M2), g, M2)
        assert sol.f.dtype == np.float64 and sol.f.shape == (nt, nx)
        assert sol.f.tobytes() == inverse_transform(g.half(sol.f_hat), g).tobytes()
        back = g.expand(forward_transform(sol.f, g))
        assert np.max(np.abs(back - sol.f_hat)) <= 1e-13 * np.max(np.abs(sol.f_hat))

    def test_norm_bookkeeping(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        sol = solve_front(build_g(fp, fm, M2), g, M2, s=0.5)
        assert (0.5, Space.PLAIN) in sol.norms
        assert (1.5, Space.PLAIN) in sol.norms
        assert (1.5, Space.ANISOTROPIC) in sol.norms
        direct = weighted_norm(sol.f_hat, g, 0.5)
        assert sol.norms[(0.5, Space.PLAIN)] == pytest.approx(direct, rel=1e-13)

    def test_elliptic_solve_has_no_aniso_norm(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        sol = solve_front(build_g(fp, fm, ELL), g, ELL, s=0.0)
        assert all(space is Space.PLAIN for _, space in sol.norms)
        assert sol.regime is Regime.ELLIPTIC
        assert set(sol.report) == {"g_plain_norm", "symbol_floor"}

    def test_symbol_floor_guard(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        with pytest.raises(SymbolTooSmall):
            solve_front(build_g(fp, fm, M2), g, M2, sigma_floor=10.0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_floor_message_names_the_reference_argmin(self, threads, monkeypatch):
        # 4096 mesh points in chunks of 1000 and blocks of 777; |Sigma| is even in delta and
        # eta, so the least ratio is tied at mirrored modes and the first in C order is named
        monkeypatch.setattr(chunks, "CHUNK", 1000)
        monkeypatch.setattr(chunks, "BLOCK", 777)
        monkeypatch.setenv("VFS_THREADS", threads)
        g = _grid(nt=64, nx=64, ny=16, Ly=14.0)
        ratio = np.abs(g.symbol_table(M2).sigma_big) / g.freq_mesh().lam ** 2
        it, ix = np.unravel_index(np.argmin(ratio), ratio.shape)
        assert np.count_nonzero(ratio == ratio.min()) > 1
        with pytest.raises(SymbolTooSmall) as trip:
            solve_front(np.zeros((64, 64)), g, M2, sigma_floor=10.0)
        assert str(trip.value) == (
            f"|Sigma|/Lambda^2 = {ratio.min():.3e} < floor 10 at (delta, eta) = ({g.delta()[it]:.6g}, {g.eta()[ix]:.6g})"
        )
        # the report's floor is the same least ratio
        assert solve_front(np.zeros((64, 64)), g, M2).report["symbol_floor"] == ratio.min()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_symbol_is_named_by_the_floor(self, bad):
        # a NaN used to pass the floor test, and nothing read the largest ratio
        g = _grid()
        g_hat = build_g(*_exp_pair(g), M2)
        g.symbol_table(M2).sigma_big[3, 5] = bad
        with pytest.raises(SymbolTooSmall) as trip:
            solve_front(g_hat, g, M2)
        assert str(trip.value) == (
            f"|Sigma|/Lambda^2 = {bad:.3e} is not finite at (delta, eta) = ({g.delta()[3]:.6g}, {g.eta()[5]:.6g})"
        )

    def test_a_number_below_the_floor_is_named_before_a_non_finite_ratio(self):
        g = _grid()
        g.symbol_table(M2).sigma_big[3, 5] = np.inf
        with pytest.raises(SymbolTooSmall, match=r"< floor 10 at"):
            solve_front(np.zeros((16, 16)), g, M2, sigma_floor=10.0)

    # the kernel's complex division by a NaN mu once warned on the way to the guard
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_tail_is_under_resolved(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        g.symbol_table(M2).mup[1, 2] = np.nan
        with pytest.raises(QuadratureUnderResolved, match=r"tail ~nan \(relative\) is not within tolerance 1e-06; mu\+- is not finite"):
            build_g(fp, fm, M2)

    def test_a_non_finite_g_is_refused(self):
        g = _grid()
        g_hat = build_g(*_exp_pair(g), M2)
        for bad in (np.nan, np.inf):
            broken = g_hat.copy()
            broken[2, 3] = bad
            with pytest.raises(ValueError, match="^g_hat is not finite$"):
                solve_front(broken, g, M2)

    def test_a_g_whose_norm_overflows_is_refused(self):
        # 1e308 at each of the 256 modes: the norm is 1e308 * sqrt(256 / (2 pi)^2), about 2.5e308
        g = _grid()
        with pytest.raises(ValueError, match=r"^the norm \|\|g\|\|_\(H\^s\) overflows at gamma = 1\.0, s = 0\.0$"):
            solve_front(np.full((16, 16), 1e308), g, M2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_s_whose_norm_weight_overflows_is_refused(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        g_hat = build_g(fp, fm, M2)
        with pytest.raises(ValueError, match=r"^s = 400\.0 overflows the norm weight Lambda\^\(2\(s\+1\)\)"):
            solve_front(g_hat, g, M2, s=400.0)
        # Lambda reaches sqrt(1 + 8^2 + 8^2) = 11.36 here, whose 2(s + 1)-th power overflows from s = 145.05 on
        solve_front(g_hat, g, M2, s=145.0)
        with pytest.raises(ValueError):
            solve_front(g_hat, g, M2, s=145.1)

    def test_a_non_zero_g_whose_norm_underflows_is_refused(self):
        # Lambda >= gamma = 4 at every mode, so Lambda^-400 underflows to 0 there
        g = _grid(gamma=4.0)
        g_hat = build_g(*_exp_pair(g), M2)
        assert np.any(g_hat) and weighted_norm(g_hat, g, -400.0) == 0.0
        with pytest.raises(ValueError) as err:
            solve_front(g_hat, g, M2, s=-400.0)
        assert str(err.value) == (
            "the norm ||g||_(H^s) of a non-zero g underflows to 0 at gamma = 4.0, s = -400.0; the reported norms would read 0"
        )
        # a g that is zero has a norm of 0 that is no underflow, and still solves
        assert solve_front(np.zeros_like(g_hat), g, M2, s=-400.0).report["g_plain_norm"] == 0.0
        assert solve_front(g_hat, g, M2, s=-40.0).report["g_plain_norm"] > 0.0

    def test_solution_solves_equation(self):
        g = _grid()
        fp, fm = _exp_pair(g)
        ghat = build_g(fp, fm, M2)
        sol = solve_front(ghat, g, M2)
        mesh = g.freq_mesh()
        resid = np.asarray(big_sigma(mesh, M2)) * sol.f_hat - ghat
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(ghat))


class TestSweep:
    def test_ratios_bounded_for_smooth_source(self):
        g = _grid(nt=32, nx=32, ny=32, Ly=20.0)
        raw = _band_limited_real(g, seed=7)
        res = estimate_sweep(raw, 0.5 * raw, g, M2, gammas=(1.0, 2.0, 4.0))
        assert res.passed
        assert len(res.rows) == 3
        for row in res.rows:
            assert row["g_over_f"] > 0
            assert np.isfinite(row["front_plain"])

    def test_series_extraction(self):
        g = _grid(nt=32, nx=32, ny=32, Ly=20.0)
        raw = _band_limited_real(g, seed=8)
        res = estimate_sweep(raw, raw, g, M2, gammas=(1.0, 2.0))
        assert [row["gamma"] for row in res.rows] == [1.0, 2.0]
        assert all(row["front_aniso"] > 0 for row in res.rows)

    def test_elliptic_rows_have_no_aniso(self):
        g = _grid(nt=32, nx=32, ny=32, Ly=20.0)
        raw = _band_limited_real(g, seed=9)
        res = estimate_sweep(raw, raw, g, ELL, gammas=(1.0, 2.0))
        assert all(row["front_aniso"] is None for row in res.rows)

    def test_growth_detection(self):
        g = _grid(nt=32, nx=32, ny=32, Ly=20.0)
        raw = _band_limited_real(g, seed=10)
        res = estimate_sweep(raw, raw, g, M2, gammas=(1.0, 2.0, 4.0), slack=-0.99999)
        assert not res.passed  # negative slack demands strict large decay

    def test_needs_two_gammas(self):
        g = _grid()
        raw = _band_limited_real(g, seed=11)
        with pytest.raises(ValueError):
            estimate_sweep(raw, raw, g, M2, gammas=(1.0,))

    def test_rejects_gamma_below_one(self):
        g = _grid()
        raw = _band_limited_real(g, seed=12)
        with pytest.raises(ValueError):
            estimate_sweep(raw, raw, g, M2, gammas=(0.5, 1.0))

    @pytest.mark.parametrize("gammas", [(8.0, 4.0, 2.0, 1.0), (2.0, 2.0)])
    def test_rejects_a_ladder_that_does_not_strictly_increase(self, gammas):
        g = _grid()
        raw = _band_limited_real(g, seed=12)
        with pytest.raises(ValueError, match="strictly increase"):
            estimate_sweep(raw, raw, g, M2, gammas=gammas)

    def test_zero_sources_are_refused_naming_gamma_and_s(self):
        g = _grid()
        zero = np.zeros((g.nt, g.nx, g.ny))
        with pytest.raises(ValueError, match=r"^the source norm .* is 0 at gamma = 1\.0, s = 0\.0;"):
            estimate_sweep(zero, zero, g, M2, gammas=(1.0, 2.0))

    def test_an_underflowing_source_norm_is_refused(self):
        # Lambda^(2s) underflows to 0 at every mode of the gamma = 4 rung, where Lambda >= 4
        g = _grid()
        raw = _band_limited_real(g, seed=13)
        with pytest.raises(ValueError, match=r"is 0 at gamma = 4\.0, s = -400\.0;"):
            estimate_sweep(raw, raw, g, M2, gammas=(1.0, 4.0), s=-400.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_s_whose_norm_weight_overflows_is_refused(self, monkeypatch):
        g = _grid()
        raw = _band_limited_real(g, seed=14)
        built = []
        monkeypatch.setattr(front, "transform_source", lambda *args: built.append(args) or transform_source(*args))
        with pytest.raises(ValueError, match=r"^s = 400\.0 overflows"):
            estimate_sweep(raw, raw, g, M2, gammas=(1.0, 2.0), s=400.0)
        # the largest gamma sets the largest Lambda, and no rung is built before the refusal
        with pytest.raises(ValueError, match=r"^s = 130\.0 overflows .* Lambda = 15\.0997"):
            estimate_sweep(raw, raw, g, M2, gammas=(1.0, 10.0), s=130.0)
        assert not built
        assert estimate_sweep(raw, raw, g, M2, gammas=(1.0, 2.0), s=130.0).rows
