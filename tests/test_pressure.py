"""Half-space pressure reconstruction: jump conditions, ODE residuals."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import half_mus, half_zeros, manufactured_solution, source_from_spectral
from vsheet import cli, grids, pressure
from vsheet.front import Side, build_g, solve_front, transform_source
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
    spec_p = half_zeros(grid)
    spec_m = np.zeros_like(spec_p)
    spec_p[it, ix, :] = np.exp(-a * y)
    spec_m[it, ix, :] = scale_m * np.exp(-b * y)
    return (
        source_from_spectral(spec_p, Side.PLUS, grid),
        source_from_spectral(spec_m, Side.MINUS, grid),
    )


def _zero_fields(grid):
    z = half_zeros(grid)
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
        with pytest.raises(DecayViolated, match=r"^plus-side pressure is not finite at mode \(1, 2\)$"):
            solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)

    def test_decay_guard_trips_on_a_nan_minus_profile(self, monkeypatch):
        # the jump system couples the sides: a NaN minus term makes both profiles NaN, and the message names both
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)
        self._poison_closure(monkeypatch, 0, 1)
        with pytest.raises(DecayViolated, match=r"^plus-side and minus-side pressures are not finite at mode \(1, 2\)$") as err:
            solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)
        assert "\n" not in str(err.value)

    def test_an_infinite_profile_value_is_refused(self, monkeypatch):
        # |P| = inf at one node: a retained-fraction test passes it, since inf <= 1e-6 * inf.
        # The mode is past nx/2, and the message names it on the full mesh.
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)

        def poisoned(*args):
            terms, homogeneous, free = grids.closure_sums(*args)
            free = free.copy()
            free[0, 5] = np.inf
            return terms, homogeneous, free

        monkeypatch.setattr(pressure, "closure_sums", poisoned)
        with pytest.raises(DecayViolated, match=r"^plus-side pressure is not finite at mode \(1, 10\)$"):
            solve_half_space(fp, fm, g.freq_mesh()[1, 10], 0.3 + 0.1j, M2)

    def test_profiles_reaching_past_ly_are_accepted(self):
        # a finite profile with Re mu > 0 continues as P(Ly) exp(-mu (y - Ly)) beyond Ly, where F = 0:
        # the builtin pair on 16 x 16 x 32 at Ly = 14, whose profiles reach past Ly, closes on every mode
        g = GridSpec(nt=16, nx=16, ny=32, Lt=2 * np.pi, Lx=2 * np.pi, Ly=14.0, gamma=1.0)
        fp, fm = (transform_source(raw, side, g) for raw, side in zip(cli.builtin_sources(g), Side))
        f_hat = solve_front(build_g(fp, fm, M2), g, M2).f_hat
        mesh = g.freq_mesh()
        residuals = [
            front_equation_residual(*solve_half_space(fp, fm, mesh[m], complex(f_hat[m]), M2), mesh[m], complex(f_hat[m]), M2)
            for m in np.ndindex(g.nt, g.nx)
        ]
        assert len(residuals) == 256 and max(residuals) <= 1e-12

    def test_profiles_do_not_depend_on_the_box_depth(self):
        # a depth-fixed Gaussian pair in boxes of depth 14 and 30 with one panel width (0.25): the
        # source past 14 is below rounding, so on [0, 14] every mode's profiles and dp0 agree bit for bit
        def gaussian_pair(grid):
            t, x = grid.t(), grid.x1()
            y, _ = grid.quadrature()
            tx = np.exp(-(((t - 3.0) / 0.6) ** 2))[:, None, None] * (0.6 + 0.4 * np.cos(x))[None, :, None]
            return tx * np.exp(-(((y - 2.0) / 0.8) ** 2)), 0.7 * tx * np.exp(-(((y - 2.5) / 1.0) ** 2))

        closures = []
        for ny, Ly in ((448, 14.0), (960, 30.0)):
            g = GridSpec(nt=16, nx=16, ny=ny, Lt=2 * np.pi, Lx=2 * np.pi, Ly=Ly, gamma=1.0)
            fp, fm = (transform_source(raw, side, g) for raw, side in zip(gaussian_pair(g), Side))
            f_hat = solve_front(build_g(fp, fm, M2), g, M2).f_hat
            mesh = g.freq_mesh()
            closures.append([solve_half_space(fp, fm, mesh[m], complex(f_hat[m]), M2) for m in np.ndindex(g.nt, g.nx)])
        assert len(closures[0]) == 256
        for shallow, deep in zip(*closures):
            for a, b in zip(shallow, deep):
                assert np.array_equal(a.nodes, b.nodes[:448])
                assert a.values.tobytes() == b.values[:448].tobytes()
                assert (a.p0, a.dp0) == (b.p0, b.dp0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf_j"])
    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    def test_a_non_finite_source_sample_is_named(self, side, value):
        # the pair check runs before the jump system couples the sides, so it names the side, the half-mesh mode and the node
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


class TestOneModeArguments:
    """Each function takes one number ``fhat`` and one frequency; anything else is one ValueError naming it."""

    @pytest.fixture
    def case(self):
        g = _grid(ny=16, nt=16, nx=16)
        fp, fm = _exp_fields(g)
        pair = solve_half_space(fp, fm, g.freq_mesh()[1, 2], 0.3 + 0.1j, M2)
        return g, fp, fm, pair

    BAD_FHAT = [
        (np.array([0.3, 0.1j]), r"^fhat must be one complex number, got an array of shape \(2,\)$"),
        (np.ones((2, 2)), r"^fhat must be one complex number, got an array of shape \(2, 2\)$"),
        ("0.3+0.1j", r"^fhat must be one complex number, got '0\.3\+0\.1j'$"),
        (None, r"^fhat must be one complex number, got None$"),
        (10**400, r"^fhat must be finite, got 1000"),
    ]

    @pytest.mark.parametrize("fhat, message", BAD_FHAT, ids=["vector", "matrix", "string", "none", "huge_int"])
    def test_fhat_that_is_not_one_finite_number(self, case, fhat, message):
        g, fp, fm, pair = case
        freq = g.freq_mesh()[1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                solve_half_space(fp, fm, freq, fhat, M2)
            with pytest.raises(ValueError, match=message):
                front_equation_residual(*pair, freq, fhat, M2)

    @pytest.mark.parametrize("fhat", [0.3 + 0.1j, np.complex128(0.3 + 0.1j), np.array(0.3 + 0.1j)],
                             ids=["complex", "complex128", "0d_array"])
    def test_fhat_may_be_any_complex_scalar(self, case, fhat):
        g, fp, fm, pair = case
        freq = g.freq_mesh()[1, 2]
        got = solve_half_space(fp, fm, freq, fhat, M2)
        for a, b in zip(got, pair):
            assert np.array_equal(a.values, b.values) and a.dp0 == b.dp0
        assert front_equation_residual(*got, freq, fhat, M2) == front_equation_residual(*pair, freq, 0.3 + 0.1j, M2)

    def test_a_size_one_frequency_batch_is_its_mode(self, case):
        g, fp, fm, pair = case
        mesh = g.freq_mesh()
        got = solve_half_space(fp, fm, mesh[1:2, 2:3], 0.3 + 0.1j, M2)
        for a, b in zip(got, pair):
            assert np.array_equal(a.values, b.values) and (a.amplitude, a.p0, a.dp0) == (b.amplitude, b.p0, b.dp0)
        residual = front_equation_residual(*pair, mesh[1:2, 2:3], 0.3 + 0.1j, M2)
        assert isinstance(residual, float)
        assert residual == front_equation_residual(*pair, mesh[1, 2], 0.3 + 0.1j, M2)

    @pytest.mark.parametrize("rows, cols, shape", [
        (slice(1, 3), slice(2, 4), r"\(2, 2\)"),
        (1, slice(2, 5), r"\(3,\)"),
        (slice(1, 1), 2, r"\(0,\)"),
    ], ids=["square", "row", "empty"])
    def test_a_batch_of_other_size_is_refused(self, case, rows, cols, shape):
        g, fp, fm, pair = case
        freq = g.freq_mesh()[rows, cols]
        message = rf"^freq must be one frequency at a time, got a batch of shape {shape}$"
        with pytest.raises(ValueError, match=message):
            solve_half_space(fp, fm, freq, 0.3 + 0.1j, M2)
        with pytest.raises(ValueError, match=message):
            front_equation_residual(*pair, freq, 0.3 + 0.1j, M2)


def _random_fields(grid, seed):
    """Seeded complex sources on every mode of the half mesh, under a Gaussian depth envelope."""
    rng = np.random.default_rng(seed)
    y, _ = grid.quadrature()
    envelope = np.exp(-(((y - 0.15 * grid.Ly) / (0.06 * grid.Ly)) ** 2))
    shape = (grid.nt, grid.half_nx, grid.ny)
    return tuple(
        source_from_spectral((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope, side, grid)
        for side in (Side.PLUS, Side.MINUS)
    )


def _dense_values(prof, field, mode, c):
    """The profile with its particular solution summed through the dense exp(-mu|y_i - y_j|) kernel.

    The source at ``mode`` is read from the field's full mesh, so a mode past column nx/2 is its mirror's conjugate.
    """
    y, w = field.grid.quadrature()
    kernel = np.exp(-prof.mu * np.abs(y[:, None] - y[None, :]))
    particular = (kernel * field.grid.expand(field.spectral)[mode][None, :]) @ w / (2.0 * prof.mu * c**2)
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

    def test_one_mode_at_ny_2048_stays_under_8_mb(self):
        # at ny = 2048 the dense complex kernel alone would take 64 MiB; the panel lag matrix takes
        # (ny/8)^2 complex entries a side, so the peak grows quadratically in the panel count
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


class TestManufacturedSolution:
    def test_boundary_values_are_the_exact_profiles(self):
        # conftest.manufactured_solution at 32 x 32 x 512, Ly = 20, gamma = 1: p0 = P(0) = fhat on both
        # sides, and dp0 = +-P'(0), signed in x2; (2, 31) is read through its mirror.  The worst of these
        # measured 1.7e-14 relative.
        g = GridSpec(nt=32, nx=32, ny=512, Lt=2 * np.pi, Lx=2 * np.pi, Ly=20.0)
        fhat, (bp, bm), raw = manufactured_solution(g, M2)
        fp, fm = (transform_source(field, side, g) for field, side in zip(raw, Side))
        mesh = g.freq_mesh()
        for mode in ((0, 0), (0, 1), (1, 0), (1, 2), (31, 1), (2, 31)):
            pp, pm = solve_half_space(fp, fm, mesh[mode], fhat[mode], M2)
            for got, want in ((pp.p0, fhat[mode]), (pm.p0, fhat[mode]), (pp.dp0, bp[mode]), (pm.dp0, -bm[mode])):
                assert abs(got - want) <= 1e-12 * abs(want), mode


class TestSharedKernel:
    @pytest.mark.parametrize("ny", [8, 16, 32, 96])
    def test_mesh_call_equals_mode_calls_and_mesh_terms(self, ny):
        # the half-line terms of a source pair on the mesh are grids.mesh_terms'
        g = _grid(ny=ny, nt=16, nx=8)
        fields = _random_fields(g, ny)
        spectral = np.array([field.spectral for field in fields])
        mus = np.array(half_mus(g, M2))
        mesh = grids.closure_sums(g, spectral, mus)
        assert [part.shape for part in mesh] == [mus.shape, spectral.shape, spectral.shape]
        for got, want in zip(mesh[0], grids.mesh_terms(g, *spectral, g.symbol_table(M2))):
            assert np.array_equal(got, g.half(want))
        for it, ix in np.ndindex(g.nt, g.half_nx):
            mode = grids.closure_sums(g, spectral[:, it, ix], mus[:, it, ix])
            for got, want in zip(mode, mesh):
                assert np.array_equal(got, want[:, it, ix])

    # sha256 of T's bytes on the half mesh of a sweep rung, 256 x 256 x 32 at gamma = 1
    RUNG_TERMS = "a757706957399a74a6ac4f7d23473f3b8fcd50904c802d4a34d1939e56168639"

    def test_boundary_terms_at_the_sweep_rung_shape_are_pinned(self):
        g = GridSpec(nt=256, nx=256, ny=32, Lt=2 * np.pi, Lx=2 * np.pi, Ly=14.0)
        rng = np.random.default_rng(256)
        y, _ = g.quadrature()
        shape = (g.nt, g.half_nx, g.ny)
        spectral = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(-(((y - 3.0) / 1.5) ** 2))
        terms = grids.boundary_terms(g, spectral, g.half(g.symbol_table(M2).mup))
        assert terms.shape == (g.nt, g.half_nx)
        assert hashlib.sha256(terms.tobytes()).hexdigest() == self.RUNG_TERMS


class TestPinnedClosure:
    """The closure's kernel sums, profiles and residuals, bit for bit, on a seeded 16x16x96 grid.

    sha256 of the values' bytes, mode after mode in row-major order: the one-mode ``closure_sums`` on every
    half-mesh mode, and ``solve_half_space`` and ``front_equation_residual`` on every full-mesh mode at the
    front solved from the same seeded sources.
    """

    PINNED = {
        "terms": "32325b363b82603ab4c190df8ff44a6ce1b59427f8eb32292447057da13b05e3",
        "homogeneous": "25add479c0673334bae953067a3005befb90bcc893fa06e8425b691be5958f7c",
        "free": "66c9f295324b9f42180fb179f091a52ae63adfb9bf70fa41fc0c09489d9b7973",
        "profiles": "5917136bd7e72de3d787549732f0ebf49b3202b7345121c038ed0b7bd4530db8",
        "residuals": "7cb4d25a954b590c468957da8766000e3caf9053136e621577bda6a6a4c05e2c",
    }

    @pytest.fixture(scope="class")
    def case(self):
        from vsheet.front import build_g, solve_front

        g = _grid(ny=96, Ly=30.0, nt=16, nx=16)
        fields = _random_fields(g, 30)
        return g, fields, solve_front(build_g(*fields, M2), g, M2).f_hat

    def test_closure_sums_are_pinned(self, case):
        g, fields, _ = case
        table = g.symbol_table(M2)
        digests = {name: hashlib.sha256() for name in ("terms", "homogeneous", "free")}
        for it, ix in np.ndindex(g.nt, g.half_nx):
            sources = np.array([field.spectral[it, ix] for field in fields])
            parts = grids.closure_sums(g, sources, np.array((table.mup[it, ix], table.mum[it, ix])))
            for digest, part in zip(digests.values(), parts):
                digest.update(np.ascontiguousarray(part, dtype=complex).tobytes())
        assert {name: digest.hexdigest() for name, digest in digests.items()} == {
            name: self.PINNED[name] for name in digests
        }

    @staticmethod
    def _profile_and_residual_digests(g, fields, f_hat, params):
        mesh = g.freq_mesh()
        profiles, residuals = hashlib.sha256(), np.empty((g.nt, g.nx))
        for it, ix in np.ndindex(g.nt, g.nx):
            fhat = complex(f_hat[it, ix])
            pair = solve_half_space(*fields, mesh[it, ix], fhat, params)
            for prof in pair:
                scalars = np.array((prof.mu, prof.amplitude, prof.p0, prof.dp0), dtype=complex)
                profiles.update(scalars.tobytes() + np.ascontiguousarray(prof.values, dtype=complex).tobytes())
            residuals[it, ix] = front_equation_residual(*pair, mesh[it, ix], fhat, params)
        assert np.max(residuals) <= 1e-12
        return {"profiles": profiles.hexdigest(), "residuals": hashlib.sha256(residuals.tobytes()).hexdigest()}

    def test_profiles_and_residuals_are_pinned(self, case):
        digests = self._profile_and_residual_digests(*case, M2)
        assert digests == {name: self.PINNED[name] for name in digests}

    # the same at c = 1.3, where dividing by c^2 rounds differently in Python and in numpy
    PINNED_C13 = {
        "profiles": "ba29e1891b104de12cf94a97f059a3ec8e94c67e9055277e042112102a9321f1",
        "residuals": "2da67f6c59e8a568ece85733731b2e97aad3781c731eee356d03dc8458f45726",
    }

    def test_profiles_and_residuals_are_pinned_at_another_sound_speed(self):
        from vsheet.front import build_g, solve_front

        params = PhysicalParams(v=2.6, c=1.3)
        g = _grid(ny=96, Ly=30.0, nt=16, nx=16)
        fields = _random_fields(g, 31)
        f_hat = solve_front(build_g(*fields, params), g, params).f_hat
        assert self._profile_and_residual_digests(g, fields, f_hat, params) == self.PINNED_C13


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
