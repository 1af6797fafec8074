"""Pointwise symbol layer: branches, regimes, homogeneity, frozen oracles.

High-precision reference values were generated once with mpmath at 40
significant digits and are frozen here as literals; the root constants are
also checked against mpmath oracles computed in the test.
"""

import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vsheet import symbols
from vsheet.grids import GridSpec
from vsheet.hemisphere import root_points
from vsheet.symbols import (
    SQRT2,
    DegenerateDenominator,
    Frequency,
    PhysicalParams,
    Regime,
    big_sigma,
    glancing_gap,
    mu_pm,
    root_constants,
    sandwich_band,
    weight_bound_constant,
    weight_sigma,
)

M2 = PhysicalParams(v=2.0, c=1.0)
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# mpmath 40-dps oracles
MU_PLUS_ORACLE = 1.111785940502842 + 1.798907439947867j
SIGMA_BIG_ORACLE = 3.4721359549995794  # == 2*sqrt(5) - 1
WEIGHT_ORACLE = 1.327164739696635
Y1_ORACLE = {0.5: 0.40523272618718129, 1.0: 0.48586827175664568}
Y2_ORACLE = {1.5: 0.2961795736232002, 2.0: 0.93642638492427126, 3.0: 1.9792012201142612}
EXTENSION_ORACLE = 2.0  # c^2 eta^2 (M^2 - 2) at M=2, c=1, eta=1: the limit of Sigma as tau -> 0


def _scalar_freqs():
    return st.tuples(
        st.floats(1e-3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
    ).map(lambda t: Frequency(*t))


def _params():
    return st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 3.0)).map(
        lambda t: PhysicalParams(v=t[0], c=t[1])
    )


class TestRegime:
    def test_dichotomy(self):
        assert PhysicalParams(v=1.0, c=1.0).regime() is Regime.ELLIPTIC
        assert PhysicalParams(v=2.0, c=1.0).regime() is Regime.WEAKLY_STABLE
        assert PhysicalParams(v=SQRT2, c=1.0).regime() is Regime.DEGENERATE

    def test_band_width(self):
        assert PhysicalParams(v=SQRT2 + 5e-10, c=1.0).regime() is Regime.DEGENERATE
        assert PhysicalParams(v=SQRT2 + 2e-9, c=1.0).regime() is Regime.WEAKLY_STABLE
        assert PhysicalParams(v=SQRT2 - 2e-9, c=1.0).regime() is Regime.ELLIPTIC

    def test_mach_scaling(self):
        assert PhysicalParams(v=3.0, c=2.0).mach == pytest.approx(1.5, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalParams(v=0.0, c=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(v=1.0, c=-2.0)


class TestFrequency:
    def test_rejects_origin_and_negative_gamma(self):
        with pytest.raises(ValueError):
            Frequency(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Frequency(-1.0, 0.0, 1.0)

    def test_an_overflowing_modulus_is_named_without_a_warning(self):
        # finite components whose squares overflow (the RuntimeWarning filter makes a warning fail the test)
        with pytest.raises(ValueError, match=r"^the frequency modulus overflows double precision: the largest component is 1e\+200$"):
            Frequency(1.0, np.array([0.0, -1e200]), 1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^frequency components must be finite$"):
                Frequency(1.0, bad, 1.0)

    def test_lambda_and_tau(self):
        f = Frequency(3.0, 4.0, 0.0)
        assert f.lam == 5.0
        assert f.tau == 3.0 + 4.0j

    def test_array_broadcast(self):
        f = Frequency(np.ones(4), np.arange(4.0), -1.0)
        assert f.size == 4
        assert f.eta.shape == (4,)

    def test_normalized_round_trip(self):
        f = Frequency(2.0, -3.0, 6.0)
        lam = f.lam
        unit = f.scaled(1.0 / lam)
        assert lam == pytest.approx(7.0)
        assert abs(unit.lam - 1.0) < 1e-15
        back = unit.scaled(lam)
        assert back.gamma == pytest.approx(f.gamma)
        assert back.delta == pytest.approx(f.delta)


    def test_lambda_and_unit_point_are_computed_once_per_batch(self):
        f = Frequency(np.array([0.5, 3.0, 0.0]), np.array([-1.0, 0.0, 2.0]), 2.0)
        lam, unit = f.lam, f.unit
        assert f.lam is lam and f.unit is unit
        big_sigma(f, M2), weight_sigma(f, M2), mu_pm(f, M2)
        assert f.lam is lam and f.unit is unit
        assert np.array_equal(lam, np.sqrt(f.gamma**2 + f.delta**2 + f.eta**2))
        for got, part in zip(unit, (f.gamma, f.delta, f.eta)):
            assert np.array_equal(got, part / lam)

    @pytest.mark.parametrize("kernel", [mu_pm, big_sigma, weight_sigma])
    def test_kernels_normalize_without_a_second_frequency(self, monkeypatch, kernel):
        points = [Frequency(0.5, -1.0, 2.0), Frequency(np.full(3, 0.5), np.arange(3.0), 1.0)]
        built = []
        original = Frequency.__post_init__
        monkeypatch.setattr(Frequency, "__post_init__", lambda self: built.append(self) or original(self))
        for freq in points:
            kernel(freq, M2)
        assert built == []

    def test_normalized_matches_the_kernels_scaling(self):
        f = Frequency(np.array([0.5, 3.0]), np.array([-1.0, 0.0]), 2.0)
        lam = f.lam
        unit = f.scaled(1.0 / lam)
        assert np.allclose(big_sigma(f, M2), lam**2 * big_sigma(unit, M2), rtol=1e-14, atol=0)
        assert Frequency(1.0, 2.0, 2.0).lam == 3.0 and Frequency(1.0, 2.0, 2.0).size == 1

    def test_mesh_slice_is_not_revalidated(self, monkeypatch):
        mesh = GridSpec(nt=8, nx=4, ny=8, Lt=1.0, Lx=1.0, Ly=1.0).freq_mesh()
        built = []
        original = Frequency.__post_init__
        monkeypatch.setattr(Frequency, "__post_init__", lambda self: built.append(self) or original(self))
        point, row = mesh[3, 1], mesh[2]
        assert built == []
        assert all(x.shape == () and x.dtype == np.float64 for x in (point.gamma, point.delta, point.eta))
        assert point == Frequency(mesh.gamma[3, 1], mesh.delta[3, 1], mesh.eta[3, 1])
        assert row.size == 4 and np.array_equal(row.eta, mesh.eta[2])

    def test_a_mesh_point_is_a_view_of_the_mesh(self):
        mesh = GridSpec(nt=8, nx=4, ny=8, Lt=1.0, Lx=1.0, Ly=1.0).freq_mesh()
        point = mesh[3, 1]
        for x, full in zip((point.gamma, point.delta, point.eta), (mesh.gamma, mesh.delta, mesh.eta)):
            assert type(x) is np.ndarray and x.shape == () and np.shares_memory(x, full)
            assert x == full[3, 1]
        # an index that holds its own Ellipsis, a fancy index and a mask still index as numpy does
        assert mesh[..., 1].size == 8 and mesh[3, ...].size == 4 and mesh[3, 1, ...].delta.shape == ()
        assert np.array_equal(mesh[[1, 5], 2].delta, mesh.delta[[1, 5], 2])
        assert np.array_equal(mesh[mesh.delta > 0].eta, mesh.eta[mesh.delta > 0])

    def test_fields_are_float64_arrays(self):
        mesh = GridSpec(nt=8, nx=4, ny=8, Lt=1.0, Lx=1.0, Ly=1.0).freq_mesh()
        batch = Frequency(np.ones(4), np.arange(4), -1)
        shapes = {
            (): [Frequency(1.0, 0.0, 1.0), Frequency(1, 0, 2), Frequency(np.float32(0.5), 1.0, 0.0)]
            + [mesh[3, 1], batch[2]],
            (4,): [batch, batch.scaled(2.0), mesh[2], mesh[:, 1][4:]],
            (8, 4): [mesh, mesh.scaled(np.full((8, 4), 0.5))],
        }
        for shape, freqs in shapes.items():
            for f in freqs:
                for x in (f.gamma, f.delta, f.eta):
                    assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == shape
                assert f.size == np.prod(shape)

    @pytest.mark.parametrize("kernel", [mu_pm, big_sigma, weight_sigma])
    def test_a_point_gives_complex128_scalars(self, kernel):
        mesh = GridSpec(nt=8, nx=4, ny=8, Lt=1.0, Lx=1.0, Ly=1.0).freq_mesh()
        for point in (Frequency(1.0, 0.0, 1.0), mesh[3, 1]):
            out = kernel(point, M2)
            for value in out if kernel is mu_pm else (out,):
                assert type(value) is np.complex128


class TestMu:
    def test_oracle_point(self):
        mp, mm = mu_pm(Frequency(1.0, 0.0, 1.0), M2)
        assert abs(mp - MU_PLUS_ORACLE) < 1e-13, f"mu+ drifted: {mp}"
        assert abs(mm - np.conj(MU_PLUS_ORACLE)) < 1e-13

    def test_eta_zero_collapses_to_tau_over_c(self):
        mp, mm = mu_pm(Frequency(1.0, 0.0, 0.0), M2)
        assert mp == pytest.approx(1.0) and mm == pytest.approx(1.0)

    @given(_scalar_freqs(), _params())
    def test_branch_positive_real_part(self, freq, params):
        mp, mm = mu_pm(freq, params)
        floor = freq.gamma / params.c * (1.0 - 1e-12)
        assert mp.real >= floor, f"mu+ branch left the half-plane: {mp}"
        assert mm.real >= floor

    @pytest.mark.parametrize("gamma", [1.0, 0.0], ids=["interior", "boundary"])
    def test_a_negative_real_part_raises(self, gamma, monkeypatch):
        # an explicit raise, so the check holds under python -O too
        branch = symbols._mu_branch
        monkeypatch.setattr(symbols, "_mu_branch", lambda *args: -branch(*args) - 1e-3)
        for kernel in (mu_pm, big_sigma):
            with pytest.raises(RuntimeError, match="branch selection produced a negative real part"):
                kernel(Frequency(gamma, 0.5, 1.0), M2)

    @given(_scalar_freqs(), _params())
    def test_defining_quadratic(self, freq, params):
        mp, mm = mu_pm(freq, params)
        v, c = params.v, params.c
        lhs = mp * mp
        rhs = ((freq.tau + 1j * v * freq.eta) / c) ** 2 + freq.eta**2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        assert abs(mm * mm - (((freq.tau - 1j * v * freq.eta) / c) ** 2 + freq.eta**2)) <= 1e-10 * max(
            abs(mm * mm), 1.0
        )


class TestBigSigma:
    def test_oracle_point(self):
        val = big_sigma(Frequency(1.0, 0.0, 1.0), M2)
        assert abs(val - SIGMA_BIG_ORACLE) < 1e-13
        assert abs(val - (2.0 * np.sqrt(5.0) - 1.0)) < 1e-13

    def test_eta_zero_is_tau_squared(self):
        val = big_sigma(Frequency(1.0, 3.0, 0.0), M2)
        assert val == pytest.approx((1.0 + 3.0j) ** 2)  # -8 + 6i

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateDenominator):
            big_sigma(Frequency(0.0, 0.0, 1.0), M2)

    def test_degenerate_point_extends(self):
        # the symbol raises at the degenerate point but has a limit there: approach it from gamma > 0
        val = big_sigma(Frequency(1e-9, 0.0, 1.0), M2)
        assert abs(val - EXTENSION_ORACLE) <= 1e-12 * EXTENSION_ORACLE, f"extension limit off: {val}"

    def test_extension_scales_with_eta(self):
        cases = [(3.0, M2), (-2.0, M2), (3.0, PhysicalParams(v=6.0, c=3.0)), (0.5, PhysicalParams(v=1.5, c=1.0))]
        for eta, params in cases:
            limit = params.c**2 * eta**2 * (params.mach**2 - 2.0)
            val = big_sigma(Frequency(1e-9 * abs(eta), 0.0, eta), params)
            assert abs(val - limit) <= 1e-12 * abs(limit), (eta, params, val)

    def test_readme_sketch_shows_the_computed_value(self):
        call = "big_sigma(Frequency(1.0, 0.0, 1.0), params)"
        line = next(line for line in README.read_text().splitlines() if line.startswith(call))
        val = big_sigma(Frequency(1.0, 0.0, 1.0), M2)
        exact = 2.0 * np.sqrt(5.0) - 1.0
        assert abs(val - exact) <= 1e-15 * exact
        assert line.split("#", 1)[1].strip() == repr(val)

    def test_subsonic_has_no_degeneracy(self):
        # for M < 1 the denominator has positive real part even at tau=0
        val = big_sigma(Frequency(0.0, 0.0, 1.0), PhysicalParams(v=0.5, c=1.0))
        assert np.isfinite(val)

    @given(_scalar_freqs(), _params(), st.integers(-12, 6))
    def test_homogeneous_degree_two(self, freq, params, j):
        k = 2.0**j
        base = big_sigma(freq, params)
        scaled = big_sigma(freq.scaled(k), params)
        assert abs(scaled - k * k * base) <= 1e-12 * abs(k * k * base)

    @given(_scalar_freqs(), _params())
    def test_conjugation_symmetry(self, freq, params):
        plus = big_sigma(freq, params)
        minus = big_sigma(Frequency(freq.gamma, -freq.delta, -freq.eta), params)
        assert abs(minus - np.conj(plus)) <= 1e-13 * max(abs(plus), 1.0)

    @given(_scalar_freqs(), _params())
    def test_adjoint_route(self, freq, params):
        # the adjoint symbol Sigma(conj(tau), eta) == conj(Sigma(tau, -eta)): two routes, one value
        direct = big_sigma(Frequency(freq.gamma, -freq.delta, freq.eta), params)
        flipped = np.conj(big_sigma(Frequency(freq.gamma, freq.delta, -freq.eta), params))
        assert abs(direct - flipped) <= 1e-13 * max(abs(direct), 1.0)

    def test_array_matches_scalar(self):
        freqs = Frequency(np.full(3, 1.0), np.array([0.0, 1.0, -2.0]), np.full(3, 1.0))
        arr = big_sigma(freqs, M2)
        for i in range(3):
            one = big_sigma(freqs[i], M2)
            # scalar and ufunc code paths may differ by an ulp or two
            assert abs(arr[i] - one) <= 1e-14 * abs(one)


class TestRootConstants:
    def test_weakly_stable_oracles(self):
        for mach, y2 in Y2_ORACLE.items():
            got = root_constants(PhysicalParams(v=mach, c=1.0))
            assert abs(got - y2) < 1e-14, f"Y2({mach}) = {got}"

    def test_elliptic_oracles(self):
        for mach, y1 in Y1_ORACLE.items():
            got = root_constants(PhysicalParams(v=mach, c=1.0))
            assert abs(got - y1) < 1e-14, f"Y1({mach}) = {got}"

    @pytest.mark.parametrize("mach", [1e-8, 1e-6, 1e-3, 1.4142, 1.415, 1e100])
    def test_mpmath_oracles_to_rounding(self, mach):
        # the defining difference, from the exact binary mach: at 60 digits its cancellation
        # leaves over 40; near sqrt(2) the bound is the conditioning of M^2 - 2 itself
        with mpmath.workdps(60):
            m2 = mpmath.mpf(mach) ** 2
            oracle = mpmath.sqrt(abs(mpmath.sqrt(4 * m2 + 1) - (m2 + 1)))
            eps = np.finfo(np.float64).eps
            bound = 2 * eps * mach**2 / abs(mach**2 - 2) if abs(mach - SQRT2) < 0.01 else 4e-16
            got = root_constants(PhysicalParams(v=mach, c=1.0))
            assert abs(got - oracle) <= bound * oracle, f"Y({mach}) = {got!r}, oracle {oracle}"

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            root_constants(PhysicalParams(v=SQRT2, c=1.0))

    def test_c_invariance(self):
        # root constants depend only on the Mach number
        a = root_constants(PhysicalParams(v=2.0, c=1.0))
        b = root_constants(PhysicalParams(v=6.0, c=3.0))
        assert a == pytest.approx(b, rel=1e-14)

    @given(st.floats(1.45, 6.0))
    def test_y2_roots_annihilate_symbol(self, mach):
        params = PhysicalParams(v=mach, c=1.0)
        y2 = root_constants(params)
        val = big_sigma(Frequency(0.0, y2, 1.0), params)
        assert abs(val) < 1e-10 * (1.0 + y2 * y2), f"symbol at root = {val}"

    @given(st.floats(0.05, 1.35))
    def test_y1_roots_annihilate_symbol(self, mach):
        params = PhysicalParams(v=mach, c=1.0)
        y1 = root_constants(params)
        val = big_sigma(Frequency(y1, 0.0, 1.0), params)
        assert abs(val) < 1e-10 * (1.0 + y1 * y1)


class TestGlancingGap:
    @pytest.mark.parametrize("mach", [1.415, 2.0, 15.0, 1e3, 1e8, 1e150])
    def test_mpmath_oracle_of_the_cancelling_difference(self, mach):
        # (M - 1) - Y2 ~ 1 / (8 M^2) cancels about 2 log10(M) digits of M; 700 digits cover M = 1e150
        with mpmath.workdps(700):
            m = mpmath.mpf(mach)
            oracle = (m - 1) - mpmath.sqrt(m**2 + 1 - mpmath.sqrt(4 * m**2 + 1))
            got = glancing_gap(PhysicalParams(v=mach, c=1.0))
            assert abs(got - oracle) <= 1e-14 * oracle, f"gap({mach}) = {got!r}, oracle {oracle}"

    def test_is_the_distance_from_the_root_to_where_mu_minus_vanishes(self):
        params = PhysicalParams(v=6.0, c=3.0)
        cy, gap = params.c * root_constants(params), glancing_gap(params)
        assert gap == pytest.approx((params.v - params.c) - cy, rel=1e-14)
        assert gap == pytest.approx(3.0 * glancing_gap(M2), rel=1e-14)
        _, mum = mu_pm(Frequency(0.0, cy + gap, 1.0), params)
        assert abs(mum) < 1e-6

    def test_shrinks_like_c_over_8_m_squared(self):
        assert glancing_gap(PhysicalParams(v=1e8, c=1.0)) == pytest.approx(1.0 / 8e16, rel=1e-7)

    @pytest.mark.parametrize("mach", [1.0, SQRT2])
    def test_exists_in_the_weakly_stable_regime_only(self, mach):
        with pytest.raises(ValueError, match="glancing_gap requires the weakly stable regime"):
            glancing_gap(PhysicalParams(v=mach, c=1.0))


class TestSandwichBand:
    @pytest.mark.parametrize("v, c", [(1.5, 1.0), (2.0, 1.0), (3.0, 1.0), (5.0, 1.0), (3.0, 1.5)])
    def test_is_the_ratio_at_the_glancing_points(self, v, c):
        # Sigma = -c^2 eta^2 where mu+ or mu- vanishes; at delta = (v + c) eta the radicand of mu+
        # cancels, so the symbols agree there only to ~1e-7
        params = PhysicalParams(v=v, c=c)
        low, high = sandwich_band(params)
        for slope, end in ((v + c, low), (v - c, high)):
            freq = Frequency(0.0, slope, 1.0)
            ratio = abs(big_sigma(freq, params)) / (abs(weight_sigma(freq, params)) * freq.lam)
            assert ratio == pytest.approx(end, rel=1e-6)

    @pytest.mark.parametrize("mach", [1.5, 2.0, 1e3, 1e8])
    def test_ends_are_reciprocal_and_depend_on_mach_alone(self, mach):
        low, high = sandwich_band(PhysicalParams(v=mach, c=1.0))
        assert (low, high) == sandwich_band(PhysicalParams(v=3.0 * mach, c=3.0))
        assert low * high == pytest.approx(1.0, rel=1e-15)
        # sqrt(4 M^2 + 1) - 2M, without its cancellation: about 1 / (4M) for large M
        with mpmath.workdps(60):
            m = mpmath.mpf(mach)
            assert low == pytest.approx(float(mpmath.sqrt(4 * m**2 + 1) - 2 * m), rel=1e-15)

    @pytest.mark.parametrize("mach", [1.0, SQRT2])
    def test_exists_in_the_weakly_stable_regime_only(self, mach):
        with pytest.raises(ValueError, match="sandwich_band requires the weakly stable regime"):
            sandwich_band(PhysicalParams(v=mach, c=1.0))


class TestWeight:
    def test_oracle_point(self):
        val = weight_sigma(Frequency(1.0, 0.0, 1.0), M2)
        assert abs(val - WEIGHT_ORACLE) < 1e-13

    def test_eta_zero_reduces_to_tau(self):
        val = weight_sigma(Frequency(2.0, 0.0, 0.0), M2)
        assert val == pytest.approx(2.0)

    def test_vanishes_exactly_at_roots(self):
        y2 = root_constants(M2)
        val = weight_sigma(Frequency(0.0, y2, 1.0), M2)
        assert abs(val) < 1e-12

    def test_elliptic_regime_rejected(self):
        with pytest.raises(ValueError):
            weight_sigma(Frequency(1.0, 0.0, 1.0), PhysicalParams(v=1.0, c=1.0))

    @given(_scalar_freqs(), st.integers(-12, 6))
    def test_homogeneous_degree_one(self, freq, j):
        k = 2.0**j
        base = weight_sigma(freq, M2)
        scaled = weight_sigma(freq.scaled(k), M2)
        assert abs(scaled - k * base) <= 1e-12 * abs(k * base)

    @given(_scalar_freqs())
    def test_global_upper_bound(self, freq):
        bound = weight_bound_constant(M2)
        assert abs(weight_sigma(freq, M2)) <= bound * freq.lam * (1.0 + 1e-12)

    @given(_scalar_freqs())
    def test_gamma_lower_bound(self, freq):
        # |sigma| >= gamma: the quadratic factors each dominate the gamma line
        assert abs(weight_sigma(freq, M2)) >= freq.gamma * (1.0 - 1e-12)


def _mu_closed(freq, params):
    """(mu+, mu-) from their definition at ``freq`` itself; for gamma > 0 the principal root is the branch."""
    return tuple(np.sqrt(((freq.tau + s * 1j * params.v * freq.eta) / params.c) ** 2 + freq.eta**2) for s in (1.0, -1.0))


def _sigma_closed(freq, params):
    mup, mum = _mu_closed(freq, params)
    return freq.tau**2 + (params.v * freq.eta) ** 2 * (8.0 * ((freq.tau / params.c) / (mup + mum)) ** 2 - 1.0)


def _weight_closed(freq, params):
    shift = 1j * params.c * root_constants(params) * freq.eta
    return (freq.tau - shift) * (freq.tau + shift) / freq.lam


class TestGenericHomogeneity:
    """``kernel(k xi) == k**degree * closed_form(xi)`` to 1e-12 relative, for generic ``k`` in [1e-3, 1e3].

    The closed forms are evaluated at ``xi`` without normalizing.  The sandwich
    certificate rescales only by powers of two, which the kernels' normalization
    makes exact, so its deviation is 0 by construction; this is the property
    itself.  The points include near-root points at angular distances 0.05,
    1e-2 and 1e-3, where the relative condition number of ``Sigma`` and
    ``sigma`` is about 1/distance (the largest defect, 4e-13, is there).
    """

    PARAMS = [PhysicalParams(v=2.0, c=1.0), PhysicalParams(v=3.0, c=1.0), PhysicalParams(v=4.5, c=1.5)]
    KERNELS = {
        "big_sigma": (big_sigma, _sigma_closed, 2),
        "weight_sigma": (weight_sigma, _weight_closed, 1),
        "mu_plus": (lambda f, p: mu_pm(f, p)[0], lambda f, p: _mu_closed(f, p)[0], 1),
        "mu_minus": (lambda f, p: mu_pm(f, p)[1], lambda f, p: _mu_closed(f, p)[1], 1),
    }

    @staticmethod
    def _points(params, m=256):
        """``m`` generic points with gamma >= 0.05, then ``m`` at each angular distance from the root points."""
        rng = np.random.default_rng(0)
        roots = root_points(params)
        e1 = np.cross(roots, [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(roots, e1)
        owner = np.arange(m) % len(roots)
        blocks = [rng.normal(size=(m, 3))]
        blocks[0][:, 0] = np.abs(blocks[0][:, 0]) + 0.05
        for rho in (0.05, 1e-2, 1e-3):
            alpha = rng.uniform(0.0, 2.0 * np.pi, (m, 1))
            near = np.cos(rho) * roots[owner] + np.sin(rho) * (np.cos(alpha) * e1[owner] + np.sin(alpha) * e2[owner])
            near[:, 0] = np.abs(near[:, 0])
            blocks.append(near)
        return Frequency(*np.concatenate(blocks).T)

    def _defect(self, kernel, closed, degree, params) -> float:
        freqs = self._points(params)
        k = 10.0 ** np.random.default_rng(1).uniform(-3.0, 3.0, freqs.size)
        want = k**degree * closed(freqs, params)
        return float(np.max(np.abs(kernel(freqs.scaled(k), params) - want) / np.abs(want)))

    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"M{p.mach:g}-c{p.c:g}")
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_kernels_are_homogeneous_at_generic_scalings(self, name, params):
        assert self._defect(*self.KERNELS[name], params) <= 1e-12

    def test_a_skewed_symbol_fails(self):
        # a homogeneity defect that no unit-hemisphere sample can see: log Lambda = 0 there
        def skewed(freq, params):
            return big_sigma(freq, params) * (1.0 + 1e-6 * np.log(freq.lam))

        assert self._defect(skewed, _sigma_closed, 2, M2) > 1e-12


class TestLambdaPower:
    """Lambda^s, the plain norm weight, is ``Frequency.lam ** s``."""

    def test_values(self):
        assert Frequency(3.0, 4.0, 0.0).lam ** 1.0 == pytest.approx(5.0)
        assert Frequency(1.0, 2.0, 2.0).lam ** -1.0 == pytest.approx(1.0 / 3.0)
        assert Frequency(1.0, 2.0, 2.0).lam ** 0.0 == 1.0

    def test_array(self):
        f = Frequency(np.ones(2), np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_allclose(f.lam ** 2.0, [1.0, 2.0])

