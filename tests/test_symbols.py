"""Pointwise symbol layer: branches, regimes, homogeneity, frozen oracles.

High-precision reference values were generated once with mpmath at 40
significant digits and are frozen here as literals.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vsheet.symbols import (
    SQRT2,
    DegenerateDenominator,
    Frequency,
    PhysicalParams,
    Regime,
    adjoint_sigma,
    big_sigma,
    lambda_power,
    mu_pm,
    root_constants,
    weight_bound_constant,
    weight_sigma,
)

M2 = PhysicalParams(v=2.0, c=1.0)

# mpmath 40-dps oracles
MU_PLUS_ORACLE = 1.111785940502842 + 1.798907439947867j
SIGMA_BIG_ORACLE = 3.4721359549995794  # == 2*sqrt(5) - 1
WEIGHT_ORACLE = 1.327164739696635
Y1_ORACLE = {0.5: 0.40523272618718129, 1.0: 0.48586827175664568}
Y2_ORACLE = {1.5: 0.2961795736232002, 2.0: 0.93642638492427126, 3.0: 1.9792012201142612}
EXTENSION_ORACLE = 2.0  # c^2 eta^2 (M^2 - 2) at M=2, c=1, eta=1


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
        unit, lam = f.normalized()
        assert lam == pytest.approx(7.0)
        assert abs(unit.lam - 1.0) < 1e-15
        back = unit.scaled(lam)
        assert back.gamma == pytest.approx(f.gamma)
        assert back.delta == pytest.approx(f.delta)


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
        val = big_sigma(Frequency(0.0, 0.0, 1.0), M2, extend=True)
        assert abs(val - EXTENSION_ORACLE) < 1e-6, f"extension limit off: {val}"

    def test_extension_scales_with_eta(self):
        val = big_sigma(Frequency(0.0, 0.0, 3.0), M2, extend=True)
        assert abs(val - 9.0 * EXTENSION_ORACLE) < 9e-6

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
        # Sigma(conj(tau), eta) == conj(Sigma(tau, -eta)): two routes, one value
        direct = adjoint_sigma(freq, params)
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


class TestLambdaPower:
    def test_values(self):
        assert lambda_power(Frequency(3.0, 4.0, 0.0), 1.0) == pytest.approx(5.0)
        assert lambda_power(Frequency(1.0, 2.0, 2.0), -1.0) == pytest.approx(1.0 / 3.0)
        assert lambda_power(Frequency(1.0, 2.0, 2.0), 0.0) == 1.0

    def test_array(self):
        f = Frequency(np.ones(2), np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_allclose(lambda_power(f, 2.0), [1.0, 2.0])

