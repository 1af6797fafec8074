"""Hemisphere sampling, bound certificates, root location."""

import warnings

import numpy as np
import pytest

from vsheet import hemisphere, symbols
from vsheet.hemisphere import (
    TUBE_RADIUS,
    HemisphereSample,
    NoRootFound,
    SampleStrategy,
    certify_sandwich,
    certify_simple_root,
    certify_weight_bounds,
    locate_roots,
    root_points,
    sample_hemisphere,
)
from vsheet.symbols import (
    Frequency,
    PhysicalParams,
    big_sigma,
    root_constants,
    weight_bound_constant,
    weight_sigma,
)

M2 = PhysicalParams(v=2.0, c=1.0)
ELL = PhysicalParams(v=1.0, c=1.0)

Y2_M2 = 0.93642638492427126  # mpmath oracle
Y1_M1 = 0.48586827175664568


class TestSampling:
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_size_and_unit_norm(self, strategy):
        sample = sample_hemisphere(500, strategy, 1e-6, M2, seed=3)
        assert len(sample) == 500
        lam = np.asarray(sample.freqs.lam)
        assert np.max(np.abs(lam - 1.0)) < 1e-12

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_gamma_floor(self, strategy):
        floor = 1e-4
        sample = sample_hemisphere(512, strategy, floor, M2, seed=1)
        assert np.min(np.asarray(sample.freqs.gamma)) >= floor * (1.0 - 1e-12)

    def test_stratified_fraction_near_roots(self):
        sample = sample_hemisphere(2000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        g = np.asarray(sample.freqs.gamma)
        d = np.asarray(sample.freqs.delta)
        e = np.asarray(sample.freqs.eta)
        near = 0
        for root in root_points(M2):
            dist = np.sqrt((g - root[0]) ** 2 + (d - root[1]) ** 2 + (e - root[2]) ** 2)
            near += int(np.sum(dist < 0.1))
        assert near >= 0.25 * len(sample), f"only {near} of {len(sample)} near roots"

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_monotone_refinement(self, strategy):
        small = sample_hemisphere(256, strategy, 1e-6, M2, seed=7)
        big = sample_hemisphere(512, strategy, 1e-6, M2, seed=7)
        a = np.column_stack(
            [np.asarray(small.freqs.gamma), np.asarray(small.freqs.delta), np.asarray(small.freqs.eta)]
        )
        b = np.column_stack(
            [np.asarray(big.freqs.gamma), np.asarray(big.freqs.delta), np.asarray(big.freqs.eta)]
        )
        np.testing.assert_array_equal(a, b[: len(small)])

    def test_seed_changes_quasi_random(self):
        a = sample_hemisphere(64, SampleStrategy.QUASI_RANDOM, 1e-6, M2, seed=0)
        b = sample_hemisphere(64, SampleStrategy.QUASI_RANDOM, 1e-6, M2, seed=1)
        assert not np.allclose(np.asarray(a.freqs.delta), np.asarray(b.freqs.delta))

    @pytest.mark.parametrize("shape", [(), (2, hemisphere._CHUNK // 2 + 5)], ids=["0-d", "2-d"])
    def test_a_sample_is_a_one_dimensional_batch(self, shape):
        # a 0-d or 2-D batch would be chunked along an axis that does not count its points
        freqs = Frequency(np.ones(shape), np.zeros(shape), np.zeros(shape))
        with pytest.raises(ValueError, match=rf"1-d batch of frequencies, got shape \({shape[0] if shape else ''}") as err:
            HemisphereSample(freqs, 1e-6)
        assert "\n" not in str(err.value)

    def test_stratified_needs_params(self):
        with pytest.raises(ValueError):
            sample_hemisphere(64, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, None)

    def test_root_points_weakly_stable(self):
        pts = root_points(M2)
        assert len(pts) == 4
        for g, d, e in pts:
            assert g == 0.0
            assert abs(np.hypot(d, e) - 1.0) < 1e-14
            assert abs(abs(d) - Y2_M2 * abs(e)) < 1e-12

    def test_root_points_elliptic(self):
        pts = root_points(ELL)
        assert len(pts) == 2
        for g, d, e in pts:
            assert d == 0.0 and g > 0
            assert abs(g - Y1_M1 * abs(e)) < 1e-12


class TestSandwich:
    def test_trivial_direction(self):
        # at (1,0,0): Sigma = 1, weight = 1, Lambda = 1 -> ratio exactly 1
        sample = sample_hemisphere(1, SampleStrategy.UNIFORM_ANGULAR, 1e-6, M2, seed=0)
        object.__setattr__(sample, "freqs", Frequency([1.0], [0.0], [0.0]))
        cert = certify_sandwich(sample, M2)
        assert cert.empirical_min == pytest.approx(1.0, rel=1e-12)
        assert cert.empirical_max == pytest.approx(1.0, rel=1e-12)

    def test_passes_at_moderate_size(self):
        sample = sample_hemisphere(10_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        cert = certify_sandwich(sample, M2)
        assert cert.passed
        assert cert.empirical_min > 0
        assert cert.empirical_max / cert.empirical_min < 1e4
        assert cert.extras["homogeneity_deviation"] <= 1e-12
        assert cert.mach == pytest.approx(2.0)

    def test_rejects_elliptic(self):
        sample = sample_hemisphere(16, SampleStrategy.UNIFORM_ANGULAR, 1e-6, ELL, seed=0)
        with pytest.raises(ValueError):
            certify_sandwich(sample, ELL)

    def test_json_record_shape(self):
        sample = sample_hemisphere(128, SampleStrategy.QUASI_RANDOM, 1e-6, M2, seed=0)
        rec = certify_sandwich(sample, M2).to_json_dict()
        for key in ("ratio_name", "empirical_min", "empirical_max", "sample_size", "gamma_floor", "mach", "pass"):
            assert key in rec, f"missing {key}"
        assert isinstance(rec["pass"], bool)


class TestStreamingPass:
    """The chunked single pass against an unchunked NumPy reference."""

    def test_extrema_match_unchunked_reference(self, monkeypatch):
        monkeypatch.setattr(hemisphere, "_CHUNK", 1000)  # four full chunks and a partial one
        sample = sample_hemisphere(4321, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=5)
        f = sample.freqs
        g, d, e = np.asarray(f.gamma), np.asarray(f.delta), np.asarray(f.eta)
        wabs = np.abs(weight_sigma(f, M2))
        lam = np.asarray(f.lam)
        ratio = np.abs(big_sigma(f, M2)) / (wabs * lam)
        dots = np.column_stack([g, d, e]) @ root_points(M2).T
        near = np.arccos(np.clip(dots.max(axis=1), -1.0, 1.0)) <= TUBE_RADIUS
        cy = M2.c * root_constants(M2)
        tau = g + 1j * d
        dist = np.minimum(np.abs(tau - 1j * cy * e), np.abs(tau + 1j * cy * e))
        expected = {
            "abs_sigma_big_over_weight_lambda": ratio,
            "weight_over_gamma": wabs / g,
            "weight_over_lambda": wabs / lam,
            "weight_over_root_distance": wabs[near] / dist[near],
            "weight_over_lambda_far": (wabs / lam)[~near],
        }
        sandwich = certify_sandwich(sample, M2)
        certs = [sandwich] + certify_weight_bounds(sample, M2)
        assert [c.ratio_name for c in certs] == list(expected)
        for cert in certs:
            values = expected[cert.ratio_name]
            assert cert.empirical_min == np.min(values), cert.ratio_name
            assert cert.empirical_max == np.max(values), cert.ratio_name
            assert cert.sample_size == values.size, cert.ratio_name
        assert sandwich.extras["near_root_count"] == np.count_nonzero(near)
        assert sandwich.extras["near_root_min"] == np.min(ratio[near])
        assert sandwich.extras["near_root_max"] == np.max(ratio[near])
        assert sandwich.extras["weight_over_lambda_max"] == np.max(wabs / lam)
        assert sandwich.extras["homogeneity_deviation"] == 0.0

    def test_homogeneity_defect_fails_the_sandwich(self, monkeypatch):
        def skewed(freq, params):
            return symbols.big_sigma(freq, params) * (1.0 + 1e-6 * np.log(freq.lam))

        monkeypatch.setattr(hemisphere, "big_sigma", skewed)
        sample = sample_hemisphere(10_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        cert = certify_sandwich(sample, M2)
        assert not cert.passed
        assert cert.extras["homogeneity_deviation"] > 1e-12

    def test_gamma_floor_zero_is_warning_free(self):
        sample = sample_hemisphere(20_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 0.0, M2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert = certify_sandwich(sample, M2)
            certify_weight_bounds(sample, M2)
        assert cert.passed


class TestWeightBounds:
    def test_all_pass(self):
        sample = sample_hemisphere(10_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        certs = certify_weight_bounds(sample, M2)
        names = [c.ratio_name for c in certs]
        assert names == [
            "weight_over_gamma",
            "weight_over_lambda",
            "weight_over_root_distance",
            "weight_over_lambda_far",
        ]
        assert all(c.passed for c in certs)

    def test_gamma_bound_is_sharp_from_above(self):
        # |sigma| / gamma >= 1 with equality approached along eta = delta = 0
        sample = sample_hemisphere(10_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        cert = next(
            c for c in certify_weight_bounds(sample, M2) if c.ratio_name == "weight_over_gamma"
        )
        assert cert.empirical_min >= 1.0 - 1e-9
        assert cert.empirical_min < 1.5

    def test_near_tube_comparable_to_distance(self):
        sample = sample_hemisphere(20_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=2)
        cert = next(
            c
            for c in certify_weight_bounds(sample, M2)
            if c.ratio_name == "weight_over_root_distance"
        )
        assert cert.passed
        assert cert.empirical_max / cert.empirical_min < 10.0

    def test_weight_over_lambda_fails_above_the_cauchy_schwarz_constant(self, monkeypatch):
        # |sigma| <= (1 + (c Y2)^2) Lambda; a weight twice too large breaks it (max 2 > 1.877)
        sample = sample_hemisphere(2000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        monkeypatch.setattr(hemisphere, "weight_sigma", lambda freq, params: 2.0 * weight_sigma(freq, params))
        cert = next(c for c in certify_weight_bounds(sample, M2) if c.ratio_name == "weight_over_lambda")
        assert cert.empirical_max > weight_bound_constant(M2)
        assert not cert.passed


class TestLocateRoots:
    @pytest.mark.parametrize("mach,y2", [(1.5, 0.2961795736232002), (2.0, Y2_M2), (3.0, 1.9792012201142612)])
    def test_weakly_stable(self, mach, y2):
        params = PhysicalParams(v=mach, c=1.0)
        found = locate_roots(params)
        assert abs(abs(found) - y2) / y2 < 1e-8

    @pytest.mark.parametrize("mach,y1", [(0.5, 0.40523272618718129), (1.0, Y1_M1)])
    def test_elliptic(self, mach, y1):
        params = PhysicalParams(v=mach, c=1.0)
        found = locate_roots(params)
        assert abs(found - y1) / y1 < 1e-8

    def test_eta_sign_flips_root(self):
        # Sigma(gamma, -delta, -eta) = conj Sigma(gamma, delta, eta): the mirrored point is a zero too
        found = locate_roots(M2)
        mirrored = big_sigma(Frequency(0.0, -found, -1.0), M2)
        assert abs(mirrored) <= hemisphere._ZERO_THRESHOLD * (found * found + 1.0)

    def test_scales_with_sound_speed(self):
        fast = PhysicalParams(v=6.0, c=3.0)
        found = locate_roots(fast)
        assert abs(abs(found) - 3.0 * Y2_M2) / (3.0 * Y2_M2) < 1e-8

    def test_no_root_when_threshold_absurd(self, monkeypatch):
        monkeypatch.setattr(hemisphere, "_ZERO_THRESHOLD", 1e-30)
        with pytest.raises(NoRootFound):
            locate_roots(M2)

    def test_search_really_found_a_zero(self):
        found = locate_roots(M2)
        eta = 1.0 / np.hypot(found, 1.0)
        val = big_sigma(Frequency(0.0, found * eta, eta), M2)
        assert abs(val) < 1e-8


class TestSimpleRoot:
    def test_certifies_m2(self):
        cert = certify_simple_root(M2)
        assert cert.passed
        assert cert.extras["band_ratio"] <= 2.0
        assert cert.extras["center_drift"] <= 0.05
        assert cert.empirical_min > 0

    def test_quotient_level_matches_symbol_slope(self):
        # |Sigma| / |tau - i c Y2 eta| near the root ~ |d Sigma / d tau|
        cert = certify_simple_root(M2)
        level = cert.extras["quotient_level"]
        r = 1e-6
        eta0 = 1.0 / np.sqrt(1.0 + (Y2_M2) ** 2)
        probe = Frequency(r, Y2_M2 * eta0, eta0)
        slope = abs(big_sigma(probe, M2)) / r
        assert level == pytest.approx(slope, rel=1e-2)

    def test_rejects_elliptic(self):
        with pytest.raises(ValueError):
            certify_simple_root(ELL)

    def test_band_tightens_with_radius(self):
        wide = certify_simple_root(M2, radius=1e-2)
        tight = certify_simple_root(M2, radius=1e-3)
        assert tight.extras["band_ratio"] <= wide.extras["band_ratio"] + 1e-12


def _patched_weight(monkeypatch, edit):
    """Make the certificates see ``edit(freqs, |sigma|)`` as the weight."""
    monkeypatch.setattr(hemisphere, "weight_sigma", lambda freqs, params: edit(freqs, np.abs(weight_sigma(freqs, params))))


def _by_name(certs):
    return {c.ratio_name: c for c in certs}


class TestPassRule:
    """Each way the one pass rule can fail, driven through the public certificates."""

    SAMPLE = dict(n=4000, strategy=SampleStrategy.STRATIFIED_NEAR_ROOTS, gamma_floor=1e-6, params=M2, seed=0)

    def test_a_zero_minimum_fails(self, monkeypatch):
        _patched_weight(monkeypatch, lambda freqs, w: np.where(freqs.eta > 0.5, 0.0, w))
        certs = _by_name(certify_weight_bounds(sample_hemisphere(**self.SAMPLE), M2))
        # weight_over_gamma carries no band: only min > 0 can fail it
        assert certs["weight_over_gamma"].empirical_min == 0.0
        assert not certs["weight_over_gamma"].passed
        assert not certs["weight_over_lambda_far"].passed

    def test_a_nan_fails(self, monkeypatch):
        sample = sample_hemisphere(**self.SAMPLE)
        first = sample.freqs.gamma[0]
        _patched_weight(monkeypatch, lambda freqs, w: np.where(freqs.gamma == first, np.nan, w))
        certs = _by_name(certify_weight_bounds(sample, M2))
        assert np.isnan(certs["weight_over_gamma"].empirical_min)
        assert not certs["weight_over_gamma"].passed
        assert not certs["weight_over_lambda"].passed

    def test_an_infinite_maximum_fails_under_a_band(self, monkeypatch):
        sample = sample_hemisphere(**self.SAMPLE)
        far = ~hemisphere._in_root_tubes(sample.freqs, M2)
        marked = sample.freqs.gamma[np.flatnonzero(far)[0]]
        _patched_weight(monkeypatch, lambda freqs, w: np.where(freqs.gamma == marked, np.inf, w))
        certs = _by_name(certify_weight_bounds(sample, M2))
        assert certs["weight_over_lambda_far"].empirical_max == np.inf
        assert not certs["weight_over_lambda_far"].passed
        # an unbounded band still needs a finite maximum
        assert not _by_name(certify_weight_bounds(sample, M2, np.inf))["weight_over_lambda_far"].passed
        # without a band an infinite maximum is allowed
        assert certs["weight_over_gamma"].empirical_max == np.inf
        assert certs["weight_over_gamma"].passed

    def test_a_band_wider_than_the_explosion_threshold_fails(self):
        sample = sample_hemisphere(**self.SAMPLE)
        sandwich = certify_sandwich(sample, M2, explosion_threshold=1.5)
        assert sandwich.empirical_max / sandwich.empirical_min > 1.5
        assert not sandwich.passed
        assert "homogeneity_deviation" not in sandwich.extras
        certs = _by_name(certify_weight_bounds(sample, M2, explosion_threshold=1.5))
        assert not certs["weight_over_lambda_far"].passed
        # a band inside the threshold (max/min ~ 1.003 near the roots) and no band at all still pass
        assert certs["weight_over_root_distance"].passed
        assert certs["weight_over_gamma"].passed
        assert all(c.passed for c in certify_weight_bounds(sample, M2))

    def test_an_empty_stratum_fails_with_a_reason(self):
        sample = sample_hemisphere(64, SampleStrategy.UNIFORM_ANGULAR, 0.5, M2, seed=0)
        certs = _by_name(certify_weight_bounds(sample, M2))
        empty = certs["weight_over_root_distance"]
        assert not empty.passed
        assert empty.sample_size == 0
        assert np.isnan(empty.empirical_min) and np.isnan(empty.empirical_max)
        assert empty.extras == {"reason": "empty stratum"}
        assert all(c.passed for name, c in certs.items() if name != "weight_over_root_distance")
        # the sandwich has no stratum of its own to lose: an empty near-root band is recorded, not failed
        sandwich = certify_sandwich(sample, M2)
        assert sandwich.passed and sandwich.extras["near_root_count"] == 0

    def test_the_sandwich_near_root_band_fails(self, monkeypatch):
        def flattened(freqs, params):
            return np.where(hemisphere._in_root_tubes(freqs, params), 0.0, symbols.big_sigma(freqs, params))

        monkeypatch.setattr(hemisphere, "big_sigma", flattened)
        cert = certify_sandwich(sample_hemisphere(**self.SAMPLE), M2)
        assert cert.extras["near_root_count"] > 0
        assert cert.extras["near_root_min"] == 0.0
        assert not cert.passed
        assert "homogeneity_deviation" not in cert.extras

    def test_the_simple_root_band_fails(self, monkeypatch):
        delta0 = root_points(M2)[0][1]

        def lopsided(freqs, params):
            return symbols.big_sigma(freqs, params) * np.where(freqs.delta > delta0, 3.0, 1.0)

        monkeypatch.setattr(hemisphere, "big_sigma", lopsided)
        cert = certify_simple_root(M2)
        assert cert.extras["band_ratio"] > hemisphere._BAND_LIMIT
        assert cert.extras["center_drift"] <= hemisphere._DRIFT_LIMIT
        assert not cert.passed

    def test_the_simple_root_drift_fails(self, monkeypatch):
        # an extra factor sqrt(distance to the root) mimics a zero of order 3/2
        _, delta0, _ = root_points(M2)[0]

        def steeper(freqs, params):
            return symbols.big_sigma(freqs, params) * np.sqrt(np.hypot(freqs.gamma, freqs.delta - delta0) / 1e-3)

        monkeypatch.setattr(hemisphere, "big_sigma", steeper)
        cert = certify_simple_root(M2)
        assert cert.extras["band_ratio"] <= hemisphere._BAND_LIMIT
        assert cert.extras["center_drift"] > hemisphere._DRIFT_LIMIT
        assert not cert.passed
