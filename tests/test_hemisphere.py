"""Hemisphere sampling, bound certificates, root location."""

import functools
import hashlib
import json
import warnings

import numpy as np
import pytest

from vsheet import chunks, hemisphere, symbols
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

    @pytest.mark.parametrize("shape", [(), (2, chunks.CHUNK // 2 + 5)], ids=["0-d", "2-d"])
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


class TestOwnedSequence:
    """The scrambled sequence is scipy's ``qmc.Halton(d=2, scramble=True, seed=seed)``, computed in numpy."""

    # both table widths (2**17 in base 2, 3**11 in base 3) and the chunk seams
    SIZES = [1, 7, 2**17 - 1, 2**17, 2**17 + 1, 3**11 + 1, 4 * 2**17 + 5, 10**6]

    @staticmethod
    @functools.cache
    def _scipy_points(seed: int) -> np.ndarray:
        from scipy.stats import qmc

        try:
            engine = qmc.Halton(d=2, scramble=True, seed=seed)
        except TypeError:
            pytest.skip("scipy's qmc.Halton no longer accepts seed=, the keyword whose points are reproduced")
        return engine.random(max(TestOwnedSequence.SIZES))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 102])
    def test_equals_scipy_halton_bit_for_bit(self, seed, n):
        # a fresh engine's random(n) is the head of its random(10**6): point i depends on i alone
        got = hemisphere._sequence(SampleStrategy.QUASI_RANDOM, seed)(0, n).T
        ref = self._scipy_points(seed)[:n]
        assert got.shape == (n, 2)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_first_points_are_pinned(self):
        pinned = [
            ["0x1.3b5fbfb83847cp-3", "0x1.58ec7ebfd04fep-1"],
            ["0x1.4ed7efee0e11fp-1", "0x1.5c83a82a4b49ep-2"],
            ["0x1.9dafdfdc1c23ep-2", "0x1.cb94b53d7d29ep-8"],
            ["0x1.ced7efee0e11fp-1", "0x1.cab39b31976c5p-1"],
        ]
        got = hemisphere._sequence(SampleStrategy.QUASI_RANDOM, 1)(0, 4).T
        assert [[x.hex() for x in row] for row in got.tolist()] == pinned

    @pytest.mark.parametrize("n, m", [(2**17 - 1, 2**17 + 1), (3**11 - 1, 3**11 + 2), (5, 2 * 2**17 + 3)])
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_prefixes_are_nested_across_the_seams(self, strategy, n, m):
        small = sample_hemisphere(n, strategy, 1e-6, M2, seed=2)
        big = sample_hemisphere(m, strategy, 1e-6, M2, seed=2)
        for a, b in zip(_rows(small), _rows(big)):
            np.testing.assert_array_equal(a.view(np.uint64), b[:n].view(np.uint64))

    @pytest.mark.parametrize("chunk", [1000, 777], ids=["chunk1000", "chunk777"])
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_samples_do_not_depend_on_the_chunk(self, strategy, chunk, monkeypatch):
        # 1000 and 777 give stratified chunks of 250 and 194 strata, whose offsets are not multiples of R = 4
        n = 10_007
        reference = _rows(sample_hemisphere(n, strategy, 1e-6, M2, seed=102))
        monkeypatch.setattr(chunks, "CHUNK", chunk)
        for a, b in zip(reference, _rows(sample_hemisphere(n, strategy, 1e-6, M2, seed=102))):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_samples_do_not_depend_on_the_thread_count(self, strategy, monkeypatch):
        n = 3 * 2**17 + 3**11 + 1
        samples = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VFS_THREADS", threads)
            samples.append(_rows(sample_hemisphere(n, strategy, 1e-6, M2, seed=102)))
        for a, b in zip(*samples):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSampleCheck:
    """Each sampler chunk raises on a point off the unit sphere or below the floor, also under python -O."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda g, d, e: (1.01 * g, 1.01 * d, 1.01 * e), "off the unit sphere"),
            (lambda g, d, e: (-g, d, e), "below gamma_floor"),
        ],
        ids=["off-sphere", "below-floor"],
    )
    @pytest.mark.parametrize(
        "strategy, mapper",
        [(s, "_zone_points") for s in SampleStrategy] + [(SampleStrategy.STRATIFIED_NEAR_ROOTS, "_near_root_points")],
    )
    def test_a_bad_point_raises(self, strategy, mapper, edit, message, monkeypatch):
        real = getattr(hemisphere, mapper)

        def zone(u, floor, out):
            real(u, floor, out)
            out[:, -1, -1] = edit(*out[:, -1, -1])
            return out

        def tube(*args):
            g, d, e = (np.array(x) for x in real(*args))
            g[-1], d[-1], e[-1] = edit(g[-1], d[-1], e[-1])
            return g, d, e

        monkeypatch.setattr(hemisphere, mapper, zone if mapper == "_zone_points" else tube)
        with pytest.raises(RuntimeError, match=message):
            sample_hemisphere(1001, strategy, 1e-6, M2, seed=0)


class TestStratifiedCoverage:
    """Tube and zone points are two prefixes of one sequence, so neither aliases with the stride of 4."""

    N = 200_000

    @staticmethod
    @functools.cache
    def _sample(seed: int, mach: float) -> HemisphereSample:
        return sample_hemisphere(TestStratifiedCoverage.N, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6,
                                 PhysicalParams(v=mach, c=1.0), seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 102])
    def test_zone_points_fill_every_gamma_band(self, seed):
        # gamma is the zone map of the base-2 coordinate; a zone drawn at every
        # 4th index but one would leave whole eighths of [0, 1] empty
        zone = np.ones(self.N, dtype=bool)
        zone[:: hemisphere._STRATUM_EVERY] = False
        counts, _ = np.histogram(self._sample(seed, 2.0).freqs.gamma[zone], bins=8, range=(0.0, 1.0))
        assert np.all(np.abs(counts - counts.mean()) <= 0.1 * counts.mean()), counts

    @pytest.mark.parametrize("mach", [2.0, 1.0], ids=["weakly_stable", "elliptic"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 102])
    def test_each_root_tube_is_filled_out_to_its_radius(self, seed, mach):
        sample, roots = self._sample(seed, mach), root_points(PhysicalParams(v=mach, c=1.0))
        tube = np.column_stack([row[:: hemisphere._STRATUM_EVERY] for row in _rows(sample)])
        owner = np.arange(len(tube)) % len(roots)
        rho = np.arccos(np.clip(np.sum(tube * roots[owner], axis=1), -1.0, 1.0)) / TUBE_RADIUS
        reach = [float(np.max(rho[owner == k])) for k in range(len(roots))]
        assert min(reach) > 0.95, reach


def _rows(sample: HemisphereSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return sample.freqs.gamma, sample.freqs.delta, sample.freqs.eta


class TestPinnedCertifyOutput:
    """Samples and sample certificates at n = 2**17 + 5, seed 3, M = 2, pinned bit for bit."""

    N = 2**17 + 5

    # sha256 of the gamma, delta and eta bytes, in that order
    SAMPLES = {
        SampleStrategy.UNIFORM_ANGULAR: "10e9ef58ac52d6903d0918750c3a9764ea54284d76fab2727936045f197ac701",
        SampleStrategy.STRATIFIED_NEAR_ROOTS: "a03a22d1af512e6f873acdebcd4bc8d6d9713b4394c65bd1b06253304d22b59f",
        SampleStrategy.QUASI_RANDOM: "5759e7c460b4aa531da9e000ef2c47e3de1e1d4b2a24e2748e6d8be8ee174c09",
    }

    # (empirical_min, empirical_max, sample_size) of the five sample certificates;
    # the sandwich's near_root_count is listed separately
    CERTS = {
        SampleStrategy.UNIFORM_ANGULAR: (325, [
            ("0x1.9029400346cb8p-3", "0x1.e65d9739f9dd4p+2", 131077),
            ("0x1.0000684bb7d4fp+0", "0x1.4fab053fb841ep+17", 131077),
            ("0x1.84304418be7f8p-9", "0x1.ffffffff8dee0p-1", 131077),
            ("0x1.5c69708d1ec7ep+0", "0x1.5eab0992d0b83p+0", 325),
            ("0x1.1df1cd01d8a63p-4", "0x1.ffffffff8dee0p-1", 130752),
        ]),
        SampleStrategy.STRATIFIED_NEAR_ROOTS: (33022, [
            ("0x1.3c90a9ebfc64bp-3", "0x1.03b47ccc649d6p+3", 131077),
            ("0x1.00006b8b25719p+0", "0x1.6ca81788d118cp+16", 131077),
            ("0x1.610b16e63a763p-19", "0x1.ffffffff73447p-1", 131077),
            ("0x1.5c621dd310d8ap+0", "0x1.5eacf3a60c42cp+0", 33022),
            ("0x1.1d40af7a4089fp-4", "0x1.ffffffff73447p-1", 98055),
        ]),
        SampleStrategy.QUASI_RANDOM: (331, [
            ("0x1.3c90a9ebfc64bp-3", "0x1.ef35fca19c083p+2", 131077),
            ("0x1.00006b8b25719p+0", "0x1.07c6169ee3063p+18", 131077),
            ("0x1.5bc67d6cf35c4p-8", "0x1.ffffffff73447p-1", 131077),
            ("0x1.5c621e7cd209bp+0", "0x1.5ea8a5c6141f1p+0", 331),
            ("0x1.1ab7958ba8444p-4", "0x1.ffffffff73447p-1", 130746),
        ]),
    }

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_sample_and_certificates_are_pinned(self, strategy):
        sample = sample_hemisphere(self.N, strategy, 1e-6, M2, seed=3)
        digest = hashlib.sha256()
        for row in _rows(sample):
            digest.update(np.ascontiguousarray(row).tobytes())
        assert digest.hexdigest() == self.SAMPLES[strategy]
        sandwich = certify_sandwich(sample, M2, seed=3)
        certs = [sandwich] + certify_weight_bounds(sample, M2)
        near_count, pinned = self.CERTS[strategy]
        assert [(c.empirical_min.hex(), c.empirical_max.hex(), c.sample_size) for c in certs] == pinned
        assert all(c.passed for c in certs)
        assert sandwich.extras["near_root_count"] == near_count
        assert sandwich.extras["homogeneity_deviation"] == 0.0


class TestRootTubeMask:
    """``_in_root_tubes`` against its definition: arccos of the largest dot product with a root point."""

    @staticmethod
    @functools.cache
    def _sample(mach: float) -> HemisphereSample:
        return sample_hemisphere(10**6, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, PhysicalParams(v=mach, c=1.0), seed=1)

    @staticmethod
    def _across_the_boundary(params: PhysicalParams) -> np.ndarray:
        """(3, 64 R) points at angular distance TUBE_RADIUS * (1 - 1e-9), then (1 + 1e-9), from each root point."""
        alpha = np.linspace(0.0, np.pi, 32)[:, None]
        points = []
        for radius in TUBE_RADIUS * np.array([1.0 - 1e-9, 1.0 + 1e-9]):
            for root in root_points(params):
                # a unit tangent at the root in each direction with gamma >= 0 (roots have gamma = 0)
                e1 = np.cross(root, [1.0, 0.0, 0.0])
                tangent = np.cos(alpha) * e1 / np.linalg.norm(e1) + np.sin(alpha) * [1.0, 0.0, 0.0]
                points.append(np.cos(radius) * root + np.sin(radius) * tangent)
        return np.concatenate(points).T

    @pytest.mark.parametrize("mach", [1.415, 2.0, 3.0])
    def test_equals_the_arccos_of_the_largest_dot_product(self, mach, monkeypatch):
        params, sample = PhysicalParams(v=mach, c=1.0), self._sample(mach)
        across = self._across_the_boundary(params)
        g, d, e = np.concatenate([np.stack(_rows(sample)), across], axis=1)
        freqs = Frequency(g, d, e)
        dots = functools.reduce(np.maximum, (g * r[0] + d * r[1] + e * r[2] for r in root_points(params)))
        angle = np.arccos(np.clip(dots, -1.0, 1.0))
        # the points just inside a tube are in it
        assert np.all(hemisphere._in_root_tubes(freqs, params)[len(sample) :][: across.shape[1] // 2])
        # the tube radius, then radii that put sample points exactly on the boundary of the tube
        for radius in [TUBE_RADIUS, *np.quantile(angle, [0.01, 0.1, 0.25], method="nearest")]:
            monkeypatch.setattr(hemisphere, "TUBE_RADIUS", radius)
            mask = hemisphere._in_root_tubes(freqs, params)
            np.testing.assert_array_equal(mask, angle <= radius)
            assert 0 < np.count_nonzero(mask) < len(mask)


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

    @staticmethod
    def _reference(sample: HemisphereSample) -> tuple[dict, np.ndarray]:
        """Each sample certificate's values, unchunked, with the sample indices they sit at; and the tube mask."""
        f = sample.freqs
        g, d, e = np.asarray(f.gamma), np.asarray(f.delta), np.asarray(f.eta)
        # the module's symbols, so that a test's patch reaches the reference too
        wabs = np.abs(hemisphere.weight_sigma(f, M2))
        lam = np.asarray(f.lam)
        dots = np.column_stack([g, d, e]) @ root_points(M2).T
        near = np.arccos(np.clip(dots.max(axis=1), -1.0, 1.0)) <= TUBE_RADIUS
        cy = M2.c * root_constants(M2)
        tau = g + 1j * d
        dist = np.minimum(np.abs(tau - 1j * cy * e), np.abs(tau + 1j * cy * e))
        every = np.arange(len(sample))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(hemisphere.big_sigma(f, M2)) / (wabs * lam)
            return {
                "abs_sigma_big_over_weight_lambda": (ratio, every),
                "weight_over_gamma": (wabs / g, every),
                "weight_over_lambda": (wabs / lam, every),
                "weight_over_root_distance": (wabs[near] / dist[near], every[near]),
                "weight_over_lambda_far": ((wabs / lam)[~near], every[~near]),
            }, near

    def test_extrema_match_unchunked_reference(self, monkeypatch):
        monkeypatch.setattr(chunks, "CHUNK", 1000)  # four full chunks and a partial one
        sample = sample_hemisphere(4321, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=5)
        expected, near = self._reference(sample)
        ratio = expected["abs_sigma_big_over_weight_lambda"][0]
        sandwich = certify_sandwich(sample, M2)
        certs = [sandwich] + certify_weight_bounds(sample, M2)
        assert [c.ratio_name for c in certs] == list(expected)
        for cert in certs:
            values, _ = expected[cert.ratio_name]
            assert cert.empirical_min == np.min(values), cert.ratio_name
            assert cert.empirical_max == np.max(values), cert.ratio_name
            assert cert.sample_size == values.size, cert.ratio_name
        assert sandwich.extras["near_root_count"] == np.count_nonzero(near)
        assert sandwich.extras["near_root_min"] == np.min(ratio[near])
        assert sandwich.extras["near_root_max"] == np.max(ratio[near])
        # the largest |sigma| / Lambda is the weight_over_lambda certificate's maximum, checked above
        assert "weight_over_lambda_max" not in sandwich.extras
        assert sandwich.extras["homogeneity_deviation"] == 0.0

    @pytest.mark.parametrize("plant", ["none", "ties", "nan"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_recorded_point_is_the_reference_argmin_or_argmax(self, plant, threads, monkeypatch):
        sample = sample_hemisphere(4321, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=5)
        # a tube point and a zone point outside the tubes, so that each stratum holds a NaN
        marked = sample.freqs.gamma[[1500, 2702]]
        if plant == "ties":
            # ties at 0 for the least ratios, and at inf for the largest, spread over every chunk
            monkeypatch.setattr(
                hemisphere, "big_sigma", lambda freqs, params: np.where(freqs.eta > 0.5, 0.0, symbols.big_sigma(freqs, params))
            )
            # the weight is inf at delta > 0.6 and 0 at delta < -0.6, eta < 0, away from the zeros of Sigma
            _patched_weight(
                monkeypatch,
                lambda f, w: np.where(f.delta > 0.6, np.inf, np.where((f.delta < -0.6) & (f.eta < 0.0), 0.0, w)),
            )
        elif plant == "nan":
            _patched_weight(monkeypatch, lambda freqs, w: np.where(np.isin(freqs.gamma, marked), np.nan, w))
        monkeypatch.setattr(chunks, "CHUNK", 1000)
        monkeypatch.setattr(chunks, "BLOCK", 777)
        monkeypatch.setenv("VFS_THREADS", threads)
        expected, _ = self._reference(sample)
        certs = [certify_sandwich(sample, M2)] + certify_weight_bounds(sample, M2)
        points = np.column_stack(_rows(sample))
        for cert in certs:
            values, index = expected[cert.ratio_name]
            if plant == "ties":
                assert np.count_nonzero(values == np.min(values)) > 1 or np.count_nonzero(values == np.max(values)) > 1
            if plant == "nan":
                assert np.isnan(cert.empirical_min) and np.isnan(cert.empirical_max), cert.ratio_name
            # each recorded point is the sample point at the reference index, bit for bit
            for key, arg in (("min_point", np.argmin), ("max_point", np.argmax)):
                assert getattr(cert, key) == points[index[arg(values)]].tolist(), (cert.ratio_name, key)
            record = cert.to_json_dict()
            assert record["min_point"] == cert.min_point and record["max_point"] == cert.max_point

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_scan_locates_like_numpy_with_ties_and_a_nan(self, threads, monkeypatch):
        monkeypatch.setenv("VFS_THREADS", threads)
        monkeypatch.setattr(chunks, "CHUNK", 1000)
        monkeypatch.setattr(chunks, "BLOCK", 777)
        rng = np.random.default_rng(4)
        # 40 distinct values over 4321 points: every extremum is tied across chunks and blocks
        values = rng.integers(0, 40, 4321).astype(float)
        mask = rng.random(values.size) < 0.3
        none = np.zeros(values.size, dtype=bool)
        for planted in (values, np.where(np.isin(np.arange(values.size), [2100, 3333]), np.nan, values)):
            whole, masked, empty = chunks.scan_extrema(
                lambda lo, hi: [planted[lo:hi], (planted[lo:hi], mask[lo:hi]), (planted[lo:hi], none[lo:hi])],
                values.size,
            )
            sub, at = planted[mask], np.flatnonzero(mask)
            assert whole.argmin == np.argmin(planted) and whole.argmax == np.argmax(planted)
            assert masked.argmin == at[np.argmin(sub)] and masked.argmax == at[np.argmax(sub)]
            assert (whole.count, masked.count) == (values.size, np.count_nonzero(mask))
            # min and max are the values at their indices, a NaN included
            for found, ref in ((whole, planted), (masked, sub)):
                np.testing.assert_array_equal([found.min, found.max], [np.min(ref), np.max(ref)])
            # an empty part has no location
            assert empty == (0, np.inf, None, -np.inf, None)

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


class TestScanBlocks:
    """The block size inside a scan chunk moves no certificate and no located point."""

    N = 2**17 + 4321  # two chunks

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_scan_and_the_sampler_cut_at_the_sizes_in_chunks(self, threads, monkeypatch):
        # chunks.CHUNK and BLOCK are read at call time, so the patched sizes are the ones cut
        monkeypatch.setenv("VFS_THREADS", threads)
        monkeypatch.setattr(chunks, "CHUNK", 1000)
        monkeypatch.setattr(chunks, "BLOCK", 777)
        spans = []
        chunks.scan_extrema(lambda lo, hi: spans.append((lo, hi)) or [np.zeros(hi - lo)], 2500)
        assert sorted(spans) == [(0, 777), (777, 1000), (1000, 1777), (1777, 2000), (2000, 2500)]
        cuts, map_chunks = [], hemisphere.map_chunks

        def spy(fn, size, chunk):
            cuts.append(chunk)
            return map_chunks(fn, size, chunk)

        monkeypatch.setattr(hemisphere, "map_chunks", spy)
        sample_hemisphere(5000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        sample_hemisphere(5000, SampleStrategy.QUASI_RANDOM, 1e-6, M2, seed=0)
        # 1000 points per chunk: 250 strata of four points, or 1000 strata of one
        assert cuts == [250, 1000]

    @staticmethod
    @functools.cache
    def _sample() -> HemisphereSample:
        return sample_hemisphere(TestScanBlocks.N, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=7)

    @staticmethod
    def _records(sample: HemisphereSample) -> list[dict]:
        return [c.to_json_dict() for c in [certify_sandwich(sample, M2, seed=7), *certify_weight_bounds(sample, M2)]]

    # 1000 and 777 are not multiples of R = 4, so blocks start inside strata
    @pytest.mark.parametrize("block", [1000, 777])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_certificates_equal_the_default_blocks(self, block, threads, monkeypatch):
        sample = self._sample()
        default = self._records(sample)
        monkeypatch.setattr(chunks, "BLOCK", block)
        monkeypatch.setenv("VFS_THREADS", threads)
        blocked = self._records(sample)
        # repr round-trips every double, so equal dumps are equal bits, the located points included
        assert json.dumps(blocked) == json.dumps(default)
        assert len(blocked) == 5 and all(c["pass"] and "min_point" in c and "max_point" in c for c in blocked)


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
        # |sigma| <= max(1, (c Y2)^2) Lambda; a weight twice too large breaks it (max 2 > 1)
        sample = sample_hemisphere(2000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        monkeypatch.setattr(hemisphere, "weight_sigma", lambda freq, params: 2.0 * weight_sigma(freq, params))
        cert = next(c for c in certify_weight_bounds(sample, M2) if c.ratio_name == "weight_over_lambda")
        assert cert.empirical_max > weight_bound_constant(M2)
        assert not cert.passed

    def test_weight_over_lambda_bound_is_the_exact_sup(self, monkeypatch):
        # at M = 2 the sup is 1 and the sample reaches it; 1.5 times the weight stays below the
        # Cauchy-Schwarz 1 + (c Y2)^2 = 1.877 but not below the exact bound
        assert weight_bound_constant(M2) == 1.0 and (M2.c * Y2_M2) ** 2 < 1.0
        sample = sample_hemisphere(2000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        cert = next(c for c in certify_weight_bounds(sample, M2) if c.ratio_name == "weight_over_lambda")
        assert cert.passed and 1.0 - 1e-6 < cert.empirical_max <= 1.0 + 1e-12
        monkeypatch.setattr(hemisphere, "weight_sigma", lambda freq, params: 1.5 * weight_sigma(freq, params))
        cert = next(c for c in certify_weight_bounds(sample, M2) if c.ratio_name == "weight_over_lambda")
        assert 1.0 < cert.empirical_max < 1.0 + (M2.c * Y2_M2) ** 2
        assert not cert.passed

    def test_weight_bound_above_one_is_the_tau_zero_ratio(self):
        # at M = 3, (c Y2)^2 > 1 is attained at tau = 0
        params = PhysicalParams(v=3.0, c=1.0)
        assert weight_bound_constant(params) == (params.c * root_constants(params)) ** 2 > 1.0
        assert abs(weight_sigma(Frequency(0.0, 0.0, 1.0), params)) == pytest.approx(weight_bound_constant(params), rel=1e-14)


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


def _vanishing_on_one_arc_point(monkeypatch, radius: float) -> None:
    """Make ``hemisphere.big_sigma`` vanish at one point of the default 360-point simple-root arc of ``radius``."""
    _, delta0, _ = root_points(M2)[0]
    # the arc as certify_simple_root lays it out, so the chosen point matches bit for bit
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 360)
    gamma, delta = (radius * np.cos(phi))[120], (delta0 + radius * np.sin(phi))[120]

    def vanishing(freqs, params):
        return np.where((freqs.gamma == gamma) & (freqs.delta == delta), 0.0, symbols.big_sigma(freqs, params))

    monkeypatch.setattr(hemisphere, "big_sigma", vanishing)


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

    @pytest.mark.parametrize("shrink", [1.0, hemisphere._SHRINK], ids=["outer", "inner"])
    def test_a_zero_simple_root_band_fails_with_a_reason(self, monkeypatch, shrink):
        _vanishing_on_one_arc_point(monkeypatch, 1e-3 * shrink)
        cert = certify_simple_root(M2, radius=1e-3)
        assert not cert.passed
        assert cert.extras == {"radius": 1e-3, "reason": f"zero band: |Sigma| vanishes on the arc of radius {1e-3 * shrink:g}"}
        assert (cert.empirical_min == 0.0) == (shrink == 1.0)
