"""Hemisphere sampling, bound certificates, root location."""

import functools
import hashlib
import inspect
import json
import math

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
    Regime,
    big_sigma,
    glancing_gap,
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

    @pytest.mark.parametrize("n", [0, -3, hemisphere.MAX_SAMPLE + 1, 10**12])
    def test_a_sample_size_out_of_range_is_rejected(self, n):
        # 10**12 points made only tables, and started scans of days
        with pytest.raises(ValueError, match="sample size must be from 1 to 1000000000"):
            sample_hemisphere(n, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)

    def test_the_largest_sample_is_tables_alone(self):
        sample = sample_hemisphere(hemisphere.MAX_SAMPLE, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)
        assert len(sample) == 10**9 and sum(t.nbytes for pair in _tables(sample) for t in pair) < 2**21
        assert np.all(sample.points(10**9 - 3, 10**9).gamma > 0.0)

    def test_the_strategy_and_the_seed_select_the_same_grid(self):
        # both names of [sample] strategy select the grid, and no point reads the seed
        a = sample_hemisphere(1000, SampleStrategy.UNIFORM_ANGULAR, 1e-6, M2, seed=0)
        b = sample_hemisphere(1000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=1)
        for x, y in zip(_rows(a), _rows(b)):
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize("mach", [1.5, 2.0, 3.0])
    def test_the_floor_row_opens_with_the_glancing_azimuths(self, mach):
        params = PhysicalParams(v=mach, c=1.0)
        sample = sample_hemisphere(4, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params)
        g, d, e = _rows(sample)
        assert np.all(g == 1e-6)
        np.testing.assert_allclose(d[:2] / e[:2], [params.v + params.c, params.v - params.c], rtol=4e-16)
        # then the edges of the quadrant, eta = 0 and delta = 0
        assert e[2] == 0.0 and d[3] < 1e-16
        # without params, or outside the weakly stable regime, the grid has the edge azimuths alone
        for params in (None, ELL):
            plain = sample_hemisphere(2, SampleStrategy.UNIFORM_ANGULAR, 1e-6, params)
            np.testing.assert_array_equal(np.stack(_rows(plain)), np.stack(_rows(sample))[:, 2:])

    @pytest.mark.parametrize("mach, floor, kept", [(15.0, 1e-6, 2), (50.0, 1e-6, 1), (15.0, 1e-5, 1), (50.0, 1e-9, 2)])
    def test_a_glancing_azimuth_within_the_floor_of_the_root_azimuth_is_left_out(self, mach, floor, kept):
        # delta = (v - c) eta is 3.0e-6 from the root azimuth at M = 15 and 2.1e-8 at M = 50
        params = PhysicalParams(v=mach, c=1.0)
        g, d, e = _rows(sample_hemisphere(4, SampleStrategy.STRATIFIED_NEAR_ROOTS, floor, params))
        np.testing.assert_allclose(d[:kept] / e[:kept], [params.v + params.c, params.v - params.c][:kept], rtol=4e-16)
        assert e[kept] == 0.0

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


class TestNestedGrid:
    """One grid, listed level by level: any prefix is a sample, and any cut of it into blocks makes the same points."""

    # at M = 2 level 9 ends at 394752 and level 10 at 1575936; level 9's root grid columns end at 197376
    @pytest.mark.parametrize(
        "n, m", [(2**17 - 1, 2**17 + 1), (394751, 394753), (197375, 197377), (5, 2 * 2**17 + 3), (1, 10**6)],
    )
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_prefixes_are_nested_across_chunk_and_level_seams(self, strategy, n, m):
        small = sample_hemisphere(n, strategy, 1e-6, M2)
        big = sample_hemisphere(m, strategy, 1e-6, M2)
        for a, b in zip(_rows(small), _rows(big)):
            np.testing.assert_array_equal(a.view(np.uint64), b[:n].view(np.uint64))

    @pytest.mark.parametrize("chunk", [1000, 777], ids=["chunk1000", "chunk777"])
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_samples_do_not_depend_on_the_chunk(self, strategy, chunk, monkeypatch):
        # chunk and block sizes that cut grid rows and rectangles at no common seam
        n = 10_007
        reference = _rows(sample_hemisphere(n, strategy, 1e-6, M2))
        monkeypatch.setattr(chunks, "CHUNK", chunk)
        monkeypatch.setattr(chunks, "BLOCK", chunk // 3)
        for a, b in zip(reference, _rows(sample_hemisphere(n, strategy, 1e-6, M2))):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_samples_do_not_depend_on_the_thread_count(self, strategy, monkeypatch):
        n = 394753  # one point into level 10
        samples = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VFS_THREADS", threads)
            samples.append(_rows(sample_hemisphere(n, strategy, 1e-6, M2)))
        for a, b in zip(*samples):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("cut", [1, 777, 1000, chunks.BLOCK])
    def test_blocks_make_the_points_of_the_whole(self, cut):
        sample = sample_hemisphere(10_007, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)
        pieces = [sample.points(lo, min(lo + cut, len(sample))) for lo in range(0, len(sample), cut)]
        for k, whole in enumerate(_rows(sample)):
            joined = np.concatenate([(p.gamma, p.delta, p.eta)[k] for p in pieces])
            np.testing.assert_array_equal(joined.view(np.uint64), whole.view(np.uint64))

    def test_a_level_is_every_row_at_every_column(self):
        # level 3 at M = 3: 8 rows of gamma, graded toward 0, times 8 + 1 + 2 azimuths, then the root
        # grid's 4 rows times 8 azimuths, each point once
        # (at M = 2 the glancing azimuth delta = (v - c) eta is the grid's pi/4 azimuth, up to rounding)
        params = PhysicalParams(v=3.0, c=1.0)
        sample = sample_hemisphere(8 * 11 + 4 * 8, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params)
        assert np.unique(np.stack(_rows(sample)), axis=1).shape[1] == len(sample)
        assert np.min(np.stack(_rows(sample))[1:]) >= 0.0
        (rows, cols), (root_rows, root_cols) = _tables(sample)
        assert sum(r.shape[1] * c.shape[1] for _, r, c in sample.rects) == len(sample)
        gamma = np.sort(rows[0])
        assert gamma.size == 8 and gamma[0] == 1e-6 and gamma[-1] < 1.0
        # the steps in latitude grow away from gamma = 0
        assert np.all(np.diff(np.arcsin(gamma), 2) > 0)
        phi = np.arctan2(cols[1], cols[0])
        assert np.unique(np.round(phi, 12)).size == 11 and np.min(phi) == 0.0 and np.max(phi) == 0.5 * np.pi
        # the root grid: rows TUBE_RADIUS / 4 apart from the floor, azimuths TUBE_RADIUS / 4 apart on either side
        # of the root azimuth and never on it
        np.testing.assert_allclose(np.sort(root_rows[0]) - 1e-6, TUBE_RADIUS * np.arange(4) / 4 * (1 - 1e-6), atol=1e-17)
        offset = np.arctan2(root_cols[1], root_cols[0]) - math.atan2(1.0, params.c * root_constants(params))
        np.testing.assert_allclose(np.sort(offset), TUBE_RADIUS * np.array([-4, -3, -2, -1, 1, 2, 3, 4]) / 4, rtol=1e-12)

    def test_the_sample_holds_tables_not_points(self):
        # a 10**6-point sample keeps about 1000 rows and 1000 columns, and makes no batch until asked
        sample = sample_hemisphere(10**6, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)
        assert [t.shape for pair in _tables(sample) for t in pair] == [(2, 1024), (2, 1027), (2, 512), (2, 1024)]
        assert "freqs" not in vars(sample)


def _tables(sample: HemisphereSample) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (rows, cols) tables of the quadrant grid and, when it has one, of the root grid, in the order the sample lists them."""
    tables = []
    for _, rows, cols in sample.rects:
        if all(rows.base is not r for r, _ in tables):
            tables.append((rows.base, cols.base))
    return tables


class TestSampleCheck:
    """Every block of points raises on a point off the unit sphere or below the floor, also under python -O."""

    # a whole level, so that the last row and the last column of each table hold points of the sample
    N = 32 * 35 + 16 * 32

    @pytest.mark.parametrize(
        "table, edit, message",
        [
            ("_row_table", lambda gamma, radius: (gamma, 1.01 * radius), "off the unit sphere"),
            ("_row_table", lambda gamma, radius: (-gamma, radius), "below gamma_floor"),
            ("_column_table", lambda cos, sin: (1.01 * cos, 1.01 * sin), "off the unit sphere"),
        ],
        ids=["row-off-sphere", "row-below-floor", "column-off-sphere"],
    )
    # the first row and column of a table (the floor row, a glancing azimuth or the first root grid azimuth)
    # open its points; the last ones close them
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_a_bad_point_raises(self, at, table, edit, message, monkeypatch):
        real = getattr(hemisphere, table)

        def edited(*args):
            out = real(*args)
            out[:, at] = edit(*out[:, at])
            return out

        monkeypatch.setattr(hemisphere, table, edited)
        sample = sample_hemisphere(self.N, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)
        assert sum(rows.shape[1] * cols.shape[1] for _, rows, cols in sample.rects) == len(sample)
        for scan in (lambda: sample.freqs, lambda: certify_sandwich(sample, M2), lambda: certify_weight_bounds(sample, M2)):
            with pytest.raises(RuntimeError, match=message):
                scan()


def _rows(sample: HemisphereSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return sample.freqs.gamma, sample.freqs.delta, sample.freqs.eta


class TestPinnedCertifyOutput:
    """The sample and its certificates at n = 2**17 + 5, M = 2, pinned bit for bit; both strategies select the grid."""

    N = 2**17 + 5

    # sha256 of the gamma, delta and eta bytes, in that order
    SAMPLE = "3820b6f7297ca460c339d0e5a8050dfae78cd2723940d9f5a9d72af3a170ce76"

    # (empirical_min, empirical_max, sample_size) of the five sample certificates;
    # the sandwich's near_root_count is listed separately
    NEAR_COUNT = 26742
    CERTS = [
        ("0x1.fca70560a8cccp-4", "0x1.031107e6f17adp+3", 131077),
        ("0x1.0003b49f47524p+0", "0x1.e848000000000p+19", 131077),
        ("0x1.7f8d1043a7440p-11", "0x1.0000000000002p+0", 131077),
        ("0x1.5c63e4df5fb61p+0", "0x1.5eaca7409f6c2p+0", 26742),
        ("0x1.199aa88cb3203p-4", "0x1.0000000000002p+0", 104335),
    ]

    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_sample_and_certificates_are_pinned(self, strategy):
        sample = sample_hemisphere(self.N, strategy, 1e-6, M2, seed=3)
        digest = hashlib.sha256()
        for row in _rows(sample):
            digest.update(np.ascontiguousarray(row).tobytes())
        assert digest.hexdigest() == self.SAMPLE
        sandwich = certify_sandwich(sample, M2, seed=3)
        certs = [sandwich] + certify_weight_bounds(sample, M2)
        assert [(c.empirical_min.hex(), c.empirical_max.hex(), c.sample_size) for c in certs] == self.CERTS
        assert all(c.passed for c in certs)
        assert sandwich.extras["near_root_count"] == self.NEAR_COUNT


class TestClosedBand:
    """The sandwich band of 10**6 grid points against the closed band sqrt(4M^2 + 1) -+ 2M."""

    @pytest.mark.parametrize("mach", [1.42, 1.5, 2.0, 2.5, 3.0])
    def test_the_band_stays_inside_and_reaches_within_two_percent(self, mach):
        # the stratified Halton sample of 10**6 points (seed 0) read 0.1642 at M = 2, 33.4 % above the low end 0.1231
        params = PhysicalParams(v=mach, c=1.0)
        low, high = symbols.sandwich_band(params)
        cert = certify_sandwich(sample_hemisphere(10**6, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params), params)
        assert cert.empirical_min >= low * (1.0 - 1e-7) and cert.empirical_max <= high * (1.0 + 1e-7)
        assert cert.empirical_min <= 1.02 * low and cert.empirical_max >= high / 1.02
        # each end sits on the floor row, at or next to its glancing azimuth: delta = (v + c) eta for the low end
        for point, slope in ((cert.min_point, mach + 1.0), (cert.max_point, mach - 1.0)):
            assert point[0] == 1e-6 and point[1] / point[2] == pytest.approx(slope, rel=1e-3)


class TestGridCoverage:
    """The grid's points reach every band of gamma and azimuth, and fill each root tube out to its radius."""

    @pytest.mark.parametrize("n", [1000, 10**4, 2**17 + 5, 10**6])
    def test_points_fill_every_gamma_and_azimuth_band(self, n):
        g, d, e = _rows(sample_hemisphere(n, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2))
        rows, _ = np.histogram(np.unique(g), bins=8, range=(0.0, 1.0))
        azimuths, _ = np.histogram(np.unique(np.round(np.arctan2(e, d), 12)), bins=8, range=(0.0, 0.5 * np.pi))
        assert np.all(rows > 0) and np.all(azimuths > 0), (rows, azimuths)
        # the rows are graded toward gamma = 0: the eighth at the floor holds the most
        assert rows[0] == rows.max()

    @pytest.mark.parametrize("mach", [1.5, 2.0, 3.0, 1.0], ids=["1.5", "2.0", "3.0", "elliptic"])
    @pytest.mark.parametrize("n", [10**4, 2**17 + 5, 10**6])
    def test_each_root_tube_is_filled_out_to_its_radius(self, n, mach):
        params = PhysicalParams(v=mach, c=1.0)
        sample = sample_hemisphere(n, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params)
        # the quadrant's root point, and the angular distance of each sample point from it
        root = root_points(params)[0]
        # (from the chord, which resolves distances near gamma_floor that an arccos of the dot product cannot)
        rho = 2.0 * np.arcsin(0.5 * np.linalg.norm(np.stack(_rows(sample)) - root[:, None], axis=0))
        rho = rho[rho <= TUBE_RADIUS] / TUBE_RADIUS
        assert rho.max() > 0.99
        if params.regime() is Regime.WEAKLY_STABLE:
            # no column lies on the root azimuth, or within gamma_floor of it
            assert rho.min() * TUBE_RADIUS > 1e-6
        # every eighth of the radius beyond the nearest point holds points
        counts, _ = np.histogram(rho, bins=8, range=(0.0, 1.0))
        assert np.all(counts[int(8 * rho.min()) :] > 0), counts


    @pytest.mark.parametrize("mach", [1.5, 2.0, 3.0, 50.0])
    def test_the_root_tubes_hold_a_sixth_of_every_prefix(self, mach):
        # the stratified Halton sample put a quarter of its points in the root tubes; the grid with the root
        # azimuth as its only column near a root put 1394 of 131077 there at M = 2
        params = PhysicalParams(v=mach, c=1.0)
        sample = sample_hemisphere(10**6, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params)
        # the share of each prefix, which is that many points' sample, from 1000 points on
        share = np.cumsum(hemisphere._in_root_tubes(sample.freqs, params)) / np.arange(1, len(sample) + 1)
        assert share[999:].min() > 0.15 and share[-1] > 0.2

    @pytest.mark.parametrize("mach", [15.0, 50.0, 100.0])
    def test_no_point_comes_within_the_floor_of_a_root(self, mach):
        # a point gamma_floor above a root set weight_over_lambda's band to (c Y2)^2 / (2 gamma_floor) at large M
        params = PhysicalParams(v=mach, c=1.0)
        sample = sample_hemisphere(2**17 + 5, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, params)
        points = np.stack(_rows(sample))
        chord = min(np.linalg.norm(points - root[:, None], axis=0).min() for root in root_points(params))
        assert chord > 1e-6
        over_lambda = certify_weight_bounds(sample, params)[1]
        assert over_lambda.passed and over_lambda.empirical_max / over_lambda.empirical_min < 1e7


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
        object.__setattr__(sample, "points", lambda lo, hi: Frequency([1.0], [0.0], [0.0]))
        cert = certify_sandwich(sample, M2)
        assert cert.empirical_min == pytest.approx(1.0, rel=1e-12)
        assert cert.empirical_max == pytest.approx(1.0, rel=1e-12)

    def test_passes_at_moderate_size(self):
        sample = sample_hemisphere(10_000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        cert = certify_sandwich(sample, M2)
        assert cert.passed
        assert cert.empirical_min > 0
        assert cert.empirical_max / cert.empirical_min < 1e4
        assert cert.mach == pytest.approx(2.0)

    def test_the_seed_does_not_change_the_certificate(self):
        sample = sample_hemisphere(2000, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        record = certify_sandwich(sample, M2, seed=0).to_json_dict()
        assert certify_sandwich(sample, M2, seed=7).to_json_dict() == record
        assert "homogeneity_deviation" not in record["extras"]

    def test_rejects_elliptic(self):
        sample = sample_hemisphere(16, SampleStrategy.UNIFORM_ANGULAR, 1e-6, ELL, seed=0)
        with pytest.raises(ValueError):
            certify_sandwich(sample, ELL)

    def test_json_record_shape(self):
        sample = sample_hemisphere(128, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
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

    @pytest.mark.parametrize("plant", ["none", "ties", "nan"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_recorded_point_is_the_reference_argmin_or_argmax(self, plant, threads, monkeypatch):
        sample = sample_hemisphere(4321, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=5)
        # a point in the root tube and a point outside it, so that each stratum holds a NaN
        near = hemisphere._in_root_tubes(sample.freqs, M2)
        marked = [np.flatnonzero(near)[-1], np.flatnonzero(~near)[-1]]
        marked_g, marked_d = sample.freqs.gamma[marked], sample.freqs.delta[marked]
        if plant == "ties":
            # ties at 0 for the least ratios, and at inf for the largest, spread over every chunk
            monkeypatch.setattr(
                hemisphere, "big_sigma", lambda freqs, params: np.where(freqs.eta > 0.5, 0.0, symbols.big_sigma(freqs, params))
            )
            # the weight is inf at delta > 0.6 and 0 at delta, eta < 0.2, away from the zeros of Sigma
            _patched_weight(
                monkeypatch,
                lambda f, w: np.where(f.delta > 0.6, np.inf, np.where((f.delta < 0.2) & (f.eta < 0.2), 0.0, w)),
            )
        elif plant == "nan":
            _patched_weight(
                monkeypatch,
                lambda f, w: np.where(np.isin(f.gamma, marked_g) & np.isin(f.delta, marked_d), np.nan, w),
            )
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

    @pytest.mark.parametrize("floor", [0.0, 1.0, -1e-6, math.nan])
    def test_gamma_floor_zero_is_rejected(self, floor):
        # at gamma_floor = 0 the floor row would hold the root itself, where |Sigma| / (|sigma| Lambda) is 0/0
        with pytest.raises(ValueError, match=r"gamma_floor must lie in \(0, 1\)"):
            sample_hemisphere(64, SampleStrategy.STRATIFIED_NEAR_ROOTS, floor, M2)


class TestScanBlocks:
    """The chunk and block sizes of a scan move no certificate and no located point."""

    N = 2**17 + 4321  # two chunks

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_scan_cuts_and_builds_at_the_sizes_in_chunks(self, threads, monkeypatch):
        # chunks.CHUNK and BLOCK are read at call time, so the patched sizes are the ones cut
        monkeypatch.setenv("VFS_THREADS", threads)
        monkeypatch.setattr(chunks, "CHUNK", 1000)
        monkeypatch.setattr(chunks, "BLOCK", 777)
        spans = []
        chunks.scan_extrema(lambda lo, hi: spans.append((lo, hi)) or [np.zeros(hi - lo)], 2500)
        assert sorted(spans) == [(0, 777), (777, 1000), (1000, 1777), (1777, 2000), (2000, 2500)]
        # each scan builds exactly its blocks of sample points, and nothing more
        sample = sample_hemisphere(2500, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2)
        built, points = [], sample.points
        object.__setattr__(sample, "points", lambda lo, hi: built.append((lo, hi)) or points(lo, hi))
        certify_sandwich(sample, M2)
        certify_weight_bounds(sample, M2)
        # the blocks of each scan, and one point for each located minimum and maximum of its certificates
        located = [(lo, hi) for lo, hi in built if hi - lo == 1]
        assert sorted(set(built) - set(located)) == sorted(spans) and len(built) == 2 * len(spans) + len(located)
        assert len(located) == 2 * 5

    @staticmethod
    @functools.cache
    def _sample() -> HemisphereSample:
        return sample_hemisphere(TestScanBlocks.N, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=7)

    @staticmethod
    def _records(sample: HemisphereSample) -> list[dict]:
        return [c.to_json_dict() for c in [certify_sandwich(sample, M2, seed=7), *certify_weight_bounds(sample, M2)]]

    # blocks and chunks that start inside grid rows and across the grid's rectangles
    @pytest.mark.parametrize("chunk, block", [(2**17, 1000), (2**17, 777), (5000, 777)])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_certificates_equal_the_default_blocks(self, chunk, block, threads, monkeypatch):
        sample = self._sample()
        default = self._records(sample)
        monkeypatch.setattr(chunks, "CHUNK", chunk)
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

    # machs where a fixed +-20 % bracket holds the glancing point delta = v + c, where |Sigma| = c^2
    # is not a zero, so golden section could miss the root: vfs roots failed at the first seven, and
    # at M = 1e10 it returned 1e10 + 1; the rest are the 17 failures of np.geomspace(1.4143, 1e150, 601)
    GLANCING_MACHS = [
        15.0, 20.0, 50.0, 1000.0, 1e5, 1e6, 1e7, 1e10,
        44.569332100666735, 79.21095026448062, 250.19776062305516, 790.2811317346604, 1404.528999434012,
        4436.381702469082, 14012.870234743166, 24904.40657086394, 78663.7041074654, 248469.214727095,
        441592.4960586979, 1394825.50396034, 4405731.990155034, 7830097.537979057, 24732349.036607083,
        78120238.72009593, 138839377.93661264,
    ]

    @pytest.mark.parametrize("mach", GLANCING_MACHS)
    def test_the_bracket_stays_clear_of_the_glancing_points(self, mach):
        params = PhysicalParams(v=mach, c=1.0)
        cy = root_constants(params)
        assert abs(locate_roots(params) - cy) <= 1e-8 * cy
        assert glancing_gap(params) < 0.2 * cy  # so the gap, not the 20 %, sets the bracket

    def test_takes_params_alone(self):
        # agreement with the closed form is judged by vfs roots, against one fixed bound
        assert list(inspect.signature(locate_roots).parameters) == ["params"]

    # just above sqrt(2) the search stops 5.7e-8 and 5.6e-8 from the closed form: a zero all the same
    @pytest.mark.parametrize("mach, error", [(1.414214, 5.7e-8), (1.414215, 5.6e-8)])
    def test_a_zero_off_its_closed_form_is_returned(self, mach, error):
        params = PhysicalParams(v=mach, c=1.0)
        found, cy = locate_roots(params), root_constants(params)
        assert round(abs(found - cy) / cy, 9) == error
        assert abs(big_sigma(Frequency(0.0, found, 1.0), params)) <= hemisphere._ZERO_THRESHOLD * (found * found + 1.0)

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

    @pytest.mark.parametrize("mach", [3.0, 4.0, 5.0, 8.0, 15.0, 50.0, 100.0, 1e3, 1e4])
    def test_certifies_across_the_weakly_stable_range(self, mach):
        # a radius of a quarter gap keeps the arcs off the glancing point delta = (v - c) eta0;
        # with the fixed radius 1e-3 the arcs enclosed it from M = 5.65 on and the certificate failed
        params = PhysicalParams(v=mach, c=1.0)
        _, _, eta0 = root_points(params)[0]
        cert = certify_simple_root(params)
        assert cert.passed and cert.sample_size == 720
        assert cert.extras["radius"] == min(1e-3, glancing_gap(params) * eta0 / 4)
        if 4.0 <= mach <= 1e3:
            # the quotient depends on M only through radius / gap, and here that is 1/4 (at 1e4 rounding shows)
            assert cert.extras["band_ratio"] == pytest.approx(1.1345, abs=5e-3)
            assert cert.extras["center_drift"] == pytest.approx(4.5e-3, abs=1e-3)

    def test_an_unresolved_radius_fails_with_its_reason(self):
        # at M = 1e5 a quarter gap is 3e-17 of delta0, below what a double resolves
        cert = certify_simple_root(PhysicalParams(v=1e5, c=1.0))
        assert not cert.passed
        assert (cert.sample_size, math.isnan(cert.empirical_min), math.isnan(cert.empirical_max)) == (0, True, True)
        assert cert.extras["radius"] == pytest.approx(3.125e-17, rel=1e-3)
        assert cert.extras["reason"].startswith("unresolved arcs: radius 3.125e-17 is below double resolution at delta0 = ")
        assert "band_ratio" not in cert.extras

    def test_band_tightens_with_radius(self, monkeypatch):
        monkeypatch.setattr(hemisphere, "_ARC_RADIUS", 1e-2)
        wide = certify_simple_root(M2)
        monkeypatch.setattr(hemisphere, "_ARC_RADIUS", 1e-3)
        tight = certify_simple_root(M2)
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
        cert = certify_simple_root(M2)
        assert not cert.passed
        assert cert.extras == {"radius": 1e-3, "reason": f"zero band: |Sigma| vanishes on the arc of radius {1e-3 * shrink:g}"}
        assert (cert.empirical_min == 0.0) == (shrink == 1.0)
