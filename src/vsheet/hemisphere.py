"""Empirical bound certificates on the unit frequency hemisphere.

The weighted estimates for the front equation rest on a handful of
pointwise comparisons between |Sigma|, the weight sigma and the frequency
modulus Lambda.  All of them are homogeneous of degree zero, so it is
enough to check them on the compact hemisphere

    Xi_1 = { gamma^2 + delta^2 + eta^2 = 1,  gamma >= 0 }.

The symbols are even in eta (mu+ and mu- trading places) and
conjugate-symmetric in delta, so every ratio certified here takes the same
values on the quadrant delta, eta >= 0 as on the whole hemisphere.  This
module samples that quadrant on one nested grid: rows in gamma from the
floor, graded toward gamma = 0, by columns in azimuth that hold both
glancing azimuths exactly, and a finer grid of rows and columns across each
root tube.  Each level of the grid doubles the rows and the azimuth
intervals of the one before and lists only its new points, so the first n
points of any sample are the n-point sample.  A
sample keeps the row and column tables alone, and builds any block of its
points as products of their entries.  The certificate scans build one
block at a time through the one extremum scan, :func:`chunks.scan_extrema`,
so a scan holds a bounded scratch of a few block-sized temporaries per
worker and no array of the whole sample.  One rule, :func:`_passes`,
decides every certificate, and one constructor, :func:`_certificate`, turns
the located extrema of a sample scan into its record, with the sample
points where its minimum and maximum sit.
Certificates are evidence obtained by dense sampling, not proofs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from . import chunks
from .chunks import Extrema, extrema, scan_extrema
from .symbols import (
    Frequency,
    InternalCheckFailed,
    PhysicalParams,
    Regime,
    big_sigma,
    glancing_gap,
    root_constants,
    weight_bound_constant,
    weight_sigma,
)

__all__ = [
    "SampleStrategy",
    "HemisphereSample",
    "BoundCertificate",
    "NoRootFound",
    "root_points",
    "sample_hemisphere",
    "sandwich_ratio",
    "certify_sandwich",
    "certify_weight_bounds",
    "locate_roots",
    "count_zeros_right",
    "certify_simple_root",
]

# angular radius of the tubes around the root points, the sandwich's near-root band and the
# weight's root-distance stratum
TUBE_RADIUS = 0.05

# the largest sample: some three minutes of certificate scans at 6 M points a second
MAX_SAMPLE = 10**9

# golden-section bracket (relative half width, at most half the glancing gap when weakly stable)
# and x tolerance of the root search
_BRACKET_FRAC = 0.2
_ROOT_XTOL = 1e-12

# a located minimum counts as a root when |Sigma| <= this times Lambda^2
_ZERO_THRESHOLD = 1e-6

# zero count: points on the line before bisection, and the most points after it
_COUNT_POINTS = 4096
_COUNT_CAP = 1 << 14

# relative rounding allowed above a closed-form bound that the sample attains
_BOUND_ROUNDING = 1e-12

# simple-root certificate: largest outer arc radius, its share of the glancing gap, points per arc,
# largest rounding of delta0 as a share of the inner radius, inner/outer arc radius, largest band
# max/min, level drift
_ARC_RADIUS = 1e-3
_ARC_GAP_FRAC = 0.25
_ARC_POINTS = 360
_ARC_ROUNDING = 1e-2
_SHRINK = 0.5
_BAND_LIMIT = 2.0
_DRIFT_LIMIT = 0.05


class NoRootFound(RuntimeError):
    """The bracketed search did not produce a zero of the symbol, or the zero count was refused."""


class SampleStrategy(enum.Enum):
    """The accepted names of the sampling scheme; both select the one quadrant grid."""

    UNIFORM_ANGULAR = "uniform_angular"
    STRATIFIED_NEAR_ROOTS = "stratified_near_roots"


def _runs(a: int, b: int, width: int):
    """Rectangles ``(row, row stop, column, column stop)`` covering the run ``[a, b)`` of rows of ``width`` points.

    A run of row-major points is a partial first row, whole rows and a
    partial last row; each comes out as one rectangle, in order.
    """
    i, j = divmod(a, width)
    k, m = divmod(b, width)
    if i == k:
        yield i, i + 1, j, m
        return
    if j:
        yield i, i + 1, j, width
        i += 1
    if k > i:
        yield i, k, 0, width
    if m:
        yield k, k + 1, 0, m


@dataclasses.dataclass(frozen=True, eq=False)
class HemisphereSample:
    """The first ``size`` points of the nested quadrant grid (:func:`sample_hemisphere`), made on demand.

    ``rects`` lists the rectangles ``(offset, rows, cols)`` whose points,
    row by row, are the sample's from ``offset`` on: ``rows`` holds each
    row's gamma and radius sqrt(1 - gamma^2), ``cols`` each column's cosine
    and sine of azimuth, both views of a grid's tables.
    """

    size: int
    gamma_floor: float
    rects: tuple

    def __len__(self) -> int:
        return self.size

    def points(self, lo: int, hi: int) -> Frequency:
        """Sample points ``lo, ..., hi - 1``: (gamma, radius cos, radius sin) of each one's row and column.

        A point's bits depend on its row and column alone, so every cut of
        the sample into blocks makes the same points.  Raises
        ``InternalCheckFailed`` unless each point is a unit vector with
        ``gamma >= gamma_floor``.
        """
        out, at = np.empty((3, hi - lo)), 0
        for offset, rows, cols in self.rects:
            width = cols.shape[1]
            a, b = max(lo, offset) - offset, min(hi, offset + rows.shape[1] * width) - offset
            for i, k, j, m in _runs(a, b, width) if a < b else ():
                g, d, e = (x[at : at + (k - i) * (m - j)].reshape(k - i, m - j) for x in out)
                gamma, radius = rows[:, i:k, None]
                cos, sin = cols[:, j:m]
                g[...] = gamma
                np.multiply(radius, cos, out=d)
                np.multiply(radius, sin, out=e)
                at += g.size
        _check_points(out, self.gamma_floor)
        return Frequency._trusted(*out)

    @functools.cached_property
    def freqs(self) -> Frequency:
        """Every point of the sample as one batch, made on first use; the certificate scans never ask for it."""
        return self.points(0, self.size)


@dataclasses.dataclass
class BoundCertificate:
    """Empirical range of a homogeneous ratio over a hemisphere sample."""

    ratio_name: str
    empirical_min: float
    empirical_max: float
    sample_size: int
    gamma_floor: float
    mach: float
    passed: bool
    extras: dict = dataclasses.field(default_factory=dict)
    # the sample points [gamma, delta, eta] where the minimum and the maximum sit
    min_point: list | None = None
    max_point: list | None = None

    def to_json_dict(self) -> dict:
        """The fields as a dict, ``passed`` written as ``pass``; empty ``extras`` and absent points are left out."""
        rec = dataclasses.asdict(self)
        rec["pass"] = rec.pop("passed")
        for key in ("extras", "min_point", "max_point"):
            if not rec[key]:
                del rec[key]
        return rec


def root_points(params: PhysicalParams) -> np.ndarray:
    """Intersections of the symbol's root curves with the unit hemisphere.

    Weakly stable: the curves tau = +-i c Y2 eta meet the hemisphere in the
    four points (0, +-c Y2 eta0, +-eta0).  Elliptic: tau = c Y1 |eta| gives
    the two interior points (c Y1 eta0, 0, +-eta0).
    """
    regime = params.regime()
    y = root_constants(params)
    cy = params.c * y
    eta0 = 1.0 / math.sqrt(1.0 + cy * cy)
    if regime is Regime.WEAKLY_STABLE:
        d0 = cy * eta0
        return np.array(
            [
                [0.0, d0, eta0],
                [0.0, -d0, eta0],
                [0.0, d0, -eta0],
                [0.0, -d0, -eta0],
            ]
        )
    g0 = cy * eta0
    return np.array([[g0, 0.0, eta0], [g0, 0.0, -eta0]])


def _nested(level: int, head: list) -> np.ndarray:
    """``head``, then the odd multiples of ``2**-l`` below 1 for ``l = 1, ..., level``: dyadic fractions in nested order."""
    return np.concatenate([head] + [np.arange(1, 2**l, 2) / 2**l for l in range(1, level + 1)])


def _row_table(gamma: np.ndarray) -> np.ndarray:
    """(gamma, radius sqrt(1 - gamma^2)) of each row."""
    return np.stack([gamma, np.sqrt((1.0 - gamma) * (1.0 + gamma))])


def _column_table(phi: np.ndarray, slopes: np.ndarray = np.empty(0)) -> np.ndarray:
    """(cos, sin) of each azimuth: those of ``delta / eta = slopes``, then those of ``phi``."""
    special = np.stack([slopes, np.ones_like(slopes)]) / np.hypot(slopes, 1.0)
    return np.concatenate([special, [np.cos(phi), np.sin(phi)]], axis=1)


def sample_hemisphere(
    n: int,
    strategy: SampleStrategy,
    gamma_floor: float = 1e-6,
    params: PhysicalParams | None = None,
    seed: int = 0,
) -> HemisphereSample:
    """The first ``n`` points of the nested grid on the quadrant delta, eta >= 0 with ``gamma >= gamma_floor``.

    The grid is a quadrant grid and, for weakly stable ``params``, a root
    grid, each a product of rows and azimuth columns; a point is (gamma,
    radius cos, radius sin) of its row and azimuth, with radius
    ``sqrt(1 - gamma^2)``.  Level ``L`` of the quadrant grid has the
    ``2**L`` rows ``gamma = floor + (1 - floor) sin(pi t^2 / 2)``,
    ``t = i / 2**L``, from the floor and graded toward gamma = 0, by the
    azimuths ``pi/2 * j / 2**L``, ``j = 0, ..., 2**L``, after the glancing
    azimuths ``delta = (v +- c) eta`` farther than ``gamma_floor`` from the
    root azimuth ``phi0`` of ``delta = c Y2 eta``.  Level ``L >= 1`` of the
    root grid has the ``2**(L - 1)`` rows ``floor + (1 - floor) TUBE_RADIUS t``,
    ``t = i / 2**(L - 1)``, by the ``2**L`` azimuths ``phi0 +- TUBE_RADIUS s``,
    ``s = 1, 1/2, 1/4, 3/4, ...``: it covers the root tube, and may cross
    eta = 0, where the symbols are even in eta.  No column lies within
    ``gamma_floor`` of ``phi0``: along it |sigma| grows from the root about
    M - 1 times more slowly than across it, and a point there at ``gamma_floor``
    widens ``weight_over_lambda``'s band to some ``(c Y2)^2 / (2 gamma_floor)``,
    1.2e9 at M = 50.  ``delta = (v - c) eta`` comes that near from M = 19 on.

    Each level lists its new columns on the old rows of the quadrant grid,
    then of the root grid, then its new rows of the one and of the other,
    each row by row.  So the first n points of a larger sample are the
    n-point sample, and the root grid holds a fifth to a third of any
    weakly stable sample of 1000 points or more.  The sample keeps only the
    tables; :meth:`HemisphereSample.points` makes any block of its points.

    Both strategies select the grid, and ``seed`` is unused; the benchmark
    harness still passes both, so they stay until it drops them.
    """
    if not 1 <= n <= MAX_SAMPLE:
        raise ValueError(f"sample size must be from 1 to {MAX_SAMPLE}")
    if not 0.0 < gamma_floor < 1.0:
        raise ValueError("gamma_floor must lie in (0, 1)")
    SampleStrategy(strategy)
    weakly_stable = params is not None and params.regime() is Regime.WEAKLY_STABLE
    phi0 = math.atan2(1.0, params.c * root_constants(params)) if weakly_stable else math.nan
    # delta / eta of the glancing azimuths that lie farther than gamma_floor from the root azimuth
    slopes = [params.v + params.c, params.v - params.c] if weakly_stable else []
    slopes = np.array([x for x in slopes if abs(math.atan2(1.0, x) - phi0) > gamma_floor])

    def shape(grid: int, lev: int) -> tuple[int, int]:
        """(rows, columns) of the quadrant grid (0) or the root grid (1) at level ``lev``, 0 x 0 before it starts."""
        if grid == 0:
            return (2**lev, 2**lev + 1 + slopes.size) if lev >= 0 else (0, 0)
        return (2 ** (lev - 1), 2**lev) if weakly_stable and lev >= 1 else (0, 0)

    spans, offset, level = [], 0, -1
    while offset < n:
        level += 1
        steps = [(grid, shape(grid, level - 1), shape(grid, level)) for grid in (0, 1)]
        # the new columns on the old rows, then the new rows
        for part in (0, 1):
            for grid, (old_rows, old_cols), (rows, cols) in steps:
                r0, r1, c0 = (0, old_rows, old_cols) if part == 0 else (old_rows, rows, 0)
                if offset < n and r1 > r0 and cols > c0:
                    spans.append((offset, grid, r0, r1, c0, cols))
                    offset += (r1 - r0) * (cols - c0)
    t = _nested(level, [0.0])
    rows = gamma_floor + (1.0 - gamma_floor) * np.sin(0.5 * np.pi * t * t)
    tables = [(_row_table(rows), _column_table(0.5 * np.pi * _nested(level, [0.0, 1.0]), slopes))]
    if weakly_stable and level:
        s = TUBE_RADIUS * _nested(level - 1, [1.0])
        rows = gamma_floor + (1.0 - gamma_floor) * TUBE_RADIUS * t[: 2 ** (level - 1)]
        tables.append((_row_table(rows), _column_table(phi0 + np.stack([s, -s], axis=1).ravel())))
    rects = tuple((o, tables[g][0][:, r0:r1], tables[g][1][:, c0:c1]) for o, g, r0, r1, c0, c1 in spans)
    return HemisphereSample(n, gamma_floor, rects)


def _check_points(points: np.ndarray, gamma_floor: float) -> None:
    """Raise unless each column of ``points`` (gamma, delta, eta) has modulus 1 to 1e-12 and gamma >= gamma_floor."""
    g, d, e = points
    if not np.all(np.abs(np.sqrt(g**2 + d**2 + e**2) - 1.0) <= 1e-12):
        raise InternalCheckFailed("the hemisphere sampler made a point off the unit sphere")
    if not np.all(g >= gamma_floor):
        raise InternalCheckFailed(f"the hemisphere sampler made a point below gamma_floor = {gamma_floor!r}")


def _passes(vmin: float, vmax: float, bound: float = math.inf, limit: float | None = None) -> bool:
    """The pass rule of every certificate: ``min > 0`` and ``max <= bound``.

    Under a band ``limit``, ``max`` must also be finite and ``max / min <= limit``.
    A NaN fails every comparison, so it always fails.
    """
    return vmin > 0.0 and vmax <= bound and (limit is None or (math.isfinite(vmax) and vmax / vmin <= limit))


def _certificate(
    name: str, found: Extrema, sample: HemisphereSample, params: PhysicalParams, bound: float = math.inf, limit: float | None = None
) -> BoundCertificate:
    """The certificate of a sample scan's extrema under :func:`_passes`; an empty stratum FAILs."""
    count, vmin, imin, vmax, imax = found
    floor, mach = sample.gamma_floor, params.mach
    if count == 0:
        return BoundCertificate(name, math.nan, math.nan, 0, floor, mach, False, {"reason": "empty stratum"})
    # rebuilt from the tables, so they are the bits the scan evaluated
    located = [sample.points(i, i + 1) for i in (imin, imax)]
    min_point, max_point = ([float(f.gamma[0]), float(f.delta[0]), float(f.eta[0])] for f in located)
    passed = _passes(vmin, vmax, bound, limit)
    return BoundCertificate(name, vmin, vmax, count, floor, mach, passed, min_point=min_point, max_point=max_point)


def _scan(evaluate, sample: HemisphereSample) -> list[Extrema]:
    """:func:`chunks.scan_extrema` of ``evaluate`` over the sample, once a buffer of eight complex blocks is freed.

    glibc returns the free top of a thread's heap to the system once it
    exceeds a trim threshold, which starts at 128 KB and rises to twice the
    largest mapped buffer freed so far.  A scan block's temporaries are
    about 4.7 MB, so below that they come back as fresh pages in every
    block: 0.1 M minor faults a certify at 10**6 points, and a fifth of its
    throughput.  The buffer is never written, so it costs no resident
    memory; a (3, n) sample's own temporaries used to raise the threshold.
    """
    np.empty(8 * chunks.BLOCK, dtype=np.complex128)
    return scan_extrema(evaluate, len(sample))


def _root_factor_distance(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """min(|tau - i c Y2 eta|, |tau + i c Y2 eta|) pointwise."""
    cy = params.c * root_constants(params)
    tau, eta = freqs.tau, freqs.eta
    return np.minimum(np.abs(tau - 1j * cy * eta), np.abs(tau + 1j * cy * eta))


def _in_root_tubes(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """Points within angular distance TUBE_RADIUS of a weakly stable root point (0, +-d0, +-e0).

    The largest of the four dot products is ``|delta| d0 + |eta| e0``, bit
    for bit: ``gamma * 0`` adds an exact 0.0, sign flips are exact and
    rounding is symmetric and monotone.  The angle is at most TUBE_RADIUS
    where that dot product is at least cos(TUBE_RADIUS).
    """
    _, d0, e0 = root_points(params)[0]
    return np.abs(freqs.delta) * d0 + np.abs(freqs.eta) * e0 >= math.cos(TUBE_RADIUS)


def sandwich_ratio(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """|Sigma| / (|sigma| * Lambda), homogeneous of degree zero; inf or nan where the weight vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(big_sigma(freqs, params)) / (np.abs(weight_sigma(freqs, params)) * freqs.lam)


def certify_sandwich(
    sample: HemisphereSample,
    params: PhysicalParams,
    explosion_threshold: float = 1e8,
    seed: int = 0,
) -> BoundCertificate:
    """Certify |sigma| * Lambda <= C1 |Sigma| <= C2 |sigma| * Lambda on the sample.

    The certified ratio is |Sigma| / (|sigma| * Lambda); both factors vanish
    linearly at the root curves, so their quotient must stay inside a fixed
    positive band if and only if every root of Sigma is simple and carried
    by the weight.  One scan of the sample decides the certificate under
    :func:`_passes`, which FAILs it (rather than raising) when the empirical
    band explodes.  The ratio is homogeneous of degree zero, so the
    unit-hemisphere sample is the whole check; the homogeneity of the
    symbols is tested on the symbols themselves.

    ``seed`` is accepted and unused: the benchmark harness still passes it
    on every run, so it stays until the harness drops it.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the sandwich bound is certified in the weakly stable regime only")

    def evaluate(lo: int, hi: int):
        freqs = sample.points(lo, hi)
        ratio = sandwich_ratio(freqs, params)
        return ratio, (ratio, _in_root_tubes(freqs, params))

    whole, near = _scan(evaluate, sample)
    cert = _certificate("abs_sigma_big_over_weight_lambda", whole, sample, params, limit=explosion_threshold)
    cert.extras = {"near_root_count": near.count}
    if near.count:
        # a subset of the sample: its band lies inside the whole band, so it needs no check of its own
        cert.extras.update(near_root_min=near.min, near_root_max=near.max)
    return cert


def certify_weight_bounds(
    sample: HemisphereSample,
    params: PhysicalParams,
    explosion_threshold: float = 1e8,
) -> list[BoundCertificate]:
    """Certify the pointwise comparisons satisfied by the weight.

    Four ratios are recorded: |sigma|/gamma (bounded below by the certified
    C), |sigma|/Lambda (bounded above by :func:`weight_bound_constant`, its
    exact sup, which the sample reaches: the maximum may exceed it by a
    relative rounding allowance of 1e-12), |sigma|/dist near the root tubes
    (dist the distance to the nearest root line), and |sigma|/Lambda away
    from the tubes (bounded above and below: sigma is elliptic there).
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("weight bounds are defined in the weakly stable regime only")

    def evaluate(lo: int, hi: int):
        freqs = sample.points(lo, hi)
        wabs = np.abs(weight_sigma(freqs, params))
        near = _in_root_tubes(freqs, params)
        dist = _root_factor_distance(freqs, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            over_gamma = wabs / freqs.gamma
            over_lam = wabs / freqs.lam
            over_dist = wabs / dist
        return over_gamma, over_lam, (over_dist, near), (over_lam, ~near)

    over_gamma, over_lam, over_dist, over_lam_far = _scan(evaluate, sample)
    return [
        _certificate("weight_over_gamma", over_gamma, sample, params),
        _certificate(
            "weight_over_lambda", over_lam, sample, params,
            weight_bound_constant(params) * (1.0 + _BOUND_ROUNDING), explosion_threshold,
        ),
        _certificate("weight_over_root_distance", over_dist, sample, params, limit=explosion_threshold),
        _certificate("weight_over_lambda_far", over_lam_far, sample, params, limit=explosion_threshold),
    ]


def _golden_section(fn, lo: float, hi: float, xtol: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi] by golden section."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - shrink * (b - a)
    d = a + shrink * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def locate_roots(params: PhysicalParams) -> float:
    """Find the root of |Sigma| at eta = 1 by bracketed golden section.

    Weakly stable regime: searches delta around the closed form c*Y2 on the
    boundary gamma = 0 and returns the root coordinate delta*; the bracket
    reaches at most half the :func:`~vsheet.symbols.glancing_gap` from c*Y2,
    so it holds one minimum of |Sigma| and no glancing point.  Elliptic
    regime: searches the real axis delta = 0 and returns the root abscissa
    gamma* near c*Y1.  Raises NoRootFound when the bracketed minimum is not
    an actual zero, |Sigma| above 1e-6 Lambda^2; how closely the zero
    agrees with the closed form is the caller's to judge.
    """
    regime = params.regime()
    if regime is Regime.DEGENERATE:
        raise ValueError("roots are not isolated at mach = sqrt(2)")
    cy = params.c * root_constants(params)

    half_width = _BRACKET_FRAC * cy
    if regime is Regime.WEAKLY_STABLE:
        half_width = min(half_width, 0.5 * glancing_gap(params))

        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(0.0, x, 1.0), params))
    else:
        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(x, 0.0, 1.0), params))

    lo, hi = cy - half_width, cy + half_width
    best = _golden_section(objective, lo, hi, _ROOT_XTOL * cy)
    lam2 = best * best + 1.0
    if objective(best) > _ZERO_THRESHOLD * lam2:
        raise NoRootFound(
            f"minimum |Sigma| = {objective(best):.3e} at coordinate {best:.12g} "
            f"is above the zero threshold {_ZERO_THRESHOLD * lam2:.3e}"
        )
    return best


def count_zeros_right(params: PhysicalParams) -> int:
    """The number of zeros of Sigma(tau, 1) with Re tau > epsilon, by the argument principle.

    ``epsilon = 1e-3 c``, at most half the elliptic root's abscissa ``c Y1`` and, weakly stable, at
    least ``64 ulp(v + c)``, a width that doubles resolve near s = v (it takes over at v + c >= 2^37).
    The count is the winding of Sigma(epsilon + i s, 1) as s falls from +inf to
    -inf, plus one turn for the large arc, where Sigma ~ tau^2.  The line starts
    at ``s = (v + c) tan(theta)``, theta uniform, so its ends reach that regime
    at every mach, and each step of arg Sigma above pi/4 is bisected in s.
    Sigma is evaluated at ``(epsilon + i s, 1) / (v + c)``, of the same argument
    by homogeneity, so it does not overflow.  NoRootFound where Sigma vanishes
    or is not finite on the line, or where bisection would pass ``_COUNT_CAP``
    points or meets an interval that no longer halves.
    """
    # root_constants is a ValueError at the degenerate mach, where no count is defined
    c, scale, y = params.c, params.v + params.c, root_constants(params)
    elliptic = params.regime() is Regime.ELLIPTIC
    epsilon = min(1e-3 * c, 0.5 * c * y) if elliptic else max(1e-3 * c, 64.0 * math.ulp(scale))
    t = np.tan(np.pi * (0.5 - (np.arange(_COUNT_POINTS) + 0.5) / _COUNT_POINTS))
    values = big_sigma(Frequency(epsilon / scale, t, 1.0 / scale), params)
    while np.all(np.isfinite(values) & (values != 0.0)):
        steps = np.angle(values[1:] / values[:-1])
        wide = np.flatnonzero(np.abs(steps) > math.pi / 4)
        if not wide.size:
            return round(float(np.sum(steps)) / math.tau) + 1
        mid = 0.5 * (t[wide] + t[wide + 1])
        why = f"the cap of {_COUNT_CAP} points" if t.size + wide.size > _COUNT_CAP else None
        if why or np.any((mid == t[wide]) | (mid == t[wide + 1])):
            raise NoRootFound(
                f"zero count refused: {wide.size} steps of arg Sigma above pi/4 remain at {t.size} points on "
                f"Re tau = {epsilon:.3g}, and bisecting them meets {why or 'an interval that no longer halves'}"
            )
        t = np.insert(t, wide + 1, mid)
        values = np.insert(values, wide + 1, big_sigma(Frequency(epsilon / scale, mid, 1.0 / scale), params))
    raise NoRootFound(f"zero count refused: Sigma vanishes or is not finite on the line Re tau = {epsilon:.3g}")


def certify_simple_root(params: PhysicalParams) -> BoundCertificate:
    """Certify that the marginal root of Sigma is simple.

    Evaluates the quotient |Sigma| / |tau - i c Y2 eta| on arcs of radius
    ``r`` and ``r / 2``, 360 points each, around the root point
    (0, c Y2, 1) / sqrt(1 + (c Y2)^2) on the unit sphere (restricted to the
    admissible half-plane gamma >= 0), in the plane of its eta0.  A simple
    root keeps the quotient inside a narrow band whose level does not move
    as the radius shrinks; a higher-order zero drags the level down
    proportionally to the radius, which fails the drift check.

    ``r = min(1e-3, gap * eta0 / 4)``, with gap the
    :func:`~vsheet.symbols.glancing_gap`: the arcs stay clear of the
    glancing point delta = (v - c) eta0, where |Sigma| has a kink.  The
    quotient then depends on M only through r / gap.  Where half an ulp of
    delta0 exceeds 1 % of the inner radius, double precision does not
    resolve the arcs, and the certificate FAILs with that reason, unevaluated.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the imaginary root pair exists in the weakly stable regime only")
    _, delta0, eta0 = root_points(params)[0]
    radius = min(_ARC_RADIUS, _ARC_GAP_FRAC * glancing_gap(params) * eta0)
    rounding = 0.5 * math.ulp(delta0)
    if rounding > _ARC_ROUNDING * _SHRINK * radius:
        reason = (
            f"unresolved arcs: radius {radius:.3e} is below double resolution at delta0 = {delta0:.17g}, "
            f"whose half ulp {rounding:.3e} exceeds {_ARC_ROUNDING:.0%} of the inner radius"
        )
        return BoundCertificate(
            "simple_root_quotient", math.nan, math.nan, 0, 0.0, params.mach, False, {"radius": radius, "reason": reason}
        )
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, _ARC_POINTS)

    def band(r: float) -> tuple[float, float]:
        freqs = Frequency(r * np.cos(phi), delta0 + r * np.sin(phi), np.full_like(phi, eta0))
        found = extrema(np.abs(big_sigma(freqs, params)) / r)
        return found.min, found.max

    qmin, qmax = band(radius)
    smin, smax = band(radius * _SHRINK)
    record = functools.partial(BoundCertificate, "simple_root_quotient", qmin, qmax, 2 * _ARC_POINTS, 0.0, params.mach)
    for r, low in ((radius, qmin), (radius * _SHRINK, smin)):
        if low == 0.0:
            return record(False, {"radius": radius, "reason": f"zero band: |Sigma| vanishes on the arc of radius {r:g}"})
    center_outer = math.sqrt(qmin * qmax)
    center_inner = math.sqrt(smin * smax)
    drift = abs(center_inner / center_outer - 1.0)
    ok = _passes(qmin, qmax, limit=_BAND_LIMIT) and _passes(smin, smax, limit=_BAND_LIMIT) and drift <= _DRIFT_LIMIT
    extras = dict(radius=radius, band_ratio=qmax / qmin, shrunk_band_ratio=smax / smin)
    return record(ok, dict(extras, center_drift=drift, quotient_level=center_outer))
