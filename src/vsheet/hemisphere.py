"""Empirical bound certificates on the unit frequency hemisphere.

The weighted estimates for the front equation rest on a handful of
pointwise comparisons between |Sigma|, the weight sigma and the frequency
modulus Lambda.  All of them are homogeneous of degree zero, so it is
enough to check them on the compact hemisphere

    Xi_1 = { gamma^2 + delta^2 + eta^2 = 1,  gamma >= 0 }.

This module samples that hemisphere (optionally stratifying near the
marginal root curves, which is where the comparisons are delicate),
evaluates the ratios on the sample and packages the empirical extrema as
certificates.  The sample points come from low-discrepancy sequences
computed here: the Owen-scrambled Halton sequence in bases 2 and 3, or the
base-2 van der Corput sequence beside the golden-ratio sequence.  Every
sample is a run of strata, made chunk by chunk on the worker pool, each
chunk from its own slice of the sequence.  A stratum of a stratified sample
is one root-tube point and three zone points, taken from two prefixes of one
sequence; the other strategies have strata of one zone point.
The certificate scans take the same chunks and evaluate each in fixed
blocks through the one extremum scan, :func:`chunks.scan_extrema`, so a
scan holds the sample plus a bounded scratch of a few block-sized
temporaries per worker.  One rule, :func:`_passes`, decides every
certificate, and one constructor, :func:`_certificate`, turns the located
extrema of a sample scan into its record, with the sample points where its
minimum and maximum sit.
Certificates are evidence obtained by dense sampling, not proofs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from . import chunks
from .chunks import Extrema, extrema, map_chunks, scan_extrema
from .symbols import (
    Frequency,
    InternalCheckFailed,
    PhysicalParams,
    Regime,
    big_sigma,
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
    "certify_simple_root",
]

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

# angular radius of the tubes around the root curves used for stratification
TUBE_RADIUS = 0.05

# a stratified sample comes in strata of this many positions: the first is a
# root-tube point, the rest are zone points; the two kinds are two prefixes
# of one sequence, so neither aliases with the other's positions
_STRATUM_EVERY = 4

# low digits of the scrambled sequence tabulated per base: 2**17 and 3**11 entries
_TABLE_DIGITS = {2: 17, 3: 11}

# random powers of two cycled over the probe of the homogeneity check, and the probe's size
_N_SCALINGS = 10
_HOMOGENEITY_PROBE = 4096

# golden-section bracket (relative half width) and x tolerance of the root search
_BRACKET_FRAC = 0.2
_ROOT_XTOL = 1e-12

# a located minimum counts as a root when |Sigma| <= this times Lambda^2
_ZERO_THRESHOLD = 1e-6

# relative rounding allowed above a closed-form bound that the sample attains
_BOUND_ROUNDING = 1e-12

# simple-root certificate: inner/outer arc radius, largest band max/min, level drift
_SHRINK = 0.5
_BAND_LIMIT = 2.0
_DRIFT_LIMIT = 0.05


class NoRootFound(RuntimeError):
    """The bracketed search did not produce a zero of the symbol."""


class SampleStrategy(enum.Enum):
    UNIFORM_ANGULAR = "uniform_angular"
    STRATIFIED_NEAR_ROOTS = "stratified_near_roots"
    QUASI_RANDOM = "quasi_random"


@dataclasses.dataclass(frozen=True)
class HemisphereSample:
    """A batch of unit-modulus frequencies with gamma >= gamma_floor."""

    freqs: Frequency
    gamma_floor: float

    def __post_init__(self) -> None:
        if self.freqs.gamma.ndim != 1:
            raise ValueError(f"a hemisphere sample is a 1-d batch of frequencies, got shape {self.freqs.gamma.shape}")

    def __len__(self) -> int:
        return self.freqs.size


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


def _digit_sums(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(table, tail)`` of the radical inverse whose digit ``j`` is scrambled by ``perms[j]``.

    Digit ``j`` of an index adds ``perms[j, digit] * b**-(j + 1)``, the power
    rounded as ``1/b`` divided by ``b`` ``j`` times; the terms are summed from
    0.0 in digit order.  ``table`` holds these sums over the low ``k`` digits
    (:data:`_TABLE_DIGITS`) of each index below ``b**k``; ``tail[j, d]`` is the
    term of digit ``d`` at position ``k + j``.
    """
    base, k = perms.shape[1], _TABLE_DIGITS[perms.shape[1]]
    powers = list(itertools.accumulate(range(len(perms)), lambda x, _: x / base, initial=1.0))[1:]
    terms = perms * np.array(powers)[:, None]
    table = np.zeros(1)
    for row in terms[:k]:
        table = np.concatenate([table + term for term in row])
    return table, terms[k:]


def _radical_inverse(sums: tuple[np.ndarray, np.ndarray], first: int, out: np.ndarray) -> None:
    """Fill ``out`` with the points of indices ``first, first + 1, ...`` under :func:`_digit_sums`.

    A run of indices sharing their digits above the table starts from one
    table slice and adds the remaining terms one at a time, in digit order;
    adding a 0.0 term is exact, so it is skipped.
    """
    table, tail = sums
    size, base = len(table), tail.shape[1]
    stop = first + len(out)
    for high in range(first // size, (stop - 1) // size + 1):
        lo, hi = max(first, high * size), min(stop, (high + 1) * size)
        run = out[lo - first : hi - first]
        run[:] = table[lo - high * size : hi - high * size]
        digits = high
        for row in tail:
            digits, digit = divmod(digits, base)
            if row[digit]:
                run += row[digit]


def _sequence(strategy: SampleStrategy, seed: int):
    """``draw(first, count)``: the (2, count) points of indices ``first, ..., first + count - 1``.

    Point i depends only on i and the seed, so any slice of the sequence can
    be made on its own.  QUASI_RANDOM and STRATIFIED_NEAR_ROOTS take the
    Owen-scrambled Halton sequence in bases 2 and 3 from index 0;
    ``default_rng(seed)`` shuffles the digit permutations of base 2, then of
    base 3.  UNIFORM_ANGULAR pairs the plain base-2 sequence from index 1
    with ``i * GOLDEN_FRAC mod 1``.
    """
    uniform = strategy is SampleStrategy.UNIFORM_ANGULAR
    # one arange(b) per digit position k with b**-k > 2**-54, the digits a double resolves
    perms = [np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0) for b in (2, 3)]
    if not uniform:
        rng = np.random.default_rng(seed)
        for row in (*perms[0], *perms[1]):
            rng.shuffle(row)
    offset, axes = (1, [_digit_sums(perms[0])]) if uniform else (0, [_digit_sums(p) for p in perms])

    def draw(first: int, count: int) -> np.ndarray:
        first += offset
        u = np.empty((2, count))
        for row, sums in zip(u, axes):
            _radical_inverse(sums, first, row)
        if uniform:
            np.mod(np.arange(first, first + count, dtype=np.float64) * GOLDEN_FRAC, 1.0, out=u[1])
        return u

    return draw


def _zone_points(u: np.ndarray, gamma_floor: float, out: np.ndarray) -> np.ndarray:
    """Map unit-square points, the last axis of ``u``, to the spherical zone gamma in [floor, 1] in ``out``.

    ``out[0]``, ``out[1]`` and ``out[2]`` receive gamma, delta and eta.  The
    rows share one block: three separately allocated coordinate arrays kept
    the freed temporaries of the map resident under them, raising the peak
    RSS of a 1e6-point certify by about 15 %.
    """
    z = gamma_floor + (1.0 - gamma_floor) * u[..., 0]
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = 2.0 * np.pi * u[..., 1]
    return np.stack([z, r * np.cos(phi), r * np.sin(phi)], out=out)


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


def _near_root_points(
    u: np.ndarray, roots: np.ndarray, gamma_floor: float, first: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, delta, eta) within angular distance TUBE_RADIUS of the root points; point i goes to root (first + i) mod R."""
    # orthonormal tangent frame at each root point; the gamma axis is never parallel to one
    e1 = np.cross(roots, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(roots, e1)
    k = np.arange(first, first + u.shape[0]) % len(roots)
    rho = TUBE_RADIUS * np.sqrt(u[:, 0])
    alpha = 2.0 * np.pi * u[:, 1]
    cos_rho, sin_rho, cos_alpha, sin_alpha = np.cos(rho), np.sin(rho), np.cos(alpha), np.sin(alpha)
    g, d, e = (cos_rho * roots[k, i] + sin_rho * (cos_alpha * e1[k, i] + sin_alpha * e2[k, i]) for i in range(3))
    # enforce the gamma floor, then put the point back on the sphere by
    # rescaling the (delta, eta) block
    g = np.clip(g, gamma_floor, None)
    scale = np.sqrt(np.clip(1.0 - g * g, 0.0, None)) / np.sqrt(d**2 + e**2)
    return g, d * scale, e * scale


def sample_hemisphere(
    n: int,
    strategy: SampleStrategy,
    gamma_floor: float = 1e-6,
    params: PhysicalParams | None = None,
    seed: int = 0,
) -> HemisphereSample:
    """Draw ``n`` unit-modulus frequencies with ``gamma >= gamma_floor``.

    Prefixes are nested: for a fixed strategy and seed, the first n points
    of a 2n-point sample are the n-point sample, so refining can only widen
    empirical ranges.  Every strategy fills strata, chunk by chunk.  For
    QUASI_RANDOM and UNIFORM_ANGULAR, stratum ``q`` is zone point ``q``,
    made from sequence point ``q``.  STRATIFIED_NEAR_ROOTS needs ``params``
    and draws two prefixes of one sequence: position ``4q`` is tube point
    ``q``, inside the angular-0.05 tube around root ``q mod R`` and made
    from sequence point ``q // R``, and position ``4q + r`` (r = 1, 2, 3)
    is zone point ``m = 3q + r - 1``, made from sequence point ``m``.  Each
    root thus gets the sequence from its start, and so does the zone.
    Every chunk checks that its points are unit vectors with
    ``gamma >= gamma_floor``, and raises ``InternalCheckFailed`` if one is not.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    if not (0.0 <= gamma_floor < 1.0):
        raise ValueError("gamma_floor must lie in [0, 1)")
    strategy = SampleStrategy(strategy)
    draw = _sequence(strategy, seed)
    # a stratum is `tubes` tube points (one or none), then `zones` zone points
    tubes, zones = (1, _STRATUM_EVERY - 1) if strategy is SampleStrategy.STRATIFIED_NEAR_ROOTS else (0, 1)
    if tubes:
        if params is None:
            raise ValueError("stratified sampling needs params to locate the root curves")
        roots = root_points(params)
    block = np.empty((3, -(-n // (tubes + zones)), tubes + zones))

    def chunk(start: int, stop: int) -> None:
        # strata q = start..stop-1: zone points zones*q.., then any tube point q, made from sequence point q // R
        u = draw(zones * start, zones * (stop - start))
        _zone_points(u.T.reshape(stop - start, zones, 2), gamma_floor, block[:, start:stop, tubes:])
        if tubes:
            lo = start // len(roots)
            u = draw(lo, (stop - 1) // len(roots) + 1 - lo)
            tube = _near_root_points(u.T[np.arange(start, stop) // len(roots) - lo], roots, gamma_floor, start)
            np.stack(tube, out=block[:, start:stop, 0])
        _check_points(block[:, start:stop].reshape(3, -1), gamma_floor)

    # chunks.CHUNK sample points per chunk, as in the certificate scans
    map_chunks(chunk, block.shape[1], chunks.CHUNK // (tubes + zones))
    # _check_points has passed every point, which is more than Frequency's own checks ask
    return HemisphereSample(freqs=Frequency._trusted(*block.reshape(3, -1)[:, :n]), gamma_floor=gamma_floor)


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
    f = sample.freqs
    min_point, max_point = ([float(f.gamma[i]), float(f.delta[i]), float(f.eta[i])] for i in (imin, imax))
    passed = _passes(vmin, vmax, bound, limit)
    return BoundCertificate(name, vmin, vmax, count, floor, mach, passed, min_point=min_point, max_point=max_point)


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


def _power_of_two_scalings(count: int, seed: int) -> np.ndarray:
    """Random exact powers of two in (0, 1e3].

    Rescaling by an exact power of two commutes bit-for-bit with IEEE
    arithmetic, so the check isolates genuine homogeneity defects instead
    of the rounding noise that generic factors pick up near the root
    curves, where the symbol's condition number is 1/distance.
    """
    rng = np.random.default_rng(seed)
    return 2.0 ** rng.integers(-20, 10, size=count).astype(np.float64)


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
    by the weight.  The certificate FAILs (rather than raising) when the
    empirical band explodes.

    Once the band passes, homogeneity is checked on a probe, the first 4096
    points: point ``i`` is rescaled by the ``i mod 10``-th of ten random
    powers of two, and ``homogeneity_deviation`` is the largest relative
    change of its ratio.  The symbols normalize onto the unit sphere and a
    power of two scales exactly, so the deviation of the real symbols is 0;
    their homogeneity at generic scalings is tested on the symbols themselves.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the sandwich bound is certified in the weakly stable regime only")

    def evaluate(lo: int, hi: int):
        freqs = sample.freqs[lo:hi]
        ratio = sandwich_ratio(freqs, params)
        return ratio, (ratio, _in_root_tubes(freqs, params))

    whole, near = scan_extrema(evaluate, len(sample))
    cert = _certificate("abs_sigma_big_over_weight_lambda", whole, sample, params, limit=explosion_threshold)
    cert.extras = {"near_root_count": near.count}
    if near.count:
        # a subset of the sample: its band lies inside the whole band, so it needs no check of its own
        cert.extras.update(near_root_min=near.min, near_root_max=near.max)
    if cert.passed:
        probe = sample.freqs[:_HOMOGENEITY_PROBE]
        scalings = _power_of_two_scalings(_N_SCALINGS, seed)
        ratio = sandwich_ratio(probe, params)
        rescaled = sandwich_ratio(probe.scaled(scalings[np.arange(probe.size) % _N_SCALINGS]), params)
        dev = extrema(np.abs(rescaled - ratio) / ratio).max
        cert.extras["homogeneity_deviation"] = dev
        cert.passed = dev <= 1e-12
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
        freqs = sample.freqs[lo:hi]
        wabs = np.abs(weight_sigma(freqs, params))
        near = _in_root_tubes(freqs, params)
        dist = _root_factor_distance(freqs, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            over_gamma = wabs / freqs.gamma
            over_lam = wabs / freqs.lam
            over_dist = wabs / dist
        return over_gamma, over_lam, (over_dist, near), (over_lam, ~near)

    over_gamma, over_lam, over_dist, over_lam_far = scan_extrema(evaluate, len(sample))
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
    a, b = lo, hi
    c = b - GOLDEN_FRAC * (b - a)
    d = a + GOLDEN_FRAC * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_FRAC * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_FRAC * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def locate_roots(
    params: PhysicalParams,
    tolerance: float = 1e-8,
) -> float:
    """Find the root of |Sigma| at eta = 1 by bracketed golden section.

    Weakly stable regime: searches delta around the closed form c*Y2 on the
    boundary gamma = 0 and returns the root coordinate delta*.  Elliptic
    regime: searches the real axis delta = 0 and returns the root abscissa
    gamma* near c*Y1.  Raises NoRootFound when the bracketed minimum is not
    an actual zero or disagrees with the closed form beyond ``tolerance``
    (relative).
    """
    regime = params.regime()
    if regime is Regime.DEGENERATE:
        raise ValueError("roots are not isolated at mach = sqrt(2)")
    cy = params.c * root_constants(params)

    if regime is Regime.WEAKLY_STABLE:
        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(0.0, x, 1.0), params))
    else:
        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(x, 0.0, 1.0), params))

    lo, hi = (1.0 - _BRACKET_FRAC) * cy, (1.0 + _BRACKET_FRAC) * cy
    best = _golden_section(objective, lo, hi, _ROOT_XTOL * cy)
    lam2 = best * best + 1.0
    if objective(best) > _ZERO_THRESHOLD * lam2:
        raise NoRootFound(
            f"minimum |Sigma| = {objective(best):.3e} at coordinate {best:.12g} "
            f"is above the zero threshold {_ZERO_THRESHOLD * lam2:.3e}"
        )
    if abs(best - cy) > tolerance * cy:
        raise NoRootFound(
            f"located root {best:.15g} disagrees with closed form {cy:.15g} "
            f"beyond relative tolerance {tolerance:g}"
        )
    return best


def certify_simple_root(
    params: PhysicalParams,
    radius: float = 1e-3,
    n_points: int = 360,
) -> BoundCertificate:
    """Certify that the marginal root of Sigma is simple.

    Evaluates the quotient |Sigma| / |tau - i c Y2 eta| on arcs of radius
    ``radius`` and ``radius / 2`` around the root point
    (0, c Y2, 1) / sqrt(1 + (c Y2)^2) on the unit sphere (restricted to the
    admissible half-plane gamma >= 0).  A simple root keeps the
    quotient inside a narrow band whose level does not move as the radius
    shrinks; a higher-order zero drags the level down proportionally to the
    radius, which fails the drift check.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the imaginary root pair exists in the weakly stable regime only")
    _, delta0, eta0 = root_points(params)[0]
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_points)

    def band(r: float) -> tuple[float, float]:
        freqs = Frequency(r * np.cos(phi), delta0 + r * np.sin(phi), np.full_like(phi, eta0))
        found = extrema(np.abs(big_sigma(freqs, params)) / r)
        return found.min, found.max

    qmin, qmax = band(radius)
    smin, smax = band(radius * _SHRINK)
    record = functools.partial(BoundCertificate, "simple_root_quotient", qmin, qmax, 2 * n_points, 0.0, params.mach)
    for r, low in ((radius, qmin), (radius * _SHRINK, smin)):
        if low == 0.0:
            return record(False, {"radius": radius, "reason": f"zero band: |Sigma| vanishes on the arc of radius {r:g}"})
    center_outer = math.sqrt(qmin * qmax)
    center_inner = math.sqrt(smin * smax)
    drift = abs(center_inner / center_outer - 1.0)
    ok = _passes(qmin, qmax, limit=_BAND_LIMIT) and _passes(smin, smax, limit=_BAND_LIMIT) and drift <= _DRIFT_LIMIT
    extras = dict(radius=radius, band_ratio=qmax / qmin, shrunk_band_ratio=smax / smin)
    return record(ok, dict(extras, center_drift=drift, quotient_level=center_outer))
