"""Empirical bound certificates on the unit frequency hemisphere.

The weighted estimates for the front equation rest on a handful of
pointwise comparisons between |Sigma|, the weight sigma and the frequency
modulus Lambda.  All of them are homogeneous of degree zero, so it is
enough to check them on the compact hemisphere

    Xi_1 = { gamma^2 + delta^2 + eta^2 = 1,  gamma >= 0 }.

This module samples that hemisphere (optionally stratifying near the
marginal root curves, which is where the comparisons are delicate),
evaluates the ratios on the sample and packages the empirical extrema as
certificates.  One rule, :func:`_passes`, decides every certificate, and
one constructor, :func:`_certificate`, turns the extrema of a sample scan into
its record.  Certificates are evidence obtained by dense sampling, not
proofs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .chunks import map_chunks
from .symbols import (
    Frequency,
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
    "certify_sandwich",
    "certify_weight_bounds",
    "locate_roots",
    "certify_simple_root",
]

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

# angular radius of the tubes around the root curves used for stratification
TUBE_RADIUS = 0.05

# fraction of stratified samples forced into the root tubes (every 4th point)
_STRATUM_EVERY = 4

# sample points per chunk of a certificate scan
_CHUNK = 131072

# random powers of two cycled over the sample by the homogeneity check
_N_SCALINGS = 10

# golden-section bracket (relative half width) and x tolerance of the root search
_BRACKET_FRAC = 0.2
_ROOT_XTOL = 1e-12

# a located minimum counts as a root when |Sigma| <= this times Lambda^2
_ZERO_THRESHOLD = 1e-6

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

    def to_json_dict(self) -> dict:
        """The fields as a dict, ``passed`` written as ``pass``; empty ``extras`` are left out."""
        rec = dataclasses.asdict(self)
        rec["pass"] = rec.pop("passed")
        if not self.extras:
            del rec["extras"]
        return rec


def _van_der_corput(idx: np.ndarray) -> np.ndarray:
    """Base-2 radical inverse of the given indices (vectorized)."""
    x = idx.astype(np.uint64)
    out = np.zeros(x.shape, dtype=np.float64)
    denom = 2.0
    while np.any(x > 0):
        out += (x & 1) / denom
        x >>= 1
        denom *= 2.0
    return out


def _unit_square(n: int, strategy: SampleStrategy, seed: int) -> np.ndarray:
    """(n, 2) low-discrepancy points; prefixes are nested for a fixed seed."""
    if strategy is SampleStrategy.UNIFORM_ANGULAR:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        u1 = _van_der_corput(idx)
        u2 = np.mod(idx.astype(np.float64) * GOLDEN_FRAC, 1.0)
        return np.column_stack([u1, u2])
    from scipy.stats import qmc  # imported here: scipy.stats alone costs about 1 s

    engine = qmc.Halton(d=2, scramble=True, seed=seed)
    return engine.random(n)


def _zone_points(u: np.ndarray, gamma_floor: float) -> np.ndarray:
    """Map unit-square points to the spherical zone gamma in [floor, 1]; the rows are gamma, delta, eta.

    The rows share one block: three separately allocated coordinate arrays
    kept the freed temporaries of the map resident under them, raising the
    peak RSS of a 1e6-point certify by about 15 %.
    """
    z = gamma_floor + (1.0 - gamma_floor) * u[:, 0]
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = 2.0 * np.pi * u[:, 1]
    return np.stack([z, r * np.cos(phi), r * np.sin(phi)])


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


def _near_root_points(u: np.ndarray, roots: np.ndarray, gamma_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, delta, eta) within angular distance TUBE_RADIUS of the root points, taken in turn."""
    # orthonormal tangent frame at each root point; the gamma axis is never parallel to one
    e1 = np.cross(roots, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(roots, e1)
    k = np.arange(u.shape[0]) % len(roots)
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
    empirical ranges.  STRATIFIED_NEAR_ROOTS places every 4th point inside
    the angular-0.05 tubes around the root curves and needs ``params``.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    if not (0.0 <= gamma_floor < 1.0):
        raise ValueError("gamma_floor must lie in [0, 1)")
    strategy = SampleStrategy(strategy)
    if strategy is SampleStrategy.STRATIFIED_NEAR_ROOTS and params is None:
        raise ValueError("stratified sampling needs params to locate the root curves")
    u = _unit_square(n, strategy, seed)
    points = _zone_points(u, gamma_floor)
    if strategy is SampleStrategy.STRATIFIED_NEAR_ROOTS:
        points[:, ::_STRATUM_EVERY] = _near_root_points(u[::_STRATUM_EVERY], root_points(params), gamma_floor)
    freqs = Frequency(*points)
    assert np.all(np.abs(freqs.lam - 1.0) <= 1e-12)
    return HemisphereSample(freqs=freqs, gamma_floor=gamma_floor)


def _extrema(values: np.ndarray, where=True) -> tuple[int, float, float]:
    """(count, min, max) of ``values`` where ``where`` holds; empty gives (0, inf, -inf)."""
    count = values.size if where is True else int(np.count_nonzero(where))
    return count, np.min(values, where=where, initial=np.inf), np.max(values, where=where, initial=-np.inf)


def _merge(parts) -> tuple[int, float, float]:
    """Combine per-chunk extrema; a NaN anywhere propagates, as in np.min."""
    counts, mins, maxs = zip(*parts)
    return int(sum(counts)), float(np.min(mins)), float(np.max(maxs))


def _passes(vmin: float, vmax: float, bound: float = math.inf, limit: float | None = None) -> bool:
    """The pass rule of every certificate: ``min > 0`` and ``max <= bound``.

    Under a band ``limit``, ``max`` must also be finite and ``max / min <= limit``.
    A NaN fails every comparison, so it always fails.
    """
    return vmin > 0.0 and vmax <= bound and (limit is None or (math.isfinite(vmax) and vmax / vmin <= limit))


def _certificate(
    name: str, parts, sample: HemisphereSample, params: PhysicalParams, bound: float = math.inf, limit: float | None = None
) -> BoundCertificate:
    """The certificate of merged per-chunk ``(count, min, max)`` under :func:`_passes`; an empty stratum FAILs."""
    count, vmin, vmax = _merge(parts)
    floor, mach = sample.gamma_floor, params.mach
    if count == 0:
        return BoundCertificate(name, math.nan, math.nan, 0, floor, mach, False, {"reason": "empty stratum"})
    return BoundCertificate(name, vmin, vmax, count, floor, mach, _passes(vmin, vmax, bound, limit))


def _root_factor_distance(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """min(|tau - i c Y2 eta|, |tau + i c Y2 eta|) pointwise."""
    cy = params.c * root_constants(params)
    tau, eta = freqs.tau, freqs.eta
    return np.minimum(np.abs(tau - 1j * cy * eta), np.abs(tau + 1j * cy * eta))


def _in_root_tubes(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """Points within angular distance TUBE_RADIUS of a root point."""
    g, d, e = freqs.gamma, freqs.delta, freqs.eta
    dots = functools.reduce(np.maximum, (g * r[0] + d * r[1] + e * r[2] for r in root_points(params)))
    return np.arccos(np.clip(dots, -1.0, 1.0)) <= TUBE_RADIUS


def _power_of_two_scalings(count: int, seed: int) -> np.ndarray:
    """Random exact powers of two in (0, 1e3].

    Rescaling by an exact power of two commutes bit-for-bit with IEEE
    arithmetic, so the check isolates genuine homogeneity defects instead
    of the rounding noise that generic factors pick up near the root
    curves, where the symbol's condition number is 1/distance.
    """
    rng = np.random.default_rng(seed)
    return 2.0 ** rng.integers(-20, 10, size=count).astype(np.float64)


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

    Homogeneity is checked pointwise in the same pass: point ``i`` is
    rescaled by the ``i mod 10``-th of ten random powers of two, and
    ``homogeneity_deviation`` is the largest relative change of its ratio.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the sandwich bound is certified in the weakly stable regime only")
    scalings = _power_of_two_scalings(_N_SCALINGS, seed)

    def ratios(freqs: Frequency) -> tuple[np.ndarray, np.ndarray]:
        sig = big_sigma(freqs, params)
        wgt = np.abs(weight_sigma(freqs, params))
        lam = freqs.lam
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(sig) / (wgt * lam), wgt / lam

    def chunk(start: int, stop: int):
        freqs = sample.freqs[start:stop]
        ratio, weight_over_lam = ratios(freqs)
        rescaled, _ = ratios(freqs.scaled(scalings[np.arange(start, stop) % _N_SCALINGS]))
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.max(np.abs(rescaled - ratio) / ratio)
        near = _in_root_tubes(freqs, params)
        return _extrema(ratio), _extrema(ratio, near), _extrema(weight_over_lam), dev

    whole, near, weight_over_lam, devs = zip(*map_chunks(chunk, len(sample), _CHUNK))
    cert = _certificate("abs_sigma_big_over_weight_lambda", whole, sample, params, limit=explosion_threshold)
    near_count, near_min, near_max = _merge(near)
    cert.extras = {"weight_over_lambda_max": _merge(weight_over_lam)[2], "near_root_count": near_count}
    if near_count:
        cert.extras.update(near_root_min=near_min, near_root_max=near_max)
        cert.passed = cert.passed and _passes(near_min, near_max, limit=explosion_threshold)
    if cert.passed:
        dev = float(np.max(devs))
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
    C), |sigma|/Lambda (bounded above, by the Cauchy-Schwarz constant of
    :func:`weight_bound_constant` too), |sigma|/dist near the root tubes
    (dist the distance to the nearest root line), and |sigma|/Lambda away
    from the tubes (bounded above and below: sigma is elliptic there).
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("weight bounds are defined in the weakly stable regime only")

    def chunk(start: int, stop: int):
        freqs = sample.freqs[start:stop]
        wabs = np.abs(weight_sigma(freqs, params))
        near = _in_root_tubes(freqs, params)
        dist = _root_factor_distance(freqs, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            over_gamma = wabs / freqs.gamma
            over_lam = wabs / freqs.lam
            over_dist = wabs / dist
        return _extrema(over_gamma), _extrema(over_lam), _extrema(over_dist, near), _extrema(over_lam, ~near)

    over_gamma, over_lam, over_dist, over_lam_far = zip(*map_chunks(chunk, len(sample), _CHUNK))
    return [
        _certificate("weight_over_gamma", over_gamma, sample, params),
        _certificate("weight_over_lambda", over_lam, sample, params, weight_bound_constant(params), explosion_threshold),
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
        q = np.abs(big_sigma(freqs, params)) / r
        return float(np.min(q)), float(np.max(q))

    qmin, qmax = band(radius)
    smin, smax = band(radius * _SHRINK)
    center_outer = math.sqrt(qmin * qmax)
    center_inner = math.sqrt(smin * smax)
    drift = abs(center_inner / center_outer - 1.0)
    ok = _passes(qmin, qmax, limit=_BAND_LIMIT) and _passes(smin, smax, limit=_BAND_LIMIT) and drift <= _DRIFT_LIMIT
    return BoundCertificate(
        ratio_name="simple_root_quotient",
        empirical_min=qmin,
        empirical_max=qmax,
        sample_size=2 * n_points,
        gamma_floor=0.0,
        mach=params.mach,
        passed=ok,
        extras={
            "radius": radius,
            "band_ratio": qmax / qmin,
            "shrunk_band_ratio": smax / smin,
            "center_drift": drift,
            "quotient_level": center_outer,
        },
    )
