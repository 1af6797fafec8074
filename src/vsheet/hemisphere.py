"""Empirical bound certificates on the unit frequency hemisphere.

The weighted estimates for the front equation rest on a handful of
pointwise comparisons between |Sigma|, the weight sigma and the frequency
modulus Lambda.  All of them are homogeneous of degree zero, so it is
enough to check them on the compact hemisphere

    Xi_1 = { gamma^2 + delta^2 + eta^2 = 1,  gamma >= 0 }.

This module samples that hemisphere (optionally stratifying near the
marginal root curves, which is where the comparisons are delicate),
evaluates the ratios on the sample and packages the empirical extrema as
certificates.  Certificates are evidence obtained by dense sampling, not
proofs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .symbols import (
    Frequency,
    PhysicalParams,
    Regime,
    big_sigma,
    root_constants,
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

_CHUNK = 131072


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
    strategy: SampleStrategy
    gamma_floor: float
    seed: int

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
        rec = {
            "ratio_name": self.ratio_name,
            "empirical_min": self.empirical_min,
            "empirical_max": self.empirical_max,
            "sample_size": self.sample_size,
            "gamma_floor": self.gamma_floor,
            "mach": self.mach,
            "pass": self.passed,
        }
        if self.extras:
            rec["extras"] = self.extras
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
    """Map unit-square points to the spherical zone gamma in [floor, 1]."""
    z = gamma_floor + (1.0 - gamma_floor) * u[:, 0]
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = 2.0 * np.pi * u[:, 1]
    return np.column_stack([z, r * np.cos(phi), r * np.sin(phi)])


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


def _near_root_points(u: np.ndarray, roots: np.ndarray, gamma_floor: float) -> np.ndarray:
    """Points within angular distance TUBE_RADIUS of the root points."""
    n = u.shape[0]
    centers = roots[np.arange(n) % len(roots)]
    # orthonormal tangent frame at each center
    aux = np.zeros_like(centers)
    aux[:, 0] = 1.0  # gamma axis is never parallel to a root point
    e1 = np.cross(centers, aux)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(centers, e1)
    rho = TUBE_RADIUS * np.sqrt(u[:, 0])
    alpha = 2.0 * np.pi * u[:, 1]
    pts = (
        np.cos(rho)[:, None] * centers
        + np.sin(rho)[:, None] * (np.cos(alpha)[:, None] * e1 + np.sin(alpha)[:, None] * e2)
    )
    # enforce the gamma floor, then put the point back on the sphere by
    # rescaling the (delta, eta) block
    g = np.clip(pts[:, 0], gamma_floor, None)
    tang = np.sqrt(pts[:, 1] ** 2 + pts[:, 2] ** 2)
    scale = np.sqrt(np.clip(1.0 - g * g, 0.0, None)) / tang
    return np.column_stack([g, pts[:, 1] * scale, pts[:, 2] * scale])


def sample_hemisphere(
    n: int,
    strategy: SampleStrategy = SampleStrategy.QUASI_RANDOM,
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
    u = _unit_square(n, strategy, seed)
    if strategy is SampleStrategy.STRATIFIED_NEAR_ROOTS:
        if params is None:
            raise ValueError("stratified sampling needs params to locate the root curves")
        roots = root_points(params)
        pts = _zone_points(u, gamma_floor)
        near = np.arange(n) % _STRATUM_EVERY == 0
        if np.any(near):
            pts[near] = _near_root_points(u[near], roots, gamma_floor)
    else:
        pts = _zone_points(u, gamma_floor)
    freqs = Frequency(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.all(np.abs(freqs.lam - 1.0) <= 1e-12)
    return HemisphereSample(freqs=freqs, strategy=strategy, gamma_floor=gamma_floor, seed=seed)


def _worker_count() -> int | None:
    raw = os.environ.get("VFS_THREADS", "").strip()
    if not raw:
        return None
    count = int(raw)
    if count < 1:
        raise ValueError(f"VFS_THREADS must be a positive integer, got {raw!r}")
    return count


def _map_chunks(fn, freqs: Frequency) -> list:
    """``fn(start, freqs[start:start + _CHUNK])`` for every chunk, on the worker pool.

    Chunk boundaries depend only on the sample size and the results come
    back in chunk order, so a reduction over them does not depend on the
    number of threads.  A scalar frequency is treated as a one-point batch.
    """
    if freqs.is_scalar:
        freqs = Frequency(*np.atleast_1d(freqs.gamma, freqs.delta, freqs.eta))
    starts = range(0, freqs.size, _CHUNK)

    def run(start: int):
        return fn(start, freqs[start : start + _CHUNK])

    workers = _worker_count()
    if len(starts) == 1 or workers == 1:
        return [run(start) for start in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, starts))


def _extrema(values: np.ndarray, where=True) -> tuple[int, float, float]:
    """(count, min, max) of ``values`` where ``where`` holds; empty gives (0, inf, -inf)."""
    count = values.size if where is True else int(np.count_nonzero(where))
    return count, np.min(values, where=where, initial=np.inf), np.max(values, where=where, initial=-np.inf)


def _merge(parts) -> tuple[int, float, float]:
    """Combine per-chunk extrema; a NaN anywhere propagates, as in np.min."""
    counts, mins, maxs = zip(*parts)
    return int(sum(counts)), float(np.min(mins)), float(np.max(maxs))


def _root_factor_distance(freqs: Frequency, params: PhysicalParams) -> np.ndarray:
    """min(|tau - i c Y2 eta|, |tau + i c Y2 eta|) pointwise."""
    cy = params.c * root_constants(params)
    tau = np.asarray(freqs.tau)
    eta = np.asarray(freqs.eta)
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
    n_scalings: int = 10,
    seed: int = 0,
) -> BoundCertificate:
    """Certify |sigma| * Lambda <= C1 |Sigma| <= C2 |sigma| * Lambda on the sample.

    The certified ratio is |Sigma| / (|sigma| * Lambda); both factors vanish
    linearly at the root curves, so their quotient must stay inside a fixed
    positive band if and only if every root of Sigma is simple and carried
    by the weight.  The certificate FAILs (rather than raising) when the
    empirical band explodes.

    Homogeneity is checked pointwise in the same pass: point ``i`` is
    rescaled by the ``i mod n_scalings``-th of ``n_scalings`` random powers
    of two, and ``homogeneity_deviation`` is the largest relative change of
    its ratio.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the sandwich bound is certified in the weakly stable regime only")
    scalings = _power_of_two_scalings(n_scalings, seed)

    def ratios(freqs: Frequency) -> tuple[np.ndarray, np.ndarray]:
        sig = big_sigma(freqs, params)
        wgt = np.abs(weight_sigma(freqs, params))
        lam = np.asarray(freqs.lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(sig) / (wgt * lam), wgt / lam

    def chunk(start: int, freqs: Frequency):
        ratio, weight_over_lam = ratios(freqs)
        dev = 0.0
        if n_scalings:
            k = scalings[np.arange(start, start + freqs.size) % n_scalings]
            rescaled, _ = ratios(freqs.scaled(k))
            with np.errstate(divide="ignore", invalid="ignore"):
                dev = np.max(np.abs(rescaled - ratio) / ratio)
        near = _in_root_tubes(freqs, params)
        return _extrema(ratio), _extrema(ratio, near), _extrema(weight_over_lam), dev

    whole, near, weight_over_lam, devs = zip(*_map_chunks(chunk, sample.freqs))
    _, rmin, rmax = _merge(whole)
    near_count, near_min, near_max = _merge(near)
    extras = {
        "weight_over_lambda_max": _merge(weight_over_lam)[2],
        "near_root_count": near_count,
    }
    ok = math.isfinite(rmax) and rmin > 0.0 and rmax / rmin <= explosion_threshold
    if near_count:
        extras["near_root_min"] = near_min
        extras["near_root_max"] = near_max
        ok = ok and near_min > 0.0 and math.isfinite(near_max)
    if ok:
        dev = float(np.max(devs))
        extras["homogeneity_deviation"] = dev
        ok = dev <= 1e-12
    return BoundCertificate(
        ratio_name="abs_sigma_big_over_weight_lambda",
        empirical_min=rmin,
        empirical_max=rmax,
        sample_size=len(sample),
        gamma_floor=sample.gamma_floor,
        mach=params.mach,
        passed=ok,
        extras=extras,
    )


def certify_weight_bounds(
    sample: HemisphereSample,
    params: PhysicalParams,
    explosion_threshold: float = 1e8,
) -> list[BoundCertificate]:
    """Certify the pointwise comparisons satisfied by the weight.

    Four ratios are recorded: |sigma|/gamma (bounded below by the certified
    C), |sigma|/Lambda (bounded above), |sigma|/dist near the root tubes
    (dist the distance to the nearest root line), and |sigma|/Lambda away
    from the tubes (bounded above and below: sigma is elliptic there).
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("weight bounds are defined in the weakly stable regime only")

    def chunk(start: int, freqs: Frequency):
        wabs = np.abs(weight_sigma(freqs, params))
        near = _in_root_tubes(freqs, params)
        dist = _root_factor_distance(freqs, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            over_gamma = wabs / np.asarray(freqs.gamma)
            over_lam = wabs / np.asarray(freqs.lam)
            over_dist = wabs / dist
        return _extrema(over_gamma), _extrema(over_lam), _extrema(over_dist, near), _extrema(over_lam, ~near)

    def cert(name, parts, *, lower=True, upper=False):
        count, vmin, vmax = _merge(parts)
        if count == 0:
            return BoundCertificate(
                ratio_name=name,
                empirical_min=math.nan,
                empirical_max=math.nan,
                sample_size=0,
                gamma_floor=sample.gamma_floor,
                mach=params.mach,
                passed=False,
                extras={"reason": "empty stratum"},
            )
        ok = math.isfinite(vmax) or not upper
        if lower:
            ok = ok and vmin > 0.0
        if upper:
            ok = ok and math.isfinite(vmax)
        if lower and upper:
            ok = ok and vmax / vmin <= explosion_threshold
        return BoundCertificate(
            ratio_name=name,
            empirical_min=vmin,
            empirical_max=vmax,
            sample_size=count,
            gamma_floor=sample.gamma_floor,
            mach=params.mach,
            passed=bool(ok),
        )

    over_gamma, over_lam, over_dist, over_lam_far = zip(*_map_chunks(chunk, sample.freqs))
    return [
        cert("weight_over_gamma", over_gamma, lower=True, upper=False),
        cert("weight_over_lambda", over_lam, lower=True, upper=True),
        cert("weight_over_root_distance", over_dist, lower=True, upper=True),
        cert("weight_over_lambda_far", over_lam_far, lower=True, upper=True),
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
    eta_sign: float = 1.0,
    tolerance: float = 1e-8,
    zero_threshold: float = 1e-6,
    bracket_frac: float = 0.2,
    xtol: float = 1e-12,
) -> float:
    """Find the root of |Sigma| at |eta| = 1 by bracketed golden section.

    Weakly stable regime: searches delta around the closed form c*Y2 on the
    boundary gamma = 0 and returns the root coordinate delta* (signed like
    ``eta_sign``).  Elliptic regime: searches the real axis delta = 0 and
    returns the root abscissa gamma* near c*Y1.  Raises NoRootFound when
    the bracketed minimum is not an actual zero or disagrees with the
    closed form beyond ``tolerance`` (relative).
    """
    regime = params.regime()
    if regime is Regime.DEGENERATE:
        raise ValueError("roots are not isolated at mach = sqrt(2)")
    eta = float(np.sign(eta_sign)) or 1.0
    cy = params.c * root_constants(params)

    if regime is Regime.WEAKLY_STABLE:
        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(0.0, x * eta, eta), params))
    else:
        def objective(x: float) -> float:
            return abs(big_sigma(Frequency(x, 0.0, eta), params))

    lo, hi = (1.0 - bracket_frac) * cy, (1.0 + bracket_frac) * cy
    best = _golden_section(objective, lo, hi, xtol * cy)
    lam2 = best * best + 1.0
    if objective(best) > zero_threshold * lam2:
        raise NoRootFound(
            f"minimum |Sigma| = {objective(best):.3e} at coordinate {best:.12g} "
            f"is above the zero threshold {zero_threshold * lam2:.3e}"
        )
    if abs(best - cy) > tolerance * cy:
        raise NoRootFound(
            f"located root {best:.15g} disagrees with closed form {cy:.15g} "
            f"beyond relative tolerance {tolerance:g}"
        )
    return best * eta if regime is Regime.WEAKLY_STABLE else best


def certify_simple_root(
    params: PhysicalParams,
    radius: float = 1e-3,
    n_points: int = 360,
    shrink: float = 0.5,
    band_limit: float = 2.0,
    drift_limit: float = 0.05,
    center: Frequency | None = None,
    eta_sign: float = 1.0,
) -> BoundCertificate:
    """Certify that the marginal root of Sigma is simple.

    Evaluates the quotient |Sigma| / |tau - i c Y2 eta| on arcs of radius
    ``radius`` and ``radius * shrink`` around the root point (restricted to
    the admissible half-plane gamma >= 0).  A simple root keeps the
    quotient inside a narrow band whose level does not move as the radius
    shrinks; a higher-order zero drags the level down proportionally to the
    radius, which fails the drift check.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("the imaginary root pair exists in the weakly stable regime only")
    cy = params.c * root_constants(params)
    if center is None:
        eta0 = float(np.sign(eta_sign) or 1.0) / math.sqrt(1.0 + cy * cy)
        delta0 = cy * eta0
    else:
        if not center.is_scalar:
            raise ValueError("center must be a single frequency")
        unit, _ = center.normalized()
        eta0, delta0, g0 = float(unit.eta), float(unit.delta), float(unit.gamma)
        if min(abs(delta0 - cy * eta0), abs(delta0 + cy * eta0)) > 1e-9 or g0 > 1e-9:
            raise ValueError("center does not lie on a root curve of the symbol")
        delta0 = math.copysign(cy * abs(eta0), delta0)
    phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_points)

    def band(r: float) -> tuple[float, float]:
        freqs = Frequency(r * np.cos(phi), delta0 + r * np.sin(phi), np.full_like(phi, eta0))
        q = np.abs(big_sigma(freqs, params)) / r
        return float(np.min(q)), float(np.max(q))

    qmin, qmax = band(radius)
    smin, smax = band(radius * shrink)
    center_outer = math.sqrt(qmin * qmax)
    center_inner = math.sqrt(smin * smax)
    drift = abs(center_inner / center_outer - 1.0)
    ok = (
        qmin > 0.0
        and smin > 0.0
        and qmax / qmin <= band_limit
        and smax / smin <= band_limit
        and drift <= drift_limit
    )
    return BoundCertificate(
        ratio_name="simple_root_quotient",
        empirical_min=qmin,
        empirical_max=qmax,
        sample_size=2 * n_points,
        gamma_floor=0.0,
        mach=params.mach,
        passed=bool(ok),
        extras={
            "radius": radius,
            "band_ratio": qmax / qmin,
            "shrunk_band_ratio": smax / smin,
            "center_drift": drift,
            "quotient_level": center_outer,
        },
    )
