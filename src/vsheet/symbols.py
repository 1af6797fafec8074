"""Frequency-space symbols of the linearized vortex-sheet front equation.

After a Laplace transform in time (dual variable ``tau = gamma + i*delta``,
``gamma >= 0``) and a Fourier transform along the sheet (dual variable
``eta``), the evolution of the front reduces to multiplication by a scalar
second-order symbol.  This module evaluates that symbol, the two vertical
decay exponents ``mu_pm`` that enter it, the closed-form root constants,
and the degree-one weight that measures the distance to the marginal zeros
of the symbol in the weakly stable regime.

Every quantity here is positively homogeneous in ``(gamma, delta, eta)``.
Evaluation therefore normalizes the frequency onto the unit sphere first
and rescales the result afterwards, which keeps huge and tiny frequencies
well conditioned and makes rescaling checks exact.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Union

import numpy as np

__all__ = [
    "Regime",
    "PhysicalParams",
    "Frequency",
    "NumericalGuard",
    "DegenerateDenominator",
    "mu_pm",
    "big_sigma",
    "weight_sigma",
    "root_constants",
    "weight_bound_constant",
]

SQRT2 = math.sqrt(2.0)

# Half-width of the band around mach = sqrt(2) that is reported as Degenerate.
REGIME_TOL = 1e-9

# Relative gamma shift used when the continuous extension of the symbol is
# requested at a point where mu+ + mu- vanishes (tau = 0, supersonic jump).
BRANCH_EPS = 1e-9

# |mu+ + mu-| below this threshold (on the unit sphere) counts as vanishing.
DEGENERATE_TOL = 1e-10

ArrayLike = Union[float, np.ndarray]


class NumericalGuard(Exception):
    """A numerical guard refused to return an untrustworthy value.

    Base of :class:`DegenerateDenominator`, ``front.SymbolTooSmall``,
    ``front.QuadratureUnderResolved`` and ``pressure.DecayViolated``; ``vfs``
    reports any of them in one line with exit code 3.
    """


class DegenerateDenominator(NumericalGuard, ArithmeticError):
    """The symbol was evaluated where mu+ + mu- vanishes.

    This only happens on the boundary gamma = 0 at tau = 0 when the jump is
    supersonic.  Pass ``extend=True`` to evaluate the continuous extension
    instead of raising.
    """


class Regime(enum.Enum):
    """Stability class of the background state."""

    ELLIPTIC = "Elliptic"
    WEAKLY_STABLE = "WeaklyStable"
    DEGENERATE = "Degenerate"


@dataclasses.dataclass(frozen=True)
class PhysicalParams:
    """Background state: half jump ``v`` of tangential velocity, sound speed ``c``.

    The dimensionless ratio ``mach = v / c`` decides the regime: below
    sqrt(2) the front symbol has a real unstable root (``Elliptic``), above
    sqrt(2) its roots sit on the imaginary axis and the problem is weakly
    stable.
    """

    v: float
    c: float

    def __post_init__(self) -> None:
        for name in ("v", "c"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")

    @property
    def mach(self) -> float:
        return self.v / self.c

    def regime(self) -> Regime:
        m = self.mach
        if abs(m - SQRT2) < REGIME_TOL:
            return Regime.DEGENERATE
        return Regime.ELLIPTIC if m < SQRT2 else Regime.WEAKLY_STABLE


def _as_field(x) -> ArrayLike:
    arr = np.asarray(x, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else arr


@dataclasses.dataclass(frozen=True)
class Frequency:
    """A point ``(gamma, delta, eta)`` of the frequency domain, or an array of them.

    ``gamma >= 0`` is the Laplace abscissa, ``delta`` the time frequency and
    ``eta`` the tangential wave number.  The origin is excluded.  Fields may
    be scalars or broadcast-compatible numpy arrays; all symbol evaluations
    are elementwise.
    """

    gamma: ArrayLike
    delta: ArrayLike
    eta: ArrayLike

    def __post_init__(self) -> None:
        g, d, e = (_as_field(v) for v in (self.gamma, self.delta, self.eta))
        if any(isinstance(x, np.ndarray) for x in (g, d, e)):
            g, d, e = np.broadcast_arrays(
                np.asarray(g, dtype=np.float64),
                np.asarray(d, dtype=np.float64),
                np.asarray(e, dtype=np.float64),
            )
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "eta", e)
        if np.any(np.asarray(g) < 0):
            raise ValueError("gamma must be nonnegative")
        lam2 = np.asarray(g) ** 2 + np.asarray(d) ** 2 + np.asarray(e) ** 2
        if not np.all(np.isfinite(lam2)):
            raise ValueError("frequency components must be finite")
        if np.any(lam2 == 0.0):
            raise ValueError("the origin (0, 0, 0) is not an admissible frequency")

    @property
    def is_scalar(self) -> bool:
        return not isinstance(self.gamma, np.ndarray)

    @property
    def size(self) -> int:
        return 1 if self.is_scalar else self.gamma.size

    @property
    def tau(self) -> Union[complex, np.ndarray]:
        return self.gamma + 1j * np.asarray(self.delta)

    @property
    def lam(self) -> ArrayLike:
        """Frequency modulus Lambda = sqrt(gamma^2 + delta^2 + eta^2)."""
        lam = np.sqrt(
            np.asarray(self.gamma) ** 2
            + np.asarray(self.delta) ** 2
            + np.asarray(self.eta) ** 2
        )
        return float(lam) if self.is_scalar else lam

    def scaled(self, k: ArrayLike) -> "Frequency":
        """Multiply by ``k > 0``: a scalar, or an array broadcast against the fields."""
        if not np.all(np.isfinite(k) & (np.asarray(k) > 0)):
            raise ValueError(f"scaling must be positive and finite, got {k!r}")
        return Frequency(k * np.asarray(self.gamma), k * np.asarray(self.delta), k * np.asarray(self.eta))

    def __getitem__(self, idx) -> "Frequency":
        # every point of a validated batch is admissible: skip __post_init__
        part = object.__new__(Frequency)
        for name in ("gamma", "delta", "eta"):
            object.__setattr__(part, name, _as_field(np.asarray(getattr(self, name))[idx]))
        return part


def _unit_parts(freq: Frequency):
    """The unit-sphere components (gamma, delta, eta) of ``freq`` as arrays, and Lambda.

    The symbol kernels normalize through this instead of building a second,
    re-validated :class:`Frequency`.
    """
    g, d, e = np.asarray(freq.gamma), np.asarray(freq.delta), np.asarray(freq.eta)
    lam = np.sqrt(g**2 + d**2 + e**2)
    return g / lam, d / lam, e / lam, lam


def _match(freq: Frequency, value: np.ndarray):
    """Return plain complex for scalar frequencies, ndarray otherwise."""
    if freq.is_scalar:
        return complex(np.asarray(value).reshape(()))
    return value


def _mu_branch(gamma, delta, eta, v, c, sign):
    """One decay exponent sqrt(((tau + sign*i*v*eta)/c)^2 + eta^2).

    The principal branch keeps Re >= 0 and is the analytic continuation
    from gamma > 0.  On the branch cut (gamma = 0 with a negative real
    radicand) the principal value is ambiguous; there the limit from
    gamma -> 0+ is i * sign(delta + sign*v*eta) * sqrt(-radicand), which is
    what we return.
    """
    shifted = delta + sign * v * eta
    w = (gamma + 1j * shifted) / c
    z = w * w + eta * eta
    mu = np.sqrt(z.astype(np.complex128, copy=False))
    on_cut = (z.imag == 0) & (z.real < 0)
    if np.any(on_cut):
        # sqrt(-Re z) only on the cut: elsewhere it is discarded, and evaluating
        # it where Re z > 0 would warn about an invalid value
        root = np.sqrt(-z.real, where=on_cut, out=np.zeros(np.shape(z)))
        mu = np.where(on_cut, 1j * np.sign(shifted) * root, mu)
    return mu


def mu_pm(freq: Frequency, params: PhysicalParams):
    """Both vertical decay exponents (mu+, mu-) at ``freq``.

    These are the unique square roots with nonnegative real part; for
    gamma > 0 the real part is strictly positive, so perturbations carried
    by ``exp(-mu * x2)`` decay away from the sheet on either side.
    Homogeneous of degree one.
    """
    g, d, e, lam = _unit_parts(freq)
    mup = _mu_branch(g, d, e, params.v, params.c, +1.0)
    mum = _mu_branch(g, d, e, params.v, params.c, -1.0)
    positive = np.where(g > 0, (mup.real > 0) & (mum.real > 0), (mup.real >= 0) & (mum.real >= 0))
    assert np.all(positive), "branch selection produced a negative real part"
    return _match(freq, lam * mup), _match(freq, lam * mum)


def _sigma_unit(g, d, e, params: PhysicalParams, extend: bool):
    v, c = params.v, params.c
    mup = _mu_branch(g, d, e, v, c, +1.0)
    mum = _mu_branch(g, d, e, v, c, -1.0)
    den = mup + mum
    tau = g + 1j * d
    vanishing = np.abs(den) < DEGENERATE_TOL
    if np.any(vanishing):
        if not extend:
            raise DegenerateDenominator(
                "mu+ + mu- vanishes at tau = 0 for a supersonic jump; "
                "pass extend=True to evaluate the continuous extension"
            )
        # Continuous extension: step inward to gamma = BRANCH_EPS (the
        # sample sits on the unit sphere, so this is a relative shift) and
        # evaluate the full symbol there.  tau/(mu+ + mu-) has a finite
        # limit, which the shifted evaluation approaches to O(BRANCH_EPS).
        g_ext = np.where(vanishing, g + BRANCH_EPS, g)
        mup_e = _mu_branch(g_ext, d, e, v, c, +1.0)
        mum_e = _mu_branch(g_ext, d, e, v, c, -1.0)
        tau = np.where(vanishing, g_ext + 1j * d, tau)
        den = np.where(vanishing, mup_e + mum_e, den)
    ratio = (tau / c) / den
    return tau * tau + (v * e) ** 2 * (8.0 * ratio * ratio - 1.0)


def big_sigma(freq: Frequency, params: PhysicalParams, *, extend: bool = False):
    """The front symbol Sigma(tau, eta), homogeneous of degree two.

    Sigma = tau^2 + v^2 eta^2 * (8 * ((tau/c) / (mu+ + mu-))^2 - 1).

    Its zeros decide stability: a real root tau = c*Y1*|eta| below
    mach = sqrt(2), a pair of simple imaginary roots tau = +-i*c*Y2*eta
    above.  ``extend=True`` enables the continuous extension at the lone
    points where mu+ + mu- vanishes (tau = 0, supersonic jump); the default
    is to raise :class:`DegenerateDenominator` there.
    """
    g, d, e, lam = _unit_parts(freq)
    val = _sigma_unit(g, d, e, params, extend)
    return _match(freq, lam**2 * val)


def root_constants(params: PhysicalParams) -> float:
    """The positive root constant of the symbol for the current regime.

    Elliptic (mach < sqrt(2)):      Y1 = sqrt(sqrt(4 M^2 + 1) - (M^2 + 1)),
    root of Sigma at real tau = c * Y1 * |eta|.
    Weakly stable (mach > sqrt(2)): Y2 = sqrt(M^2 + 1 - sqrt(4 M^2 + 1)),
    simple roots at tau = +-i * c * Y2 * eta.
    """
    regime = params.regime()
    if regime is Regime.DEGENERATE:
        raise ValueError("root constant is not defined at mach = sqrt(2)")
    m2 = params.mach**2
    disc = math.sqrt(4.0 * m2 + 1.0)
    if regime is Regime.ELLIPTIC:
        return math.sqrt(disc - (m2 + 1.0))
    return math.sqrt(m2 + 1.0 - disc)


def weight_sigma(freq: Frequency, params: PhysicalParams):
    """Degree-one weight vanishing exactly at the marginal roots of Sigma.

    sigma = (tau - i c Y2 eta)(tau + i c Y2 eta) / Lambda.  Only defined in
    the weakly stable regime.  Comparable to gamma from below and to Lambda
    from above, which is what makes the weighted estimates close.
    """
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("weight_sigma requires the weakly stable regime (mach > sqrt(2))")
    y2 = root_constants(params)
    g, d, e, lam = _unit_parts(freq)
    tau = g + 1j * d
    shift = 1j * (params.c * y2) * e
    val = (tau - shift) * (tau + shift)
    return _match(freq, lam * val)


def weight_bound_constant(params: PhysicalParams) -> float:
    """Certified constant K with |sigma| <= K * Lambda (Cauchy-Schwarz bound)."""
    y2 = root_constants(params)
    return 1.0 + (params.c * y2) ** 2

