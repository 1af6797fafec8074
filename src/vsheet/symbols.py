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

A :class:`Frequency` is always a batch of float64 arrays; a single point
is a 0-d batch.  Every function here is elementwise, so a point gives
numpy scalars (``np.complex128``, a subclass of ``complex``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

__all__ = [
    "Regime",
    "PhysicalParams",
    "Frequency",
    "NumericalGuard",
    "DegenerateDenominator",
    "InternalCheckFailed",
    "mu_pm",
    "big_sigma",
    "weight_sigma",
    "root_constants",
    "glancing_gap",
    "weight_bound_constant",
]

SQRT2 = math.sqrt(2.0)

# Half-width of the band around mach = sqrt(2) that is reported as Degenerate.
REGIME_TOL = 1e-9

# |mu+ + mu-| below this threshold (on the unit sphere) counts as vanishing.
DEGENERATE_TOL = 1e-10


class NumericalGuard(Exception):
    """A numerical guard refused to return an untrustworthy value.

    Every guard and internal check of vsheet derives from it; ``vfs``
    reports each in one line with exit code 3.
    """


class DegenerateDenominator(NumericalGuard, ArithmeticError):
    """The symbol was evaluated where mu+ + mu- vanishes.

    This only happens on the boundary gamma = 0 at tau = 0 when the jump is
    supersonic.
    """


class InternalCheckFailed(NumericalGuard, RuntimeError):
    """A result broke an invariant the code guarantees: a sample point off the hemisphere, or Re mu < 0."""


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


@dataclasses.dataclass(frozen=True)
class Frequency:
    """A batch of points ``(gamma, delta, eta)`` of the frequency domain.

    ``gamma >= 0`` is the Laplace abscissa, ``delta`` the time frequency and
    ``eta`` the tangential wave number.  The origin is excluded.  The fields
    are broadcast to float64 arrays of one shape; a single point, such as
    ``Frequency(1.0, 0.0, 1.0)`` or ``mesh[it, ix]``, is a 0-d batch.  All
    symbol evaluations are elementwise.
    """

    gamma: np.ndarray
    delta: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        g, d, e = np.broadcast_arrays(
            *(np.asarray(v, dtype=np.float64) for v in (self.gamma, self.delta, self.eta))
        )
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "eta", e)
        if np.any(g < 0):
            raise ValueError("gamma must be nonnegative")
        with np.errstate(over="ignore"):
            lam2 = g**2 + d**2 + e**2
        if not np.all(np.isfinite(lam2)):
            if not all(np.all(np.isfinite(x)) for x in (g, d, e)):
                raise ValueError("frequency components must be finite")
            largest = max(float(np.max(np.abs(x))) for x in (g, d, e))
            raise ValueError(f"the frequency modulus overflows double precision: the largest component is {largest:.6g}")
        if np.any(lam2 == 0.0):
            raise ValueError("the origin (0, 0, 0) is not an admissible frequency")

    @property
    def size(self) -> int:
        return self.gamma.size

    @property
    def tau(self):
        return self.gamma + 1j * self.delta

    # Lambda and the unit-sphere point are computed on first use and kept, so every
    # kernel that reads one batch shares them
    @functools.cached_property
    def lam(self):
        """Frequency modulus Lambda = sqrt(gamma^2 + delta^2 + eta^2)."""
        return np.sqrt(self.gamma**2 + self.delta**2 + self.eta**2)

    @functools.cached_property
    def unit(self):
        """The unit-sphere point (gamma, delta, eta) / Lambda, as three arrays."""
        return self.gamma / self.lam, self.delta / self.lam, self.eta / self.lam

    def scaled(self, k) -> "Frequency":
        """Multiply by ``k > 0``: a scalar, or an array broadcast against the fields."""
        if not np.all(np.isfinite(k) & (np.asarray(k) > 0)):
            raise ValueError(f"scaling must be positive and finite, got {k!r}")
        return Frequency(k * self.gamma, k * self.delta, k * self.eta)

    def __getitem__(self, idx) -> "Frequency":
        """The points at ``idx``, indexed as numpy indexes each field.

        A trailing ``...`` makes integer indices, such as ``mesh[it, ix]``,
        give 0-d views rather than numpy scalars that would need converting.
        """
        key = idx if isinstance(idx, tuple) else (idx,)
        if type(Ellipsis) not in map(type, key):
            key += (Ellipsis,)
        return Frequency._trusted(self.gamma[key], self.delta[key], self.eta[key])

    @classmethod
    def _trusted(cls, gamma, delta, eta) -> "Frequency":
        """A batch of points known to be admissible, as float64 arrays of one shape, such as a validated batch's.

        It is built without ``__post_init__`` and without converting the fields.
        """
        freq = object.__new__(cls)
        vars(freq).update(gamma=gamma, delta=delta, eta=eta)
        return freq


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
    mup, mum = _mu_unit(*freq.unit, params)
    return freq.lam * mup, freq.lam * mum


def _mu_unit(g, d, e, params: PhysicalParams):
    mup = _mu_branch(g, d, e, params.v, params.c, +1.0)
    mum = _mu_branch(g, d, e, params.v, params.c, -1.0)
    positive = np.where(g > 0, (mup.real > 0) & (mum.real > 0), (mup.real >= 0) & (mum.real >= 0))
    if not np.all(positive):
        raise InternalCheckFailed("branch selection produced a negative real part")
    return mup, mum


def _sigma_unit(g, d, e, den, params: PhysicalParams):
    v, c = params.v, params.c
    if np.any(np.abs(den) < DEGENERATE_TOL):
        raise DegenerateDenominator("mu+ + mu- vanishes at tau = 0 for a supersonic jump")
    tau = g + 1j * d
    ratio = (tau / c) / den
    return tau * tau + (v * e) ** 2 * (8.0 * ratio * ratio - 1.0)


def big_sigma(freq: Frequency, params: PhysicalParams):
    """The front symbol Sigma(tau, eta), homogeneous of degree two.

    Sigma = tau^2 + v^2 eta^2 * (8 * ((tau/c) / (mu+ + mu-))^2 - 1).

    Its zeros decide stability: a real root tau = c*Y1*|eta| below
    mach = sqrt(2), a pair of simple imaginary roots tau = +-i*c*Y2*eta
    above.  At the lone points where mu+ + mu- vanishes (tau = 0,
    supersonic jump) it raises :class:`DegenerateDenominator`.
    """
    # the branches are freed once summed, before Sigma's temporaries are made
    den = np.add(*_mu_unit(*freq.unit, params))
    return freq.lam**2 * _sigma_unit(*freq.unit, den, params)


def root_constants(params: PhysicalParams) -> float:
    """The positive root constant of the symbol for the current regime.

    Elliptic (mach < sqrt(2)): Y1, root of Sigma at real tau = c * Y1 * |eta|;
    weakly stable: Y2, simple roots at tau = +-i * c * Y2 * eta.  Both are
    Y^2 = M^2 * (|M^2 - 2| / (M^2 + 1 + sqrt(4 M^2 + 1))), the conjugate form of
    |sqrt(4 M^2 + 1) - (M^2 + 1)|, which cancels; dividing first keeps it from
    overflowing.  ValueError where sqrt(4 M^2 + 1) overflows (M above ~7e153).
    """
    if params.regime() is Regime.DEGENERATE:
        raise ValueError("root constant is not defined at mach = sqrt(2)")
    try:
        m2 = params.mach**2
    except OverflowError:
        m2 = math.inf
    disc = math.sqrt(4.0 * m2 + 1.0)
    if not math.isfinite(disc):
        raise ValueError(f"the root constant at mach {params.mach:g} overflows double precision")
    return math.sqrt(m2 * (abs(m2 - 2.0) / (m2 + 1.0 + disc)))


def glancing_gap(params: PhysicalParams) -> float:
    """The distance (v - c) - c Y2 per unit eta from the weakly stable root to the nearest glancing point.

    At gamma = 0 the root sits at delta = c Y2 eta and mu- vanishes at the glancing point
    delta = (v - c) eta, where Sigma is not smooth.  From Y2^2 = M^2 + 1 - sqrt(4 M^2 + 1),
    (M - 1)^2 - Y2^2 = 1 / (sqrt(4 M^2 + 1) + 2M), so the gap is
    c / (sqrt(4 M^2 + 1) + 2M) / (M - 1 + Y2) = c^2 / ((sqrt(4 M^2 + 1) + 2M)(v - c + c Y2)),
    with no cancellation; it shrinks like c / (8 M^2).  Weakly stable regime only.
    """
    _require_weakly_stable(params, "glancing_gap")
    mach, y2 = params.mach, root_constants(params)
    return params.c / (math.sqrt(4.0 * mach * mach + 1.0) + 2.0 * mach) / (mach - 1.0 + y2)


def weight_sigma(freq: Frequency, params: PhysicalParams):
    """Degree-one weight vanishing exactly at the marginal roots of Sigma.

    sigma = (tau - i c Y2 eta)(tau + i c Y2 eta) / Lambda.  Only defined in
    the weakly stable regime.  Comparable to gamma from below and to Lambda
    from above, which is what makes the weighted estimates close.
    """
    _require_weakly_stable(params)
    return freq.lam * _weight_unit(*freq.unit, params)


def _require_weakly_stable(params: PhysicalParams, what: str = "weight_sigma") -> None:
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError(f"{what} requires the weakly stable regime (mach > sqrt(2))")


def _weight_unit(g, d, e, params: PhysicalParams):
    shift = 1j * (params.c * root_constants(params)) * e
    tau = g + 1j * d
    return (tau - shift) * (tau + shift)


@dataclasses.dataclass(frozen=True)
class SymbolTable:
    """mu+-, Sigma and |sigma| (None unless weakly stable) on one mesh, one per grid and params.

    Each branch is evaluated once and Sigma is fed their sum, so every array equals :func:`mu_pm`,
    :func:`big_sigma` or ``abs(weight_sigma)`` on the mesh bit for bit; Lambda is the mesh's own.
    Overflow and invalid values are left to the solve's guards, which name them: the tail guard of
    ``front.build_g`` refuses a mu+- that is not finite, the symbol floor a Sigma that is not.
    """

    mup: np.ndarray
    mum: np.ndarray
    sigma_big: np.ndarray
    abs_weight: np.ndarray | None

    @classmethod
    def on_mesh(cls, mesh: Frequency, params: PhysicalParams) -> "SymbolTable":
        lam = mesh.lam
        with np.errstate(over="ignore", invalid="ignore"):
            mup, mum = _mu_unit(*mesh.unit, params)
            sigma_big = lam**2 * _sigma_unit(*mesh.unit, mup + mum, params)
            abs_weight = np.abs(weight_sigma(mesh, params)) if params.regime() is Regime.WEAKLY_STABLE else None
            return cls(lam * mup, lam * mum, sigma_big, abs_weight)


def weight_bound_constant(params: PhysicalParams) -> float:
    """The least K with |sigma| <= K * Lambda: max(1, (c Y2)^2).

    |tau^2 + (c Y2 eta)^2| <= |tau|^2 + (c Y2)^2 eta^2 <= K Lambda^2, with
    equality at eta = 0 (ratio 1) and at tau = 0 (ratio (c Y2)^2).
    """
    return max(1.0, (params.c * root_constants(params)) ** 2)

