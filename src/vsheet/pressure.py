"""Half-space pressure reconstruction and the front-equation residual.

Per frequency, the transformed pressure on either side of the sheet obeys

    c^2 mu^2 P - c^2 P'' = F        on the half-line,

with continuity of P across the sheet and a jump of c^2 P' proportional
to the front.  The bounded solution is the decaying homogeneous mode plus
the free-space particular solution with kernel exp(-mu |x2 - y|) / (2 mu);
the two homogeneous amplitudes come from the 2x2 jump system.  Plugging
the reconstructed normal derivatives back into the front equation gives an
end-to-end consistency residual that vanishes when the front was solved
from the same sources.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .front import DECAY_TOL, Side, SourceField
from .grids import find_mode
from .symbols import Frequency, PhysicalParams, mu_pm

__all__ = [
    "PressureProfile",
    "DecayViolated",
    "solve_half_space",
    "front_equation_residual",
    "ode_residual",
]


class DecayViolated(RuntimeError):
    """The reconstructed pressure has not decayed at the truncation depth."""


@dataclasses.dataclass(frozen=True)
class PressureProfile:
    """One-sided pressure profile in the mirrored depth variable xi = |x2|.

    ``values = amplitude * exp(-mu xi) + particular`` on the quadrature
    nodes; ``p0``/``dp0`` are the boundary value and the x2-derivative at
    the sheet (signed in the physical x2 coordinate).
    """

    side: Side
    mu: complex
    amplitude: complex
    nodes: np.ndarray
    particular: np.ndarray
    values: np.ndarray
    f_nodes: np.ndarray
    p0: complex
    dp0: complex
    depth: float
    sound_speed: float


def solve_half_space(
    fplus: SourceField,
    fminus: SourceField,
    freq: Frequency,
    fhat: complex,
    params: PhysicalParams,
    decay_tol: float = DECAY_TOL,
) -> tuple[PressureProfile, PressureProfile]:
    """Reconstruct the two one-sided pressure profiles at one grid frequency.

    The amplitudes A+- solve

        A+ - A-             = I- - I+
        mu+ A+ + mu- A-     = mu+ I+ + mu- I- + 4 v tau i eta fhat / c^2

    where I+- are the particular boundary values; the system's determinant
    is mu+ + mu-, nonzero for gamma >= 1.  Raises DecayViolated when the
    resulting profile is not negligible at the truncation depth.
    """
    grid = fplus.grid
    if fplus.side is not Side.PLUS or fminus.side is not Side.MINUS:
        raise ValueError("solve_half_space expects (plus-side, minus-side) fields in that order")
    if fplus.grid != fminus.grid:
        raise ValueError("both sources must share one grid")
    it, ix = find_mode(grid, freq)
    v, c = params.v, params.c
    mup, mum = mu_pm(freq, params)
    y, w = grid.quadrature()
    prof_p = np.ascontiguousarray(fplus.spectral[it, ix, :])
    prof_m = np.ascontiguousarray(fminus.spectral[it, ix, :])

    ip = np.dot(w, np.exp(-mup * y) * prof_p) / (2.0 * mup * c * c)
    im = np.dot(w, np.exp(-mum * y) * prof_m) / (2.0 * mum * c * c)
    coupling = 4.0 * v * freq.tau * 1j * freq.eta * fhat / (c * c)
    den = mup + mum
    a_p = ((mup - mum) * ip + 2.0 * mum * im + coupling) / den
    a_m = (2.0 * mup * ip + (mum - mup) * im + coupling) / den

    profiles = []
    for side, mu, amp, prof, i0 in (
        (Side.PLUS, mup, a_p, prof_p, ip),
        (Side.MINUS, mum, a_m, prof_m, im),
    ):
        kernel = np.exp(-mu * np.abs(y[:, None] - y[None, :]))
        particular = (kernel * prof[None, :]) @ w / (2.0 * mu * c * c)
        values = amp * np.exp(-mu * y) + particular
        peak = float(np.max(np.abs(values)))
        if peak > 0.0 and abs(values[-1]) > decay_tol * peak:
            raise DecayViolated(
                f"{side.value}-side pressure retains {abs(values[-1]) / peak:.3e} of its peak "
                f"at depth Ly = {grid.Ly:g}"
            )
        # normal derivative at the sheet, in the physical x2 coordinate
        if side is Side.PLUS:
            dp0 = mu * (i0 - amp)
        else:
            dp0 = mu * (amp - i0)
        profiles.append(
            PressureProfile(
                side=side,
                mu=complex(mu),
                amplitude=complex(amp),
                nodes=y,
                particular=particular,
                values=values,
                f_nodes=prof,
                p0=complex(amp + i0),
                dp0=complex(dp0),
                depth=grid.Ly,
                sound_speed=c,
            )
        )
    return profiles[0], profiles[1]


def front_equation_residual(
    prof_plus: PressureProfile,
    prof_minus: PressureProfile,
    freq: Frequency,
    fhat: complex,
    params: PhysicalParams,
) -> float:
    """Normalized residual of the front equation at one frequency.

    residual = |tau^2 fhat - v^2 eta^2 fhat + (c^2/2)(dP+ + dP-)(0)|
    normalized by Lambda^2 |fhat| plus the moduli of the contributions.
    Zero (to rounding) exactly when fhat, the sources and the pressures
    are mutually consistent.
    """
    v, c = params.v, params.c
    tau, eta = freq.tau, freq.eta
    terms = (
        tau * tau * fhat,
        -(v * eta) ** 2 * fhat,
        0.5 * c * c * (prof_plus.dp0 + prof_minus.dp0),
    )
    num = abs(sum(terms))
    lam2 = freq.lam**2
    den = lam2 * abs(fhat) + sum(abs(t) for t in terms)
    if den == 0.0:
        return 0.0
    return num / den


def _particular_at(
    x: float,
    mu: complex,
    depth: float,
    c: float,
    source_fn: Callable[[float], complex],
) -> complex:
    """Free-space particular solution at x, splitting the kernel kink."""
    from scipy.integrate import quad  # imported here: only this check path needs it

    def left(yv: float) -> complex:
        return np.exp(-mu * (x - yv)) * source_fn(yv)

    def right(yv: float) -> complex:
        return np.exp(-mu * (yv - x)) * source_fn(yv)

    total = 0.0 + 0.0j
    if x > 0.0:
        total += quad(left, 0.0, x, complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    if x < depth:
        total += quad(right, x, depth, complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
    return total / (2.0 * mu * c * c)


def ode_residual(
    profile: PressureProfile,
    source_fn: Callable[[float], complex],
    h: float = 1e-2,
    order: int = 2,
    n_check: int = 16,
) -> np.ndarray:
    """Finite-difference residual of c^2 mu^2 P - c^2 P'' = F at interior points.

    ``source_fn`` must be the analytic source profile in the mirrored
    variable xi (so F(-xi) for the MINUS side); the particular solution is
    re-evaluated by adaptive quadrature with the kernel kink split out.
    ``order`` selects the 3-point (order 2) or 5-point (order 4) stencil;
    the returned residuals are normalized by the natural size of the terms
    and converge at the stencil order as h shrinks.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    mu, c, depth = profile.mu, profile.sound_speed, profile.depth
    reach = 2 * h if order == 4 else h
    interior = profile.nodes[(profile.nodes > reach) & (profile.nodes < depth - reach)]
    if interior.size == 0:
        raise ValueError("no interior nodes available for the requested stencil")
    stride = max(1, interior.size // n_check)
    checks = interior[::stride]

    def total(x: float) -> complex:
        return profile.amplitude * np.exp(-mu * x) + _particular_at(x, mu, depth, c, source_fn)

    scale = max(abs(source_fn(float(x))) for x in checks)
    scale += abs(c * c * mu * mu) * float(np.max(np.abs(profile.values)))
    out = np.empty(checks.size, dtype=np.float64)
    for j, x in enumerate(checks):
        x = float(x)
        if order == 2:
            second = (total(x - h) - 2.0 * total(x) + total(x + h)) / (h * h)
        else:
            second = (
                -total(x + 2 * h)
                + 16.0 * total(x + h)
                - 30.0 * total(x)
                + 16.0 * total(x - h)
                - total(x - 2 * h)
            ) / (12.0 * h * h)
        res = c * c * mu * mu * total(x) - c * c * second - source_fn(x)
        out[j] = abs(res) / scale
    return out
