"""Half-space pressure reconstruction and the front-equation residual.

Per frequency, the transformed pressure on either side of the sheet obeys

    c^2 mu^2 P - c^2 P'' = F        on the half-line,

with continuity of P across the sheet and a jump of c^2 P' proportional
to the front.  The bounded solution is the decaying homogeneous mode plus
the free-space particular solution with kernel exp(-mu |x2 - y|) / (2 mu);
the two homogeneous amplitudes come from the 2x2 jump system.  The
particular solution on the quadrature nodes is formed by two sweeps over
the nodes, in O(ny) per mode, with no ny x ny kernel.  Plugging
the reconstructed normal derivatives back into the front equation gives an
end-to-end consistency residual that vanishes when the front was solved
from the same sources.  An independent check of the ODE itself, by
adaptive quadrature and finite differences, lives in the test suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .front import DECAY_TOL, Side, SourceField, half_line_terms
from .grids import find_mode
from .symbols import Frequency, NumericalGuard, PhysicalParams, mu_pm

__all__ = [
    "PressureProfile",
    "DecayViolated",
    "solve_half_space",
    "front_equation_residual",
]


class DecayViolated(NumericalGuard, RuntimeError):
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
    values: np.ndarray
    p0: complex
    dp0: complex


def solve_half_space(
    fplus: SourceField,
    fminus: SourceField,
    freq: Frequency,
    fhat: complex,
    params: PhysicalParams,
) -> tuple[PressureProfile, PressureProfile]:
    """Reconstruct the two one-sided pressure profiles at one grid frequency.

    The amplitudes A+- solve

        A+ - A-             = I- - I+
        mu+ A+ + mu- A-     = mu+ I+ + mu- I- + 4 v tau i eta fhat / c^2

    where I+- are the particular boundary values; the system's determinant
    is mu+ + mu-, nonzero for gamma >= 1.  Raises ValueError for a
    non-finite ``fhat`` and DecayViolated when the resulting profile is not
    negligible at the truncation depth (or not finite).
    """
    if not np.isfinite(fhat):
        raise ValueError(f"fhat must be finite, got {fhat!r}")
    grid = fplus.grid
    it, ix = find_mode(grid, freq)
    v, c = params.v, params.c
    mup, mum = mu_pm(freq, params)
    y, w = grid.quadrature()
    term_p, term_m = half_line_terms(fplus, fminus, mup, mum, index=(it, ix))
    ip = term_p / (2.0 * c * c)
    im = term_m / (2.0 * c * c)
    coupling = 4.0 * v * freq.tau * 1j * freq.eta * fhat / (c * c)
    den = mup + mum
    a_p = ((mup - mum) * ip + 2.0 * mum * im + coupling) / den
    a_m = (2.0 * mup * ip + (mum - mup) * im + coupling) / den

    sources = np.stack((fplus.spectral[it, ix], fminus.spectral[it, ix]))
    sums = _free_space(np.array([mup, mum]), y, w * sources)

    profiles = []
    for side, mu, amp, free, i0 in (
        (Side.PLUS, mup, a_p, sums[0], ip),
        (Side.MINUS, mum, a_m, sums[1], im),
    ):
        values = amp * np.exp(-mu * y) + free / (2.0 * mu * c * c)
        peak = float(np.max(np.abs(values)))
        if not (peak == 0.0 or abs(values[-1]) <= DECAY_TOL * peak):  # a NaN profile fails too
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
                values=values,
                p0=complex(amp + i0),
                dp0=complex(dp0),
            )
        )
    return profiles[0], profiles[1]


def _free_space(mu: np.ndarray, y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row k of the result is sum_j exp(-mu[k] |y_i - y_j|) b[k, j] on the ordered nodes ``y``.

    Two sweeps replace the dense kernel, with e_i = exp(-mu (y_i - y_{i-1})):

        L_i = e_i L_{i-1} + b_i            (terms j <= i, forward)
        Q_i = e_{i+1} Q_{i+1} + b_i        (terms j >= i, backward)

    and the sum is L_i + e_{i+1} Q_{i+1}.  Every factor has modulus <= 1
    because Re mu > 0, so no exp(+mu y) is ever formed.  Both sweeps of all
    rows run as one log-depth doubling (Hillis-Steele) scan along the node
    axis: ceil(log2 ny) array steps, no loop over nodes.
    """
    n = y.size
    rows = b.shape[0]
    e = np.exp(-np.multiply.outer(mu, np.diff(y)))
    # rows [rows:] hold the backward sweeps, run forward on the reversed nodes;
    # coef[:, 0] multiplies nothing but must be finite
    coef = np.empty((2 * rows, n), dtype=complex)
    coef[:, 0] = 0.0
    coef[:rows, 1:] = e
    coef[rows:, 1:] = e[:, ::-1]
    acc = np.concatenate((b, b[:, ::-1]), dtype=complex)
    k = 1
    while k < n:
        acc[:, k:] += coef[:, k:] * acc[:, :-k]
        if 2 * k < n:
            coef[:, k:] *= coef[:, :-k]
        k *= 2
    out = acc[:rows]
    out[:, :-1] += e * acc[rows:, -2::-1]
    return out


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
    tau, eta, lam2 = complex(freq.tau), float(freq.eta), float(freq.lam) ** 2
    terms = (
        tau * tau * fhat,
        -(v * eta) ** 2 * fhat,
        0.5 * c * c * (prof_plus.dp0 + prof_minus.dp0),
    )
    num = abs(sum(terms))
    den = lam2 * abs(fhat) + sum(abs(t) for t in terms)
    if den == 0.0:
        return 0.0
    return num / den
