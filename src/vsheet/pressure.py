"""Half-space pressure reconstruction and the front-equation residual.

Per frequency, the transformed pressure on either side of the sheet obeys

    c^2 mu^2 P - c^2 P'' = F        on the half-line,

with continuity of P across the sheet and a jump of c^2 P' proportional
to the front.  The bounded solution is the decaying homogeneous mode plus
the free-space particular solution with kernel exp(-mu |x2 - y|) / (2 mu),
both taken from :func:`grids.closure_sums` for the two sides at once; the
two homogeneous amplitudes come from the 2x2 jump system.  Plugging the
reconstructed normal derivatives back into the front equation gives an
end-to-end consistency residual that vanishes when the front was solved
from the same sources: a check of consistency, not of accuracy.  An
independent check of the ODE itself, by adaptive quadrature and finite
differences, lives in the test suite.  Depth is judged once, on the source
pair, by :func:`front.build_g`'s check: a finite profile with Re mu > 0
continues past Ly, where F = 0, as P(Ly) exp(-mu (y - Ly)).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers

import numpy as np

from .front import Side, SourceField, _check_pair
from .grids import closure_sums, find_mode
from .symbols import Frequency, NumericalGuard, PhysicalParams, mu_pm  # mu_pm: kept for perfbench/tracing.py

__all__ = [
    "PressureProfile",
    "DecayViolated",
    "solve_half_space",
    "front_equation_residual",
]


class DecayViolated(NumericalGuard, RuntimeError):
    """A reconstructed pressure profile, its boundary value or its normal derivative is not finite, so it does not decay."""


@dataclasses.dataclass(frozen=True)
class PressureProfile:
    """One-sided pressure profile in the mirrored depth variable xi = |x2|.

    ``values = amplitude * exp(-mu xi) + particular`` on the quadrature
    nodes; ``p0``/``dp0`` are the boundary value and the x2-derivative at
    the sheet (signed in the physical x2 coordinate).  ``mu``, ``amplitude``,
    ``p0`` and ``dp0`` are numpy complex128 scalars, a subclass of complex,
    as the jump system computed them.
    """

    side: Side
    mu: complex
    amplitude: complex
    nodes: np.ndarray
    values: np.ndarray
    p0: complex
    dp0: complex


def _one_number(value, name: str) -> complex:
    """``value`` as one finite Python complex; a ValueError naming ``name`` for anything else."""
    if not (isinstance(value, numbers.Number) or (isinstance(value, np.ndarray) and value.shape == ())):
        got = f"an array of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)
        raise ValueError(f"{name} must be one complex number, got {got}")
    try:
        number = complex(value)
        finite = math.isfinite(number.real) and math.isfinite(number.imag)
    except OverflowError:  # an integer beyond double precision
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _one_frequency(freq: Frequency) -> tuple[float, float, float]:
    """gamma, delta and eta of a frequency batch of size 1, such as ``mesh[it, ix]`` or ``mesh[it:it+1, ix:ix+1]``."""
    if freq.size != 1:
        raise ValueError(f"freq must be one frequency at a time, got a batch of shape {freq.gamma.shape}")
    return freq.gamma.item(), freq.delta.item(), freq.eta.item()


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

    where I+- are the particular boundary values and mu+- the grid's symbol
    table at the mode, as :func:`front.build_g` used them.  The system's
    determinant is mu+ + mu-, nonzero for gamma >= 1.  It is solved on
    numpy scalars, whose arithmetic rounds as numpy's arrays do.  A mode
    past column nx/2 takes its sources from the conjugated mirror on the
    half mesh (:meth:`GridSpec.mirror`).  ``freq`` is a batch of size 1.
    Raises ValueError for an ``fhat`` that is not one finite number, a
    ``freq`` batch of another size, or a pair that ``build_g`` refuses, in
    its words, and DecayViolated, naming the side(s) and the mode, when a
    profile, ``p0`` or ``dp0`` is not finite.
    """
    fhat = _one_number(fhat, "fhat")
    gamma, delta, eta = _one_frequency(freq)
    grid = _check_pair(fplus, fminus)
    it, ix = find_mode(grid, freq)
    half_it, half_ix, conj = grid.mirror(it, ix)
    sources = np.array((fplus.spectral[half_it, half_ix], fminus.spectral[half_it, half_ix]))
    if conj:
        sources = sources.conj()
    v, c = params.v, params.c
    table = grid.symbol_table(params)
    mup, mum = table.mup[it, ix], table.mum[it, ix]
    mus = np.array((mup, mum))
    terms, homogeneous, free = closure_sums(grid, sources, mus)
    ip, im = terms[0] / (2.0 * c * c), terms[1] / (2.0 * c * c)
    coupling = 4.0 * v * np.complex128(complex(gamma, delta)) * 1j * eta * fhat / (c * c)
    den = mup + mum
    a_p = ((mup - mum) * ip + 2.0 * mum * im + coupling) / den
    a_m = (2.0 * mup * ip + (mum - mup) * im + coupling) / den

    values = np.array((a_p, a_m))[:, None] * homogeneous
    values += free / np.array((2.0 * mup * c * c, 2.0 * mum * c * c))[:, None]
    # dp0 is signed in the physical x2 coordinate: mu (I - A) on the plus side, mu (A - I) on the
    # minus side (the sign as the order of the subtraction, so a zero keeps its sign)
    p0, dp0 = (a_p + ip, a_m + im), (mup * (ip - a_p), mum * (a_m - im))
    rows = np.isfinite(values).all(axis=-1).tolist()
    finite = [row and cmath.isfinite(p) and cmath.isfinite(d) for row, p, d in zip(rows, p0, dp0)]
    if not all(finite):
        # the jump system couples the sides, so a NaN on one side fails both
        sides = [f"{side.value}-side" for side, ok in zip(Side, finite) if not ok]
        what = "pressure is" if len(sides) == 1 else "pressures are"
        raise DecayViolated(f"{' and '.join(sides)} {what} not finite at mode ({it}, {ix})")
    nodes = grid.quadrature()[0]
    return (
        PressureProfile(Side.PLUS, mup, a_p, nodes, values[0], p0[0], dp0[0]),
        PressureProfile(Side.MINUS, mum, a_m, nodes, values[1], p0[1], dp0[1]),
    )


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
    are mutually consistent.  ``freq`` is a batch of size 1; ValueError
    for a batch of another size or an ``fhat`` that is not one finite
    number.
    """
    fhat = _one_number(fhat, "fhat")
    gamma, delta, eta = _one_frequency(freq)
    v, c = params.v, params.c
    # Lambda^2 as the square of Lambda, which Frequency.lam rounds first
    tau, lam2 = complex(gamma, delta), math.sqrt(gamma * gamma + delta * delta + eta * eta) ** 2
    terms = (
        tau * tau * fhat,
        -(v * eta) ** 2 * fhat,
        0.5 * c * c * complex(prof_plus.dp0 + prof_minus.dp0),
    )
    num = abs(sum(terms))
    den = lam2 * abs(fhat) + sum(abs(t) for t in terms)
    if den == 0.0:
        return 0.0
    return num / den
