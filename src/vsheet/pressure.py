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
from the same sources.  An independent check of the ODE itself, by
adaptive quadrature and finite differences, lives in the test suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .front import DECAY_TOL, Side, SourceField, _source_grid
from .grids import closure_sums, find_mode
from .symbols import Frequency, NumericalGuard, PhysicalParams, mu_pm  # mu_pm: kept for perfbench/tracing.py

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

    where I+- are the particular boundary values and mu+- the grid's symbol
    table at the mode, as :func:`front.build_g` used them.  The system's
    determinant is mu+ + mu-, nonzero for gamma >= 1.  A mode past column
    nx/2 takes its sources from the conjugated mirror on the half mesh
    (:meth:`GridSpec.mirror`).  Raises ValueError for a non-finite ``fhat``
    or source sample at the mode, and DecayViolated when the resulting
    profile is not negligible at the truncation depth (or not finite).
    """
    if not np.isfinite(fhat):
        raise ValueError(f"fhat must be finite, got {fhat!r}")
    grid = _source_grid(fplus, fminus)
    it, ix = find_mode(grid, freq)
    half_it, half_ix, conj = grid.mirror(it, ix)
    sources = np.array((fplus.spectral[half_it, half_ix], fminus.spectral[half_it, half_ix]))
    if conj:
        sources = sources.conj()
    finite = np.isfinite(sources)
    if not finite.all():
        side, node = np.argwhere(~finite)[0]
        raise ValueError(f"{list(Side)[side].value}-side source is not finite at mode ({it}, {ix}), node {node}")
    v, c = params.v, params.c
    table = grid.symbol_table(params)
    mup, mum = table.mup[it, ix], table.mum[it, ix]
    mus = np.array((mup, mum))
    terms, homogeneous, free = closure_sums(grid, sources, mus)
    ip, im = terms / (2.0 * c * c)
    coupling = 4.0 * v * freq.tau * 1j * freq.eta * fhat / (c * c)
    den = mup + mum
    a_p = ((mup - mum) * ip + 2.0 * mum * im + coupling) / den
    a_m = (2.0 * mup * ip + (mum - mup) * im + coupling) / den

    values = np.array((a_p, a_m))[:, None] * homogeneous + free / (2.0 * mus[:, None] * c * c)
    peaks = np.abs(values).max(axis=-1)
    tails = np.abs(values[:, -1])
    decayed = tails <= DECAY_TOL * peaks  # true for a zero profile (0 <= 0), false for a NaN one
    if not decayed.all():
        # the jump system couples the sides, so a NaN on one side fails both
        retained = " and ".join(
            f"{side.value}-side pressure retains {float(tail) / float(peak):.3e}"
            for side, tail, peak, ok in zip(Side, tails, peaks, decayed) if not ok
        )
        raise DecayViolated(f"{retained} of its peak at depth Ly = {grid.Ly:g}")
    nodes = grid.quadrature()[0]
    # dp0 is signed in the physical x2 coordinate: mu (I - A) on the plus side, mu (A - I) on the
    # minus side (the sign as the order of the subtraction, so a zero keeps its sign)
    return tuple(
        PressureProfile(
            side=side, mu=complex(mu), amplitude=complex(amp), nodes=nodes, values=vals,
            p0=complex(amp + i0), dp0=complex(mu * slope),
        )
        for side, mu, amp, i0, slope, vals in zip(
            (Side.PLUS, Side.MINUS), (mup, mum), (a_p, a_m), (ip, im), (ip - a_p, a_m - im), values
        )
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
