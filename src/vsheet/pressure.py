"""Half-space pressure reconstruction and the front-equation residual.

Per frequency, the transformed pressure on either side of the sheet obeys

    c^2 mu^2 P - c^2 P'' = F        on the half-line,

with continuity of P across the sheet and a jump of c^2 P' proportional
to the front.  The bounded solution is the decaying homogeneous mode plus
the free-space particular solution with kernel exp(-mu |x2 - y|) / (2 mu);
the two homogeneous amplitudes come from the 2x2 jump system.  Per mode,
both sides take one set of panel exponentials in one call, exp(-mu x_j)
at the local Gauss-Legendre nodes and exp(-mu o_p) at the panel offsets
(o_k = k h for panel width h).  The boundary terms T+-, the homogeneous
profile exp(-mu y) = exp(-mu o_p) exp(-mu x_j) and the particular
solution all come from that set.  The particular solution adds the
in-panel block exp(-mu |x_i - x_j|), and between panels it uses the
symmetry of the Gauss-Legendre nodes, h - x_j = x_{order-1-j}, so two
nodes k >= 1 panels apart see each other through exp(-mu h)^(k-1) =
exp(-mu o_{k-1}) times a local and a mirrored local exponential.  Since
Re mu > 0, every factor has modulus at most 1: no exp(+mu y) is formed,
and there is no ny x ny kernel.  Plugging the reconstructed normal
derivatives back into the front equation gives an end-to-end consistency
residual that vanishes when the front was solved from the same sources.  An independent check of the ODE itself, by
adaptive quadrature and finite differences, lives in the test suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .front import DECAY_TOL, Side, SourceField, _panel_exponentials, _panel_terms, _source_grid
from .grids import GridSpec, find_mode
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
    grid = _source_grid(fplus, fminus)
    it, ix = find_mode(grid, freq)
    v, c = params.v, params.c
    mup, mum = mu_pm(freq, params)
    sources = np.array((fplus.spectral[it, ix], fminus.spectral[it, ix]))
    terms, homogeneous, free = _half_line_sums(grid, sources, np.array((mup, mum)))
    ip, im = terms / (2.0 * c * c)
    coupling = 4.0 * v * freq.tau * 1j * freq.eta * fhat / (c * c)
    den = mup + mum
    a_p = ((mup - mum) * ip + 2.0 * mum * im + coupling) / den
    a_m = (2.0 * mup * ip + (mum - mup) * im + coupling) / den

    nodes = grid.quadrature()[0]
    profiles = []
    for side, mu, amp, i0, hom, part in (
        (Side.PLUS, mup, a_p, ip, homogeneous[0], free[0]),
        (Side.MINUS, mum, a_m, im, homogeneous[1], free[1]),
    ):
        values = amp * hom + part / (2.0 * mu * c * c)
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
                nodes=nodes,
                values=values,
                p0=complex(amp + i0),
                dp0=complex(dp0),
            )
        )
    return profiles[0], profiles[1]


def _half_line_sums(grid: GridSpec, spectral: np.ndarray, mu: np.ndarray):
    """T, exp(-mu y_i) and sum_j exp(-mu |y_i - y_j|) w_j F_j on the grid's nodes, for ``mu`` of any shape.

    ``spectral`` has shape ``mu.shape + (ny,)``; T has the shape of ``mu``,
    the other two that of ``spectral``.  With panel width h and mirrored
    local nodes h - x_j = x_{order-1-j}, node i of panel p sees node j of a
    deeper panel q > p through exp(-mu h)^(q-p-1) exp(-mu x_{order-1-i})
    exp(-mu x_j), which reuses the per-panel sums of T, and node j of a
    shallower panel q < p through exp(-mu h)^(p-q-1) exp(-mu x_i)
    exp(-mu x_{order-1-j}), the mirrored sums.
    """
    lags, distances = grid.panel_tables()
    weights = grid.panels()[2]
    near, far = _panel_exponentials(grid, mu)
    weighted = near * weights
    terms, sums = _panel_terms(spectral, mu, weighted, far)
    panels = spectral.reshape(sums.shape[:-1] + (-1,))
    mirrored = panels @ weighted[..., ::-1, None]
    # powers[p, q] = exp(-mu h)^(p-q-1) = exp(-mu o_{p-q-1}) for q < p, 0 on and above the diagonal
    powers = np.concatenate((np.zeros_like(far[..., :1]), far), axis=-1)[..., lags]
    block = np.exp(-mu[..., None, None] * distances)
    free = (
        (panels * weights) @ block
        + (powers @ mirrored) * near[..., None, :]
        + (np.swapaxes(powers, -1, -2) @ sums) * near[..., None, ::-1]
    )
    homogeneous = far[..., :, None] * near[..., None, :]
    return terms, homogeneous.reshape(spectral.shape), free.reshape(spectral.shape)


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
