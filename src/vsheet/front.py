"""Resolution of the front equation from two-sided interior sources.

Pipeline: transform the sources (Laplace weight in t, FFT in (t, x1)),
check the pair, collapse it to the scalar moment M = T+ - T- by the
half-line kernel (:func:`grids.mesh_terms`, which owns the kernel),
assemble the right-hand side g of the front equation from M and the
symbol table, and divide by the symbol to obtain the front.  Norm reports
and the gamma-sweep used to check the a priori estimates live here as well.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .chunks import map_chunks, scan_extrema
from .grids import (
    GridSpec,
    Space,
    forward_transform,
    half_line_norm,
    inverse_transform,
    mesh_terms,
    real_source,
    weighted_norm,
)
from .symbols import NumericalGuard, PhysicalParams, Regime, big_sigma, mu_pm  # big_sigma, mu_pm: kept for perfbench/tracing.py

__all__ = [
    "Side",
    "SourceField",
    "FrontSolution",
    "SweepResult",
    "QuadratureUnderResolved",
    "SymbolTooSmall",
    "transform_source",
    "build_g",
    "solve_front",
    "estimate_sweep",
]

DECAY_TOL = 1e-6
TAIL_TOL = 1e-6

# rows per task of a source's peak scan
_PEAK_ROWS = 12


class QuadratureUnderResolved(NumericalGuard, RuntimeError):
    """The truncated half-line integral cannot be trusted at the requested tolerance."""


class SymbolTooSmall(NumericalGuard, ArithmeticError):
    """|Sigma| dipped below the safety floor somewhere on the frequency grid, or is not finite there."""


class Side(enum.Enum):
    PLUS = "plus"    # x2 > 0
    MINUS = "minus"  # x2 < 0


@dataclasses.dataclass(frozen=True)
class SourceField:
    """An interior source on one side of the sheet.

    ``spectral`` holds the weighted transform of each x2 slice on the
    (t, x1, x2-node) grid, on the grid's half mesh: shape
    (nt, nx/2 + 1, ny), see :meth:`GridSpec.mirror` for the other columns.
    For the MINUS side node j stands for the depth x2 = -y_j.  The field's
    depth scan is kept from its first check, so ``spectral`` is not to
    change after that.
    """

    side: Side
    spectral: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        shape = (self.grid.nt, self.grid.half_nx, self.grid.ny)
        if self.spectral.shape != shape:
            raise ValueError(f"spectral shape {self.spectral.shape} does not match the grid's half mesh {shape}")

    @functools.cached_property
    def _depth_scan(self) -> tuple[float, float, np.ndarray]:
        """max |F|, max |F(Ly)| and the |F(Ly)| table: one scan in row blocks on the pool, kept from first use."""
        spectral, edge = self.spectral, np.empty(self.spectral.shape[:-1])

        def scan(lo: int, hi: int) -> float:
            moduli = np.abs(spectral[lo:hi])
            edge[lo:hi] = moduli[..., -1]
            return np.max(moduli)

        peak = float(np.max(map_chunks(scan, len(spectral), _PEAK_ROWS)))
        return peak, float(np.max(edge)), edge


def transform_source(raw: np.ndarray, side: Side, grid: GridSpec) -> SourceField:
    """Build a SourceField from real raw (t, x1, x2-node) samples of any real dtype.

    A complex ``raw`` is taken as its real part when the imaginary part is
    zero and is a ValueError naming the side otherwise.  The spectral field
    is complex128 on the half mesh; ``raw`` is not copied or upcast as a whole.
    """
    side = Side(side)
    raw = real_source(raw, f"{side.value}-side source")
    return SourceField(side=side, spectral=forward_transform(raw, grid), grid=grid)


def _check_pair(fplus: SourceField, fminus: SourceField) -> GridSpec:
    """The grid of a (plus, minus) pair that ``build_g`` and the closure accept; a ValueError saying what fails otherwise.

    In that order, on one grid, each side (plus first) finite and decayed: max |F(Ly)| <= DECAY_TOL max |F|.
    """
    if fplus.side is not Side.PLUS or fminus.side is not Side.MINUS:
        raise ValueError("expected (plus-side, minus-side) source fields in that order")
    if fplus.grid is not fminus.grid and fplus.grid != fminus.grid:
        raise ValueError("both sources must share one grid")
    for field in (fplus, fminus):
        peak, tail, _ = field._depth_scan
        if not math.isfinite(peak):
            it, ix, node = np.argwhere(~np.isfinite(np.abs(field.spectral)))[0]
            raise ValueError(f"{field.side.value}-side source is not finite at mode ({it}, {ix}), node {node}")
        if tail > DECAY_TOL * peak:
            raise ValueError(f"{field.side.value}-side source has not decayed at the truncation depth Ly")
    return fplus.grid


def build_g(fplus: SourceField, fminus: SourceField, params: PhysicalParams) -> np.ndarray:
    """Right-hand side of the front equation on the grid's full (nt, nx) frequency mesh.

    g = -(mu+ mu- / (mu+ + mu-)) M, with the source moment M = T+ - T- of
    :func:`grids.mesh_terms` on the grid's symbol table.  Raises the
    ValueError of :func:`_check_pair` for a pair the closure refuses too,
    and QuadratureUnderResolved when the neglected tail at Ly is not small
    relative to a side's term, or when either is not finite.
    """
    grid = _check_pair(fplus, fminus)
    table = grid.symbol_table(params)
    terms = mesh_terms(grid, fplus.spectral, fminus.spectral, table)
    for field, mu, term in zip((fplus, fminus), (table.mup, table.mum), terms):
        # the neglected tail is of the order of the integrand at the cutoff
        edge = grid.expand(field._depth_scan[2])
        tail_num = float(np.max(np.exp(-grid.Ly * mu.real) * edge / np.abs(mu)))
        term_scale = float(np.max(np.abs(term)))
        # in range, so a NaN tail fails it; a zero tail passes even where TAIL_TOL * 0 is NaN
        if not (tail_num == 0.0 or tail_num <= TAIL_TOL * term_scale):
            rel_tail = tail_num / term_scale if term_scale != 0.0 else np.inf
            # the source is finite here, so a NaN comes from the decay exponents
            fix = "increase Ly or the source decay" if not np.isnan(rel_tail) else "mu+- is not finite at some mode"
            raise QuadratureUnderResolved(
                f"half-line truncation tail ~{rel_tail:.3e} (relative) is not within tolerance {TAIL_TOL:g}; {fix}"
            )
    # Re mu+- >= gamma/c >= 1/c on the grid, so the denominator is safe.
    return -(table.mup * table.mum / (table.mup + table.mum)) * (terms[0] - terms[1])


def _check_order(s: float, grid: GridSpec) -> None:
    """ValueError unless ``s`` is finite and the squared weight Lambda^(2(s+1)) of the order-(s+1) norms is finite on ``grid``.

    Lambda >= gamma >= 1 on the mesh, so only a large positive ``s`` can
    overflow, at the mesh's largest Lambda: :meth:`GridSpec.corner`.
    """
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    lam = float(grid.corner().lam)
    try:
        lam ** (2.0 * (s + 1.0))
    except OverflowError:
        raise ValueError(
            f"s = {s!r} overflows the norm weight Lambda^(2(s+1)) at the grid's largest Lambda = {lam:.6g}"
        ) from None


@dataclasses.dataclass(frozen=True)
class FrontSolution:
    """Front in both representations, its norms and a ``report`` of diagnostics."""

    f_hat: np.ndarray
    f: np.ndarray
    norms: dict
    report: dict
    grid: GridSpec
    s: float
    regime: Regime


def solve_front(
    g_hat: np.ndarray,
    grid: GridSpec,
    params: PhysicalParams,
    s: float = 0.0,
    sigma_floor: float = 1e-12,
) -> FrontSolution:
    """Divide by the symbol and report weighted norms.

    In the weakly stable regime the anisotropic norm of the front at order
    s+1 is reported together with the plain norms and the ratio against
    the plain norm of g (the shape of the closed estimate).  In the
    elliptic regime only plain norms are reported and the run is tagged.
    Raises ValueError for an ``s`` that :func:`_check_order` refuses, for
    a ``g_hat`` or a norm of it that is not finite, or for a non-zero
    ``g_hat`` whose norm underflows to 0 (Lambda^s below the smallest
    double at every mode), and SymbolTooSmall unless
    |Sigma| >= sigma_floor * Lambda^2 everywhere on the grid and
    |Sigma| / Lambda^2 is finite; the least and largest ratios and where
    they sit come from one :func:`chunks.scan_extrema` over the mesh.
    """
    _check_order(s, grid)
    g_hat = np.asarray(g_hat, dtype=np.complex128)
    if g_hat.shape != (grid.nt, grid.nx):
        raise ValueError(f"expected g_hat of shape ({grid.nt}, {grid.nx}), got {g_hat.shape}")
    g_norm = weighted_norm(g_hat, grid, s, Space.PLAIN)
    if not np.isfinite(g_norm):
        if not np.all(np.isfinite(g_hat)):
            raise ValueError("g_hat is not finite")
        raise ValueError(f"the norm ||g||_(H^s) overflows at gamma = {grid.gamma!r}, s = {s!r}")
    if g_norm == 0.0 and np.any(g_hat):
        raise ValueError(
            f"the norm ||g||_(H^s) of a non-zero g underflows to 0 at gamma = {grid.gamma!r}, s = {s!r}; "
            "the reported norms would read 0"
        )
    table = grid.symbol_table(params)
    sigma, lam = table.sigma_big.reshape(-1), grid.freq_mesh().lam.reshape(-1)
    [floor] = scan_extrema(lambda lo, hi: [np.abs(sigma[lo:hi]) / lam[lo:hi] ** 2], sigma.size)
    worst = floor.min
    # in range, so a NaN fails it; a NaN is the least and the largest ratio, so it is named as not finite
    if not (worst >= sigma_floor and np.isfinite(floor.max)):
        low = worst < sigma_floor
        at, value = (floor.argmin, worst) if low else (floor.argmax, floor.max)
        idx = np.unravel_index(at, table.sigma_big.shape)
        raise SymbolTooSmall(
            f"|Sigma|/Lambda^2 = {value:.3e} {f'< floor {sigma_floor:g}' if low else 'is not finite'} at "
            f"(delta, eta) = ({grid.delta()[idx[0]]:.6g}, {grid.eta()[idx[1]]:.6g})"
        )
    f_hat = g_hat / table.sigma_big
    f = inverse_transform(f_hat, grid)
    regime = params.regime()
    norms = {(order, Space.PLAIN): weighted_norm(f_hat, grid, order) for order in (s, s + 1.0)}
    report = {"g_plain_norm": g_norm, "symbol_floor": worst}
    if regime is Regime.WEAKLY_STABLE:
        aniso = weighted_norm(f_hat, grid, s + 1.0, Space.ANISOTROPIC, params)
        norms[(s + 1.0, Space.ANISOTROPIC)] = aniso
        report["front_aniso_over_g"] = aniso / g_norm if g_norm > 0.0 else 0.0
    return FrontSolution(f_hat=f_hat, f=f, norms=norms, report=report, grid=grid, s=s, regime=regime)


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Estimate ratios along a gamma sweep and the boundedness verdict."""

    rows: tuple
    passed: bool
    slack: float
    s: float


def _no_growth(values: list, slack: float) -> bool:
    finite = all(np.isfinite(v) for v in values)
    return finite and all(b <= (1.0 + slack) * a for a, b in zip(values, values[1:]))


def estimate_sweep(
    raw_plus: np.ndarray,
    raw_minus: np.ndarray,
    grid: GridSpec,
    params: PhysicalParams,
    gammas: tuple,
    s: float = 0.0,
    slack: float = 0.1,
) -> SweepResult:
    """Re-solve the front problem along a gamma sweep and report estimate ratios.

    ``gammas`` is a strictly increasing ladder of at least two values, each
    at least 1.  For each gamma the three dimensionless ratios below are
    recorded; the sweep PASSes when every available series stays finite
    with no growth beyond ``slack`` from one gamma to the next:

      front_aniso   gamma   * ||f||^2_{s+1, aniso} / sum ||F||^2_{L2 H^s}
      g_over_f      gamma   * ||g||^2_{s}          / sum ||F||^2_{L2 H^s}
      front_plain   gamma^3 * ||f||^2_{s+1}        / sum ||F||^2_{L2 H^s}

    The sources are real; a complex one is taken as its real part when
    its imaginary part is zero and is a ValueError naming the side otherwise.
    A largest gamma whose grid :class:`GridSpec` refuses (its corner
    Lambda overflows) and an ``s`` that :func:`_check_order` refuses on that
    grid, where Lambda is largest, are ValueErrors before any rung is built, and
    so is a rung whose source norm is 0 (all-zero sources, or Lambda^(2s)
    underflowing), where the ratios are undefined.
    """
    if len(gammas) < 2:
        raise ValueError("a sweep needs at least two gamma values")
    if not all(a < b for a, b in zip(gammas, gammas[1:])):
        raise ValueError("sweep gammas must strictly increase")
    if gammas[0] < 1.0:
        raise ValueError("sweep gammas must be >= 1")
    _check_order(s, dataclasses.replace(grid, gamma=float(gammas[-1])))
    weakly_stable = params.regime() is Regime.WEAKLY_STABLE
    # each source is checked and viewed as real once, not once per rung
    raw_plus = real_source(raw_plus, "plus-side source")
    raw_minus = real_source(raw_minus, "minus-side source")
    rows = []
    for gamma in gammas:
        g_grid = dataclasses.replace(grid, gamma=float(gamma))
        g_grid.symbol_table(params)  # before the rung's fields, so its temporaries do not add to their peak
        fp = transform_source(raw_plus, Side.PLUS, g_grid)
        fm = transform_source(raw_minus, Side.MINUS, g_grid)
        g_hat = build_g(fp, fm, params)
        rhs = sum(half_line_norm(field.spectral, g_grid, s) ** 2 for field in (fp, fm))
        if rhs == 0.0:
            raise ValueError(
                f"the source norm sum ||F||^2_(L2 H^s) is 0 at gamma = {gamma!r}, s = {s!r}; the sweep ratios are undefined"
            )
        # one rung's spectral fields at a time: freed before the front is solved and the next rung built
        del fp, fm
        sol = solve_front(g_hat, g_grid, params, s=s)
        g_norm = sol.report["g_plain_norm"]
        plain = sol.norms[(s + 1.0, Space.PLAIN)]
        row = {
            "gamma": float(gamma),
            "front_aniso": None,
            "g_over_f": gamma * g_norm**2 / rhs,
            "front_plain": gamma**3 * plain**2 / rhs,
        }
        if weakly_stable:
            aniso = sol.norms[(s + 1.0, Space.ANISOTROPIC)]
            row["front_aniso"] = gamma * aniso**2 / rhs
        rows.append(row)
        del sol, g_hat  # and with them the rung's grid and symbol table, before the next rung
    keys = ["g_over_f", "front_plain"] + (["front_aniso"] if weakly_stable else [])
    passed = all(_no_growth([row[k] for row in rows], slack) for k in keys)
    return SweepResult(rows=tuple(rows), passed=passed, slack=slack, s=s)
