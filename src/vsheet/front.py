"""Resolution of the front equation from two-sided interior sources.

Pipeline: transform the sources (Laplace weight in t, FFT in (t, x1)),
collapse them to the scalar moment M by the weighted half-line integrals,
assemble the right-hand side g of the front equation, and divide by the
symbol to obtain the front.  Norm reports and the gamma-sweep used to
check the a priori estimates live here as well.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .chunks import map_chunks, scan_extrema
from .grids import (
    GridSpec,
    Space,
    _exponentials,
    _terms,
    boundary_terms,
    forward_transform,
    half_line_norm,
    inverse_transform,
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
    "half_line_terms",
    "build_g",
    "solve_front",
    "estimate_sweep",
]

DECAY_TOL = 1e-6
TAIL_TOL = 1e-6

# mirror pairs of rows per task of the mesh half-line kernel: 12 rows, whose exponentials
# are a task's largest temporaries
_KERNEL_PAIRS = 6

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
    For the MINUS side node j stands for the depth x2 = -y_j.
    """

    side: Side
    spectral: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        shape = (self.grid.nt, self.grid.half_nx, self.grid.ny)
        if self.spectral.shape != shape:
            raise ValueError(f"spectral shape {self.spectral.shape} does not match the grid's half mesh {shape}")


def transform_source(raw: np.ndarray, side: Side, grid: GridSpec) -> SourceField:
    """Build a SourceField from real raw (t, x1, x2-node) samples of any real dtype.

    A complex ``raw`` is taken as its real part when the imaginary part is
    zero and is a ValueError naming the side otherwise.  The spectral field
    is complex128 on the half mesh; ``raw`` is not copied or upcast as a whole.
    """
    side = Side(side)
    raw = real_source(raw, f"{side.value}-side source")
    return SourceField(side=side, spectral=forward_transform(raw, grid), grid=grid)


def _source_grid(fplus: SourceField, fminus: SourceField) -> GridSpec:
    """The grid of a (plus, minus) source pair; ValueError for the wrong order or two grids."""
    if fplus.side is not Side.PLUS or fminus.side is not Side.MINUS:
        raise ValueError("expected (plus-side, minus-side) source fields in that order")
    if fplus.grid is not fminus.grid and fplus.grid != fminus.grid:
        raise ValueError("both sources must share one grid")
    return fplus.grid


def half_line_terms(fplus: SourceField, fminus: SourceField, mup: np.ndarray, mum: np.ndarray):
    """(T+, T-) = (1/mu+-) int_0^Ly exp(-mu+- y) F+-(., +-y) dy on the half mesh of a (plus, minus) pair.

    ``mup``/``mum`` hold mu+- on the grid's half mesh, e.g. ``grid.half``
    of the symbol table's.  The front moment is T+ - T-, the pressure
    boundary values are T+- / (2 c^2).  Each side is
    :func:`grids.boundary_terms` bit for bit.  The rows run on the
    ``VFS_THREADS`` pool in fixed tasks of ``_KERNEL_PAIRS`` mirror pairs:
    row it with row -it mod nt (rows 0 and nt/2 are their own mirrors).
    Since mu-(delta, eta) = conj mu+(-delta, eta), one ``np.exp`` call
    serves a pair: where ``mum`` on a row is the conjugate of ``mup`` on
    its mirror, the minus side's exp(-mu- x) is read as the conjugate of
    the plus side's at the mirror.  Elsewhere it is taken directly: on the
    Nyquist row nt/2, whose delta is its mirror's, and wherever mu+- are
    not one symbol's (or not finite).
    """
    grid = _source_grid(fplus, fminus)
    mup, mum = np.asarray(mup), np.asarray(mum)
    terms = (np.empty(mup.shape, dtype=complex), np.empty(mum.shape, dtype=complex))
    arrays = (fplus.spectral, fminus.spectral, mup, mum) + terms
    last = grid.nt // 2

    def pairs(start: int, stop: int) -> None:
        # pair k is row k and row nt - k, which is row k - 1 of the rows reversed
        inner = slice(max(start, 1), min(stop, last))
        if inner.start < inner.stop:
            flipped = slice(inner.start - 1, inner.stop - 1)
            _mirror_pair(grid, [a[inner] for a in arrays], [a[::-1][flipped] for a in arrays])
        for k in sorted({0, last}.intersection(range(start, stop))):
            rows = [a[k : k + 1] for a in arrays]
            _mirror_pair(grid, rows, rows)

    map_chunks(pairs, last + 1, _KERNEL_PAIRS)
    return terms


def _mirror_pair(grid: GridSpec, rows: list, mirrors: list) -> None:
    """T+- on a block of rows and on their mirror rows, in place.

    Each is a list of views (F+, F-, mu+, mu-, T+, T-) of the same rows, the mirrors in pair order;
    a block of rows that are their own mirrors passes the same list twice.
    """
    blocks = [rows] if mirrors is rows else [rows, mirrors]
    with np.errstate(invalid="ignore"):
        tables = []
        for fp, _, mup, _, tp, _ in blocks:
            tables.append(_exponentials(grid, mup))
            tp[...] = _terms(grid, fp, mup, tables[-1])
        # the plus side's table at each block's mirror block
        for (_, fm, _, mum, _, tm), mirror, table in zip(blocks, blocks[::-1], tables[::-1]):
            if np.array_equal(mum, np.conj(mirror[2])):
                np.conjugate(table, out=table)
            else:
                table = _exponentials(grid, mum)
            tm[...] = _terms(grid, fm, mum, table)


def build_g(fplus: SourceField, fminus: SourceField, params: PhysicalParams) -> np.ndarray:
    """Right-hand side of the front equation on the grid's full (nt, nx) frequency mesh.

    g = -(mu+ mu- / (mu+ + mu-)) M, with the source moment M = T+ - T- of
    :func:`half_line_terms`.  T+- are computed on the half mesh and
    expanded by :meth:`GridSpec.expand`; past column nx/2 the Nyquist row,
    which the mirror does not carry, is computed from the mirrored sources
    (see :attr:`GridSpec.nyquist_row`).  Raises ValueError when a source is
    not finite or has not decayed at the truncation depth Ly, and
    QuadratureUnderResolved when the neglected tail at Ly is not small
    relative to a side's term, or when either is not finite.
    """
    grid = _source_grid(fplus, fminus)
    fields = (fplus, fminus)
    for field in fields:
        # max |F| in row blocks on the pool, so no temporary of the field's size is made
        spectral = field.spectral
        peak = float(np.max(map_chunks(lambda lo, hi: np.max(np.abs(spectral[lo:hi])), len(spectral), _PEAK_ROWS)))
        if not np.isfinite(peak):
            raise ValueError(f"{field.side.value}-side source is not finite")
        if float(np.max(np.abs(field.spectral[..., -1]))) > DECAY_TOL * peak:
            raise ValueError(f"{field.side.value}-side source has not decayed at the truncation depth Ly")
    table = grid.symbol_table(params)
    mus = (table.mup, table.mum)
    terms = [grid.expand(term) for term in half_line_terms(fplus, fminus, *map(grid.half, mus))]
    row, rest = grid.nyquist_row, slice(grid.half_nx, None)
    for field, mu, term in zip(fields, mus, terms):
        term[row, rest] = boundary_terms(grid, grid.expand(field.spectral, [row])[0, rest], mu[row, rest])
        # the neglected tail is of the order of the integrand at the cutoff
        edge = grid.expand(np.abs(field.spectral[..., -1]))
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
