"""Discrete grids, weighted transforms, weighted norms and the half-line kernel.

Time and the tangential direction live on a torus [0, Lt) x [0, Lx); the
normal direction is a truncated half-line [0, Ly] carrying a composite
Gauss-Legendre rule of equal panels.  A grid builds that rule (once, in
panel form; the flat nodes and weights are the panels flattened), the
static tables of the kernel below, its frequency axes, mesh and Lambda,
and one :class:`symbols.SymbolTable` per background state on first use
and keeps them on the instance, so they are freed with the grid.  Every
caller that needs mu+-, Sigma, |sigma| or Lambda on the mesh reads them
there.  The forward transform takes a real field, multiplies it by
exp(-gamma*t) and applies a real FFT calibrated to the continuum transform
with kernel exp(-i(delta*t + eta*x1)), so discrete norms approximate the
continuum weighted norms (with their 1/(2*pi) normalization) by plain
Riemann sums in frequency.  That FFT is numpy's rfft2 bit for bit, taken
as its two passes on the worker pool: an rfft in x1 over blocks of whole t
rows, then an fft in t over blocks of half-mesh columns.

The transform of a real field is Hermitian, F(-delta, -eta) = conj
F(delta, eta), so it is kept on the half mesh: all nt rows and the first
nx/2 + 1 columns, eta >= 0 and the last column, whose eta = -pi nx / Lx is
fftfreq's (rfft2's bin nx/2 is fft2's column nx/2).  Mode (it, ix) with
ix > nx/2 is the conjugate of its mirror (-it mod nt, nx - ix).
:class:`GridSpec` holds that rule: the half columns, the mirror, the
column multiplicities and the expansion of a half array to the full mesh.

The half-line kernel exp(-mu y) on the half-line rule lives here and only
here.  :func:`boundary_terms` gives T = (1/mu) int_0^Ly exp(-mu y) F(y)
dy, which the front moment (:func:`mesh_terms`, for a source pair on the
whole mesh) and the pressure boundary values are made of, and
:func:`closure_sums` adds what the pressure closure needs: the homogeneous
profile exp(-mu y_i) and the free-space sums
sum_j exp(-mu |y_i - y_j|) w_j F_j.  Node ``p * order + j`` of the rule is
o_p + x_j (panel offset plus local node), so the kernel factors per panel,
exp(-mu y) = exp(-mu o_p) exp(-mu x_j): one mode takes panels + order
complex exponentials instead of ny.  The Gauss-Legendre nodes are
symmetric, h - x_j = x_{order-1-j} for panel width h, so node i of panel
p sees node j of a deeper panel q > p through exp(-mu o_{q-p-1})
exp(-mu x_{order-1-i}) exp(-mu x_j), which reuses T's per-panel sums, and
node j of a shallower panel q < p through exp(-mu o_{p-q-1}) exp(-mu x_i)
exp(-mu x_{order-1-j}), the mirrored sums; within a panel the block
exp(-mu |x_i - x_j|) is taken as it is.  The panel lags form one
(ny/order)^2 matrix of exp(-mu o_k) per mode.  Since Re mu > 0, every
factor has modulus at most 1: no exp(+mu y) is formed, and there is no
ny x ny kernel.  A mode's exponentials come from one ``np.exp`` call
over the grid's exponent vector: the local nodes and panel offsets for
T, and the distinct in-panel distances too for the closure, whose index
tables spread them into the lag matrix and the block.  Since
mu-(delta, eta) = conj mu+(-delta, eta), exp(-mu- x) at row it of the mesh
is the conjugate of exp(-mu+ x) at the mirrored row -it mod nt, so
:func:`mesh_terms` makes one table per mirror pair of rows of a grid's
:class:`symbols.SymbolTable`, whose rows are conjugate mirrors by
construction.  Row nt/2, whose delta is its own mirror's, takes a table
per side on all nx columns: past column nx/2 the half mesh does not carry it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .chunks import map_chunks
from .symbols import Frequency, PhysicalParams, SymbolTable, _require_weakly_stable, weight_sigma  # weight_sigma: kept for perfbench/tracing.py

__all__ = [
    "GridSpec",
    "Space",
    "find_mode",
    "forward_transform",
    "real_source",
    "inverse_transform",
    "weighted_norm",
    "half_line_norm",
    "boundary_terms",
    "mesh_terms",
    "closure_sums",
]

# Gauss-Legendre nodes per panel of the half-line rule
QUAD_ORDER = 8

# forward_transform runs in two passes of tasks on the worker pool.  A row task damps
# whole t rows at full depth and takes their rfft in x1: at most _FFT_ROWS rows, and
# fewer when the depth is large, so that its float64 buffer holds no more than
# nt * nx * _FFT_DEPTH doubles (one row at least).  A column task then takes the fft
# in t of _FFT_LINES half-mesh columns (an (ix, depth) pair each), in place.
_FFT_ROWS = 16
_FFT_DEPTH = 8
_FFT_LINES = 256

# mirror pairs of rows per task of mesh_terms: 12 rows, whose exponentials are a task's
# largest temporaries
_KERNEL_PAIRS = 6

# leading-axis rows per block of the weighted sum over a source field, so that
# no temporary of the field's size is made
_REDUCE_ROWS = 8


class Space(enum.Enum):
    """Weight applied inside a frequency-space norm."""

    PLAIN = "plain"          # Lambda^s
    ANISOTROPIC = "aniso"    # |sigma| * Lambda^s


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Discretization: torus sizes/periods, half-line rule, Laplace abscissa.

    nt, nx : number of samples in t and x1 (powers of two, for the FFT)
    ny     : quadrature nodes on [0, Ly] per side
    gamma  : Laplace abscissa of the run, >= 1
    """

    nt: int
    nx: int
    ny: int
    Lt: float
    Lx: float
    Ly: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (_is_power_of_two(self.nt) and _is_power_of_two(self.nx)):
            raise ValueError(f"nt and nx must be powers of two, got {self.nt}, {self.nx}")
        if self.ny < 2:
            raise ValueError(f"ny must be at least 2, got {self.ny}")
        for name in ("Lt", "Lx", "Ly"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")
        if not (np.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be >= 1, got {self.gamma!r}")
        order = min(QUAD_ORDER, self.ny)
        if self.ny % order:
            raise ValueError(f"ny={self.ny} must be a multiple of the panel order {order}")
        try:
            self.corner()
        except ValueError as exc:
            raise ValueError(f"at the mesh's corner mode (nt/2, nx/2), {exc}") from None

    def t(self) -> np.ndarray:
        return np.arange(self.nt) * (self.Lt / self.nt)

    def x1(self) -> np.ndarray:
        return np.arange(self.nx) * (self.Lx / self.nx)

    def delta(self) -> np.ndarray:
        """Signed angular frequencies 2*pi*j/Lt in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.nt, d=self.Lt / self.nt)

    def eta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.Lx / self.nx)

    def corner(self) -> Frequency:
        """The mesh's mode (nt/2, nx/2), where fftfreq puts the largest |delta| and |eta|, so Lambda is largest.

        Its fftfreq values, -pi nt / Lt and -pi nx / Lx, are written out: a grid checks its corner when it is
        made, and calling fftfreq there raised the closure benchmark's peak RSS by 0.3 MB.
        """
        return Frequency(self.gamma, -np.pi * self.nt / self.Lt, -np.pi * self.nx / self.Lx)

    def freq_mesh(self) -> Frequency:
        """All grid frequencies (gamma, delta_j, eta_k) as an (nt, nx) batch."""
        return self._mesh

    @property
    def half_nx(self) -> int:
        """Columns of the half mesh: eta_0 .. eta_{nx/2}, the last at fftfreq's eta = -pi nx / Lx."""
        return self.nx // 2 + 1

    @property
    def nyquist_row(self) -> int:
        """Row nt/2, whose delta = -pi nt / Lt is also its mirror's.

        Past column nx/2 a mode of this row mirrors a mode of the same
        delta, not its negated frequency, so what the symbols make there
        (the front's right-hand side, say) is not its mirror's conjugate.
        """
        return self.nt // 2

    def half(self, full: np.ndarray) -> np.ndarray:
        """The half-mesh columns of an (nt, nx, ...) array, as a view."""
        return full[:, : self.half_nx]

    def mirror(self, it: int, ix: int) -> tuple[int, int, bool]:
        """Half-mesh index of mode (it, ix) of a Hermitian field, and whether its value is conjugated there."""
        if ix <= self.nx // 2:
            return it, ix, False
        return -it % self.nt, self.nx - ix, True

    def expand(self, half: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of the full (nt, nx, ...) mesh of a Hermitian field, from its half mesh.

        Column ix > nx/2 of row it is the conjugate of (-it mod nt, nx - ix).
        """
        its = np.arange(self.nt)[rows]
        mirrored = np.conj(half[-its % self.nt, self.half_nx - 2 : 0 : -1])
        return np.concatenate((half[its], mirrored), axis=1)

    @functools.cached_property
    def column_counts(self) -> np.ndarray:
        """Full-mesh columns that each half-mesh column stands for: 1 at eta = 0 and at nx/2, else 2."""
        counts = np.full(self.half_nx, 2.0)
        counts[[0, -1]] = 1.0
        return counts

    def symbol_table(self, params: PhysicalParams) -> SymbolTable:
        """mu+-, Sigma and |sigma| of ``params`` on the frequency mesh, built on first use.

        mu+- and Sigma are evaluated on the mesh's quarter, rows 0 .. nt/2 by
        columns 0 .. nx/2, and unfolded onto the rest bit for bit; |sigma| on
        the whole mesh (see :class:`symbols.SymbolTable`).
        """
        if params not in self._tables:
            self._tables[params] = SymbolTable.on_mesh(self._mesh, params)
        return self._tables[params]

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the half-line rule on [0, Ly]: the panels, flattened."""
        return self._nodes_weights

    # Each rule, table, axis pair, mesh (with its Lambda and unit point) and symbol table is
    # built on first use and kept on the instance, so it is freed with the grid.
    @functools.cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.delta(), self.eta()

    @functools.cached_property
    def _mesh(self) -> Frequency:
        d, e = np.meshgrid(*self._axes, indexing="ij")
        return Frequency(np.full_like(d, self.gamma), d, e)

    @functools.cached_property
    def _tables(self) -> dict:
        return {}

    @functools.cached_property
    def _panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Panel offsets o_p, local nodes x_j and local weights."""
        order = min(QUAD_ORDER, self.ny)
        count = self.ny // order
        xg, wg = np.polynomial.legendre.leggauss(order)
        width = self.Ly / count
        return width * np.arange(count), 0.5 * width * (xg + 1.0), 0.5 * width * wg

    @functools.cached_property
    def _panel_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's exponents, and where each exponential of a closure mode goes.

        The exponents are the local nodes x_j, the panel offsets o_p and the distinct in-panel
        distances |x_i - x_j|, the diagonal's 0 among them.  The two index tables point into the
        exponentials of that vector followed by one zero: the panel lags, o_{p-q-1} for q < p and
        the zero on and above the diagonal, and the in-panel block |x_i - x_j|.
        """
        offsets, local, _ = self._panels
        distances, block = np.unique(np.abs(np.subtract.outer(local, local)), return_inverse=True)
        exponents = np.concatenate((local, offsets, distances))
        lags = np.subtract.outer(np.arange(offsets.size), np.arange(offsets.size)) - 1
        lags = np.where(lags >= 0, local.size + lags, exponents.size)
        return exponents, lags, local.size + offsets.size + block.reshape(local.size, local.size)

    @functools.cached_property
    def _nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        offsets, local, weights = self._panels
        return (offsets[:, None] + local[None, :]).ravel(), np.tile(weights, offsets.size)

    @property
    def cell(self) -> float:
        """Measure of one (t, x1) grid cell."""
        return (self.Lt / self.nt) * (self.Lx / self.nx)


def real_source(raw, what: str) -> np.ndarray:
    """``raw`` as a real array, without a copy; a ValueError naming ``what`` for a non-zero imaginary part."""
    raw = np.asarray(raw)
    if not np.iscomplexobj(raw):
        return raw
    if np.any(raw.imag):
        raise ValueError(f"{what} has a non-zero imaginary part; sources are real")
    return raw.real


def forward_transform(raw: np.ndarray, grid: GridSpec) -> np.ndarray:
    """exp(-gamma t)-weighted DFT over (t, x1) of a real field, on the half mesh.

    Values approximate the continuum transform with kernel
    exp(-i(delta t + eta x1)) at the half mesh's frequencies; the result
    has shape (nt, nx/2 + 1) + the trailing axes, which (e.g. the x2 node
    axis) ride along untouched.  ``rfft2`` over (t, x1) is an ``rfft`` in
    x1 and then an ``fft`` in t, and the two passes run as fixed tasks on
    the ``VFS_THREADS`` pool, so the result is ``rfft2``'s bit for bit and
    does not depend on the thread count.  A row task damps a block of
    whole t rows, with the cell measure folded into the damping, and
    writes their ``rfft`` into those rows of the output; a float32 ``raw``
    is upcast exactly as it is damped, and the buffer is at most
    nt * nx * 8 doubles unless one row is larger (see ``_FFT_ROWS``).  A
    column task then runs the ``fft`` in t in place on a block of
    half-mesh columns.  ValueError for a complex ``raw``: see
    :func:`real_source`.
    """
    raw = np.asarray(raw)
    if np.iscomplexobj(raw):
        raise ValueError(f"the forward transform takes a real field, got {raw.dtype}")
    if raw.shape[:2] != (grid.nt, grid.nx):
        raise ValueError(f"leading axes {raw.shape[:2]} do not match the grid ({grid.nt}, {grid.nx})")
    damp = grid.cell * np.exp(-grid.gamma * grid.t())[:, None, None]
    layers = raw.reshape(grid.nt, grid.nx, -1)
    out = np.empty((grid.nt, grid.half_nx, layers.shape[2]), dtype=complex)
    columns = out.reshape(grid.nt, -1)

    def transform_rows(start: int, stop: int) -> None:
        damped = np.multiply(damp[start:stop], layers[start:stop], dtype=np.float64)
        np.fft.rfft(damped, axis=1, out=out[start:stop])

    def transform_columns(start: int, stop: int) -> None:
        block = columns[:, start:stop]
        np.fft.fft(block, axis=0, out=block)

    map_chunks(transform_rows, grid.nt, max(1, min(_FFT_ROWS, grid.nt * _FFT_DEPTH // layers.shape[2])))
    map_chunks(transform_columns, columns.shape[1], _FFT_LINES)
    return out.reshape((grid.nt, grid.half_nx) + raw.shape[2:])


def inverse_transform(spectral: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of :func:`forward_transform`, including the exp(+gamma t) reweighting, as complex128.

    One buffer: the division by the cell measure makes it, and ``ifft2``'s
    two passes (an ``ifft`` in x1, then in t) and the growth factor act on
    it in place.  ``numpy.fft.ifft2`` itself ignores ``out=``.
    """
    spectral = np.asarray(spectral)
    if spectral.shape[:2] != (grid.nt, grid.nx):
        raise ValueError(
            f"leading axes {spectral.shape[:2]} do not match the grid ({grid.nt}, {grid.nx})"
        )
    grow = np.exp(grid.gamma * grid.t()).reshape((grid.nt,) + (1,) * (spectral.ndim - 1))
    out = np.asarray(spectral / grid.cell, dtype=complex)
    for axis in (1, 0):
        np.fft.ifft(out, axis=axis, out=out)
    out *= grow
    return out


def find_mode(grid: GridSpec, freq: Frequency) -> tuple[int, int]:
    """Lattice indices (it, ix) of a single frequency; it must sit on the grid."""
    if freq.size != 1:
        raise ValueError("mode lookup works one frequency at a time")
    gamma, delta, eta = freq.gamma.item(), freq.delta.item(), freq.eta.item()
    if gamma != grid.gamma:
        raise ValueError(f"frequency gamma {gamma!r} differs from grid gamma {grid.gamma!r}")
    deltas, etas = grid._axes
    # the nearest lattice point, in FFT order: k = round(delta Lt / 2 pi) sits at index k mod nt
    it = round(delta * grid.Lt / (2.0 * np.pi)) % grid.nt
    ix = round(eta * grid.Lx / (2.0 * np.pi)) % grid.nx
    scale = max(abs(delta), abs(eta), 1.0)
    if abs(deltas[it] - delta) > 1e-9 * scale or abs(etas[ix] - eta) > 1e-9 * scale:
        raise ValueError("frequency does not sit on the grid lattice")
    return it, ix


def _panel_sums(grid: GridSpec, spectral: np.ndarray, mu: np.ndarray, exponentials: np.ndarray):
    """The step both kernels share, for ``mu`` of any batch shape.

    ``exponentials`` starts its last axis with exp(-mu x_j) and then
    exp(-mu o_p).  Returns T, the per-panel sums sum_j exp(-mu x_j) w_j F_pj
    (shape ``mu.shape + (panels, 1)``), exp(-mu x_j) on the last axis,
    exp(-mu o_p) on the last axis, and exp(-mu x_j) w_j.
    """
    offsets, local, weights = grid._panels
    near, far = exponentials[..., : local.size], exponentials[..., local.size : local.size + offsets.size]
    weighted = near * weights
    sums = spectral.reshape(mu.shape + (offsets.size, local.size)) @ weighted[..., None]
    return (far[..., None, :] @ sums)[..., 0, 0] / mu, sums, near, far, weighted


def _exponentials(grid: GridSpec, mu: np.ndarray) -> np.ndarray:
    """exp(-mu x_j) and then exp(-mu o_p) on a new last axis: one ``np.exp`` call over the head of the grid's exponents."""
    offsets, local, _ = grid._panels
    return np.exp(-mu[..., None] * grid._panel_tables[0][: local.size + offsets.size])


def boundary_terms(grid: GridSpec, spectral: np.ndarray, mu) -> np.ndarray:
    """T = (1/mu) int_0^Ly exp(-mu y) F(y) dy on the grid's rule, with the shape of ``mu``.

    ``spectral`` holds F on the rule's nodes, with shape ``mu.shape + (ny,)``.  A mu that is not
    finite gives a T that is not, without a warning: ``front.build_g``'s tail guard names it.
    One ``np.exp`` call takes the local nodes and the panel offsets, the head of the grid's exponents.
    """
    mu = np.asarray(mu)
    with np.errstate(invalid="ignore"):
        return _panel_sums(grid, spectral, mu, _exponentials(grid, mu))[0]


def mesh_terms(grid: GridSpec, plus: np.ndarray, minus: np.ndarray, table: SymbolTable) -> tuple[np.ndarray, np.ndarray]:
    """(T+, T-) of a (plus, minus) source pair on the grid's full (nt, nx) mesh.

    ``plus`` and ``minus`` are the sources' half meshes, shape (nt, nx/2 + 1,
    ny), and ``table`` is the grid's symbol table (:meth:`GridSpec.symbol_table`).
    The front moment is T+ - T-, the pressure boundary values are T+- / (2 c^2).
    Each side is :func:`boundary_terms`' value at every mode, bit for bit: on
    the half mesh, expanded by :meth:`GridSpec.expand`, and past column nx/2
    of the Nyquist row, which the mirror does not carry
    (:attr:`GridSpec.nyquist_row`), from the mirrored sources.  The rows run
    on the ``VFS_THREADS`` pool in fixed tasks of ``_KERNEL_PAIRS`` mirror
    pairs: row it with row -it mod nt.  The table's rows are conjugate
    mirrors, mu-(delta, eta) = conj mu+(-delta, eta) (see
    :class:`symbols.SymbolTable`), so one ``np.exp`` call serves a pair: the
    minus side's exp(-mu- x) on a row is the conjugate of the plus side's on
    its mirror, and on row 0 of the plus side's on row 0.  The Nyquist row
    nt/2, whose delta is its mirror's, takes its own exponentials on each side.
    """
    last, mus = grid.nyquist_row, (table.mup, table.mum)
    halves = tuple(np.empty((grid.nt, grid.half_nx), dtype=complex) for _ in mus)
    nyquist = np.empty((2, 1, grid.nx), dtype=complex)
    arrays = (plus, minus) + tuple(map(grid.half, mus)) + halves

    def terms(rows: list, mirrors: list) -> None:
        # rows and mirrors are views (F+, F-, mu+, mu-, T+, T-) of a block of rows and of its mirror
        # rows in pair order; a block of rows that are their own mirrors passes the same list twice
        blocks = [rows] if mirrors is rows else [rows, mirrors]
        tables = [_exponentials(grid, mup) for _, _, mup, _, _, _ in blocks]
        for (fp, _, mup, _, tp, _), table in zip(blocks, tables):
            tp[...] = _panel_sums(grid, fp, mup, table)[0]
        # the plus side's table at each block's mirror block
        for (_, fm, _, mum, _, tm), table in zip(blocks, tables[::-1]):
            tm[...] = _panel_sums(grid, fm, mum, np.conjugate(table, out=table))[0]

    def pairs(start: int, stop: int) -> None:
        # errstate is thread-local, so each task sets it: a mu that is not finite gives a T that is not
        with np.errstate(invalid="ignore"):
            # pair k is row k and row nt - k, which is row k - 1 of the rows reversed
            inner = slice(max(start, 1), min(stop, last))
            if inner.start < inner.stop:
                flipped = slice(inner.start - 1, inner.stop - 1)
                terms([a[inner] for a in arrays], [a[::-1][flipped] for a in arrays])
            if start == 0 < last:
                rows = [a[:1] for a in arrays]
                terms(rows, rows)
            if start <= last < stop:
                for source, mu, row, half in zip((plus, minus), mus, nyquist, halves):
                    row_mu = mu[last : last + 1]
                    row[...] = _panel_sums(grid, grid.expand(source, [last]), row_mu, _exponentials(grid, row_mu))[0]
                    half[last] = row[0, : grid.half_nx]

    map_chunks(pairs, last + 1, _KERNEL_PAIRS)
    full = tuple(map(grid.expand, halves))
    for term, row in zip(full, nyquist):
        term[last] = row[0]
    return full


def closure_sums(grid: GridSpec, spectral: np.ndarray, mu):
    """T, exp(-mu y_i) and sum_j exp(-mu |y_i - y_j|) w_j F_j on the grid's rule.

    ``spectral`` has shape ``mu.shape + (ny,)``; T has the shape of ``mu``,
    the other two that of ``spectral``.  T is :func:`boundary_terms`' value
    bit for bit.  One ``np.exp`` call takes all the grid's exponents
    (:attr:`GridSpec._panel_tables`), and its index tables spread the
    exponentials into the panel lags and the in-panel block.
    """
    mu = np.asarray(mu)
    exponents, lags, block = grid._panel_tables
    # the exponentials, then the zero that the lag table points to on and above the diagonal
    table = np.zeros(mu.shape + (exponents.size + 1,), dtype=complex)
    np.exp(-mu[..., None] * exponents, out=table[..., :-1])
    terms, sums, near, far, weighted = _panel_sums(grid, spectral, mu, table)
    panels = spectral.reshape(sums.shape[:-1] + (-1,))
    mirrored = panels @ weighted[..., ::-1, None]
    # powers[p, q] = exp(-mu o_{p-q-1}) for q < p, 0 on and above the diagonal.  Indexed, not taken:
    # the indexed array's layout picks numpy's matmul loop below, and with it how the sums round.
    powers = table[..., lags]
    free = (
        (panels * grid._panels[2]) @ np.take(table, block, axis=-1)
        + (powers @ mirrored) * near[..., None, :]
        + (np.swapaxes(powers, -1, -2) @ sums) * near[..., None, ::-1]
    )
    homogeneous = far[..., :, None] * near[..., None, :]
    return terms, homogeneous.reshape(spectral.shape), free.reshape(spectral.shape)


def weighted_norm(
    u_hat: np.ndarray,
    grid: GridSpec,
    s: float,
    space: Space = Space.PLAIN,
    params: PhysicalParams | None = None,
) -> float:
    """Discrete weighted Sobolev norm of a transformed trace u_hat(delta, eta).

    PLAIN is the norm with weight Lambda^s, ANISOTROPIC the one with
    |sigma| Lambda^s.  The Riemann sum in frequency absorbs the continuum
    1/(2 pi)^2 so that the s = 0 plain norm equals the L^2 norm of
    exp(-gamma t) u on the torus (discrete Parseval).  A sum of squares
    that overflows is redone at an exact power of two, :func:`_rescaled`.
    """
    u_hat = np.asarray(u_hat)
    if u_hat.shape != (grid.nt, grid.nx):
        raise ValueError(f"expected shape ({grid.nt}, {grid.nx}), got {u_hat.shape}")
    w = grid.freq_mesh().lam**s
    if Space(space) is not Space.PLAIN:
        if params is None:
            raise ValueError("the anisotropic norm needs params (the weight depends on mach)")
        _require_weakly_stable(params)
        w = grid.symbol_table(params).abs_weight * w
    with np.errstate(over="ignore"):
        values = w * np.abs(u_hat)
        return _rescaled(lambda k: np.sum(np.ldexp(values, -k) ** 2 if k else values**2, axis=(0, 1)), values.max, grid)


def half_line_norm(spectral: np.ndarray, grid: GridSpec, s: float) -> float:
    """L^2(half-line; H^s) norm of a source: quadrature in x2 of squared plain trace norms.

    ``spectral`` is the source's half mesh, shape (nt, nx/2 + 1, ny).  Each
    column is weighted by the full-mesh columns it stands for, so the sum
    is the full mesh's.  The squares are summed in blocks of
    ``_REDUCE_ROWS`` rows, each one matrix-vector product of the weights
    Lambda^(2s) with the squared real and imaginary parts, so no temporary
    of the field's size is made.  A sum of squares that overflows is redone
    at an exact power of two, :func:`_rescaled`.
    """
    spectral = np.asarray(spectral)
    shape = (grid.nt, grid.half_nx, grid.ny)
    if spectral.shape != shape:
        raise ValueError(f"expected shape {shape}, got {spectral.shape}")
    weights = grid.half(grid.freq_mesh().lam) ** (2.0 * s) * grid.column_counts
    _, wq = grid.quadrature()
    blocks = range(0, grid.nt, _REDUCE_ROWS)

    def squares(k: int) -> float:
        total = np.zeros(2 * grid.ny)
        for start in blocks:
            parts = np.ascontiguousarray(spectral[start : start + _REDUCE_ROWS], dtype=complex).view(np.float64)
            if k:
                parts = np.ldexp(parts, -k)
            total += weights[start : start + _REDUCE_ROWS].ravel() @ (parts * parts).reshape(-1, total.size)
        return np.dot(wq, total[0::2] + total[1::2])

    def peak() -> float:
        return max(float(np.max(np.abs(spectral[start : start + _REDUCE_ROWS]))) for start in blocks)

    with np.errstate(over="ignore"):
        return _rescaled(squares, peak, grid)


def _rescaled(squares, peak, grid: GridSpec) -> float:
    """``sqrt(squares(0) / (Lt Lx))``, where ``squares(k)`` sums the values' squares with the values times 2^-k.

    A sum that is not finite is redone once at the exponent k of ``peak()``,
    the largest value, which puts every scaled value below 1, and the root
    is scaled back by 2^k: a power of two scales each rounding step exactly,
    so a norm that double precision holds reads finite, with the bits of the
    unscaled sum, while a finite first sum takes no second pass.
    """
    total, k = squares(0), 0
    if not np.isfinite(total):
        k = math.frexp(peak())[1]
        total = squares(k)
    return float(np.ldexp(np.sqrt(total / (grid.Lt * grid.Lx)), k))
