"""Discrete grids, weighted transforms and weighted norms.

Time and the tangential direction live on a torus [0, Lt) x [0, Lx); the
normal direction is a truncated half-line [0, Ly] carrying a composite
Gauss-Legendre rule of equal panels.  A grid builds that rule (once, in
panel form; the flat nodes and weights are the panels flattened) and its
frequency mesh on first use and keeps them on the instance, so they are
freed with the grid.  The forward transform multiplies by exp(-gamma*t)
and applies an FFT calibrated to the continuum transform with kernel
exp(-i(delta*t + eta*x1)), so discrete norms approximate the continuum
weighted norms (with their 1/(2*pi) normalization) by plain Riemann sums
in frequency.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

import numpy as np

from .chunks import map_chunks
from .symbols import Frequency, PhysicalParams, weight_sigma

__all__ = [
    "GridSpec",
    "Space",
    "find_mode",
    "forward_transform",
    "inverse_transform",
    "weighted_norm",
    "half_line_norm",
]

# Gauss-Legendre nodes per panel of the half-line rule
QUAD_ORDER = 8

# trailing-axis columns per task of forward_transform: 128 bytes of each
# complex128 row, so neighbouring tasks do not keep writing into one cache line
_FFT_COLUMNS = 8


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

    def t(self) -> np.ndarray:
        return np.arange(self.nt) * (self.Lt / self.nt)

    def x1(self) -> np.ndarray:
        return np.arange(self.nx) * (self.Lx / self.nx)

    def delta(self) -> np.ndarray:
        """Signed angular frequencies 2*pi*j/Lt in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.nt, d=self.Lt / self.nt)

    def eta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.Lx / self.nx)

    def freq_mesh(self) -> Frequency:
        """All grid frequencies (gamma, delta_j, eta_k) as an (nt, nx) batch."""
        return self._mesh

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the half-line rule on [0, Ly]: :meth:`panels`, flattened."""
        return self._nodes_weights

    def panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The half-line rule per panel: offsets o_p, local nodes x_j and local weights.

        Node ``p * order + j`` of the rule is ``o_p + x_j``.
        """
        return self._panels

    # Each rule and mesh is built on first use and kept on the instance, so it is freed with the grid.
    @functools.cached_property
    def _mesh(self) -> Frequency:
        d, e = np.meshgrid(self.delta(), self.eta(), indexing="ij")
        return Frequency(np.full_like(d, self.gamma), d, e)

    @functools.cached_property
    def _panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        order = min(QUAD_ORDER, self.ny)
        count = self.ny // order
        xg, wg = np.polynomial.legendre.leggauss(order)
        width = self.Ly / count
        return width * np.arange(count), 0.5 * width * (xg + 1.0), 0.5 * width * wg

    @functools.cached_property
    def _nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        offsets, local, weights = self._panels
        return (offsets[:, None] + local[None, :]).ravel(), np.tile(weights, offsets.size)

    @property
    def cell(self) -> float:
        """Measure of one (t, x1) grid cell."""
        return (self.Lt / self.nt) * (self.Lx / self.nx)


def forward_transform(raw: np.ndarray, grid: GridSpec) -> np.ndarray:
    """exp(-gamma t)-weighted DFT over (t, x1), calibrated to the continuum.

    Values approximate the continuum transform with kernel
    exp(-i(delta t + eta x1)) at the grid frequencies; the inverse carries
    the 1/(2 pi)^2 factor.  Trailing axes (e.g. the x2 node axis) ride
    along untouched.  The 2-D transform of each trailing index is
    independent, so they run in fixed slices on the ``VFS_THREADS`` pool;
    the result does not depend on the slicing.
    """
    raw = np.asarray(raw)
    if raw.shape[:2] != (grid.nt, grid.nx):
        raise ValueError(f"leading axes {raw.shape[:2]} do not match the grid ({grid.nt}, {grid.nx})")
    damp = np.exp(-grid.gamma * grid.t())[:, None, None]
    layers = raw.reshape(grid.nt, grid.nx, -1)
    out = np.empty(layers.shape, dtype=np.result_type(damp, raw, 1j))

    def transform(start: int, stop: int) -> None:
        np.multiply(grid.cell, np.fft.fft2(damp * layers[..., start:stop], axes=(0, 1)), out=out[..., start:stop])

    map_chunks(transform, layers.shape[2], _FFT_COLUMNS)
    return out.reshape(raw.shape)


def inverse_transform(spectral: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of :func:`forward_transform`, including the exp(+gamma t) reweighting."""
    spectral = np.asarray(spectral)
    if spectral.shape[:2] != (grid.nt, grid.nx):
        raise ValueError(
            f"leading axes {spectral.shape[:2]} do not match the grid ({grid.nt}, {grid.nx})"
        )
    grow = np.exp(grid.gamma * grid.t()).reshape((grid.nt,) + (1,) * (spectral.ndim - 1))
    return grow * np.fft.ifft2(spectral / grid.cell, axes=(0, 1))


def find_mode(grid: GridSpec, freq: Frequency) -> tuple[int, int]:
    """Lattice indices (it, ix) of a single frequency; it must sit on the grid."""
    if freq.size != 1:
        raise ValueError("mode lookup works one frequency at a time")
    gamma, delta, eta = freq.gamma.item(), freq.delta.item(), freq.eta.item()
    if gamma != grid.gamma:
        raise ValueError(f"frequency gamma {gamma!r} differs from grid gamma {grid.gamma!r}")
    deltas, etas = grid.delta(), grid.eta()
    it = int(np.argmin(np.abs(deltas - delta)))
    ix = int(np.argmin(np.abs(etas - eta)))
    scale = max(abs(delta), abs(eta), 1.0)
    if abs(deltas[it] - delta) > 1e-9 * scale or abs(etas[ix] - eta) > 1e-9 * scale:
        raise ValueError("frequency does not sit on the grid lattice")
    return it, ix


def _norm_weight(grid: GridSpec, s: float, space: Space, params: PhysicalParams | None) -> np.ndarray:
    freq = grid.freq_mesh()
    lam_s = freq.lam**s
    if Space(space) is Space.PLAIN:
        return lam_s
    if params is None:
        raise ValueError("the anisotropic norm needs params (the weight depends on mach)")
    return np.abs(weight_sigma(freq, params)) * lam_s


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
    exp(-gamma t) u on the torus (discrete Parseval).
    """
    u_hat = np.asarray(u_hat)
    if u_hat.shape != (grid.nt, grid.nx):
        raise ValueError(f"expected shape ({grid.nt}, {grid.nx}), got {u_hat.shape}")
    w = _norm_weight(grid, s, space, params)
    total = np.sum((w * np.abs(u_hat)) ** 2) / (grid.Lt * grid.Lx)
    return float(np.sqrt(total))


def half_line_norm(spectral: np.ndarray, grid: GridSpec, s: float) -> float:
    """L^2(half-line; H^s) norm of a source: quadrature in x2 of squared plain trace norms."""
    spectral = np.asarray(spectral)
    if spectral.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(
            f"expected shape ({grid.nt}, {grid.nx}, {grid.ny}), got {spectral.shape}"
        )
    _, wq = grid.quadrature()
    w = _norm_weight(grid, s, Space.PLAIN, None)
    per_node = np.sum((w[..., None] * np.abs(spectral)) ** 2, axis=(0, 1)) / (grid.Lt * grid.Lx)
    return float(np.sqrt(np.dot(wq, per_node)))
