import hypothesis
import numpy as np

from vsheet.front import Side, SourceField
from vsheet.grids import inverse_transform
from vsheet.symbols import mu_pm

hypothesis.settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("default")


def source_from_spectral(spectral, side, grid) -> SourceField:
    """Wrap an already-transformed profile as a SourceField (for manufactured cases)."""
    return SourceField(side=Side(side), spectral=np.asarray(spectral, dtype=np.complex128), grid=grid)


def off_nyquist(spectral, grid) -> np.ndarray:
    """A complex128 copy of a half-mesh field with its Nyquist row nt/2 and column nx/2 set to zero.

    Those are the lines that ``front.transform_source`` zeroes and ``SourceField`` keeps empty;
    an axis of length 1 has none.
    """
    spectral = np.array(spectral, dtype=np.complex128)
    if grid.nt > 1:
        spectral[grid.nt // 2] = 0.0
    if grid.nx > 1:
        spectral[:, grid.nx // 2] = 0.0
    return spectral


def half_zeros(grid) -> np.ndarray:
    """A zero spectral field on the grid's half mesh, shape (nt, nx/2 + 1, ny)."""
    return np.zeros((grid.nt, grid.half_nx, grid.ny), dtype=complex)


def half_mus(grid, params) -> tuple:
    """mu+- on the grid's half mesh."""
    return tuple(grid.half(mu) for mu in mu_pm(grid.freq_mesh(), params))


def manufactured_solution(grid, params, w=2.0, kmax=2.0, seed=21):
    """An exact solution of the transmission problem on ``grid``, by the method of manufactured solutions.

    A Hermitian front ``fhat`` on the (nt, nx) mesh, zero on the Nyquist row and column, and per
    mode and side the pressure profile P(xi) = (fhat + b xi) exp(-(xi / w)^2) in the mirrored depth
    xi, with b+ = -(tau + i v eta)^2 fhat / c^2 and b- = +(tau - i v eta)^2 fhat / c^2, the Neumann
    data of the jump system: P(0) = fhat, P'(0) = b.  The sources are F = c^2 mu^2 P - c^2 P'' with
    the grid's mu+-, so by parts T = c^2 (P'(0) + mu P(0)) / mu and the front equation's g is
    Sigma fhat exactly; a pipeline's only errors are its depth rule and the cut at Ly.  Returns
    ``fhat``, the slopes (b+, b-) and the raw real float64 fields (plus, minus) on the grid's
    (t, x1, node) samples.  At gamma = 16 the raw fields reach 1e43, beyond float32.
    """
    rng = np.random.default_rng(seed)
    mesh = grid.freq_mesh()
    shape = (grid.nt, grid.nx)
    draw = np.exp(-(mesh.delta**2 + mesh.eta**2) / kmax**2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # Hermitian: the mean with the conjugate at the negated frequency
    negated = draw[-np.arange(grid.nt) % grid.nt][:, -np.arange(grid.nx) % grid.nx]
    fhat = 0.5 * (draw + np.conj(negated))
    fhat[grid.nt // 2] = fhat[:, grid.nx // 2] = 0.0
    v, c = params.v, params.c
    tau, veta = mesh.gamma + 1j * mesh.delta, 1j * v * mesh.eta
    slopes = (-((tau + veta) ** 2) * fhat / c**2, (tau - veta) ** 2 * fhat / c**2)
    xi = grid.quadrature()[0]
    gauss = np.exp(-((xi / w) ** 2))
    dgauss, d2gauss = -2.0 * xi / w**2 * gauss, (4.0 * xi**2 / w**4 - 2.0 / w**2) * gauss
    table = grid.symbol_table(params)
    raw = []
    for mu, b in zip((table.mup, table.mum), slopes):
        line = fhat[..., None] + b[..., None] * xi
        profile, curvature = line * gauss, 2.0 * b[..., None] * dgauss + line * d2gauss
        raw.append(inverse_transform(grid.half(c * c * (mu[..., None] ** 2 * profile - curvature)), grid))
    return fhat, slopes, tuple(raw)
