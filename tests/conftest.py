import hypothesis
import numpy as np

from vsheet.front import Side, SourceField
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


def half_zeros(grid) -> np.ndarray:
    """A zero spectral field on the grid's half mesh, shape (nt, nx/2 + 1, ny)."""
    return np.zeros((grid.nt, grid.half_nx, grid.ny), dtype=complex)


def half_mus(grid, params) -> tuple:
    """mu+- on the grid's half mesh."""
    return tuple(grid.half(mu) for mu in mu_pm(grid.freq_mesh(), params))
