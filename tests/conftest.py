import hypothesis
import numpy as np

from vsheet.front import Side, SourceField

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
