"""Tools for the linear stability of compressible vortex sheets.

The package evaluates the front symbol and its weight on the frequency
half-space, certifies the pointwise bounds that make the weight usable,
solves the front equation from half-line sources, reconstructs the pressure
profiles, and exposes the whole thing through the ``vfs`` command line.
"""

from .front import (
    FrontSolution,
    QuadratureUnderResolved,
    Side,
    SourceField,
    SweepResult,
    SymbolTooSmall,
    build_g,
    estimate_sweep,
    solve_front,
    transform_source,
)
from .grids import GridSpec, Space, forward_transform, half_line_norm, inverse_transform, weighted_norm
from .hemisphere import (
    BoundCertificate,
    HemisphereSample,
    NoRootFound,
    SampleStrategy,
    certify_sandwich,
    certify_simple_root,
    certify_weight_bounds,
    locate_roots,
    sample_hemisphere,
)
from .pressure import (
    DecayViolated,
    PressureProfile,
    front_equation_residual,
    solve_half_space,
)
from .symbols import (
    DegenerateDenominator,
    Frequency,
    InternalCheckFailed,
    NumericalGuard,
    PhysicalParams,
    Regime,
    big_sigma,
    mu_pm,
    root_constants,
    weight_bound_constant,
    weight_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "DecayViolated",
    "DegenerateDenominator",
    "Frequency",
    "FrontSolution",
    "GridSpec",
    "HemisphereSample",
    "InternalCheckFailed",
    "NoRootFound",
    "NumericalGuard",
    "PhysicalParams",
    "PressureProfile",
    "QuadratureUnderResolved",
    "Regime",
    "SampleStrategy",
    "Side",
    "SourceField",
    "Space",
    "SweepResult",
    "SymbolTooSmall",
    "big_sigma",
    "build_g",
    "certify_sandwich",
    "certify_simple_root",
    "certify_weight_bounds",
    "estimate_sweep",
    "forward_transform",
    "front_equation_residual",
    "half_line_norm",
    "inverse_transform",
    "locate_roots",
    "mu_pm",
    "root_constants",
    "sample_hemisphere",
    "solve_front",
    "solve_half_space",
    "transform_source",
    "weight_bound_constant",
    "weight_sigma",
    "weighted_norm",
]
