"""Numerical laboratory for restricted boundedness of singular integral operators.

The package studies discretized singular kernels paired with general positive
measures: certified Schur bounds for smooth truncations, bilinear forms and
restricted operator norms over separated supports, measure splitting into
separated halves with balanced mass, comparison of hard and smooth
truncations, and growth conditions of Muckenhoupt type together with the
lower-bound experiment showing they are forced by restricted bounds.

Modules
-------
measure      discrete measures: atoms, densities, dyadic grids, (de)serialization
kernels      kernel families (Hilbert, Cauchy, Riesz-type, Ahlfors-Beurling)
mollifiers   multiplier profiles, transform-side Schur bounds, moment analysis
forms        bilinear forms, operator norms, restricted norms, factor-2 checks
splitter     separated half-and-half partitions of dyadic cubes
truncation   hard truncations, sectorial multipliers, hard-vs-smooth comparisons
muckenhoupt  growth constants and the necessity experiment
cli          reproducible experiment runner (``siolab`` console command)
jsonout      the one indented, key-sorted JSON layout of reports and partitions
"""

from . import (  # noqa: F401
    cli,
    forms,
    kernels,
    measure,
    mollifiers,
    muckenhoupt,
    splitter,
    truncation,
)
from .errors import (  # noqa: F401
    CommonAtomsError,
    DiagonalSingularityError,
    InconclusiveError,
    NonConvergenceError,
    NormalizationError,
    NotSectorializableError,
    ParameterError,
    ProfileBoundError,
    ResolutionError,
    SchemaError,
    SeparationError,
    ShrinkRetryError,
    SiolabError,
    ToleranceError,
    UnreliableEstimateError,
    UsageError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "measure",
    "kernels",
    "mollifiers",
    "forms",
    "splitter",
    "truncation",
    "muckenhoupt",
    "cli",
    "SiolabError",
    "UsageError",
    "ParameterError",
    "SchemaError",
    "NonConvergenceError",
    "SeparationError",
    "CommonAtomsError",
    "DiagonalSingularityError",
    "ResolutionError",
    "ShrinkRetryError",
    "NormalizationError",
    "UnreliableEstimateError",
    "ToleranceError",
    "InconclusiveError",
    "NotSectorializableError",
    "ProfileBoundError",
]
