"""Exception hierarchy shared across the package.

Every failure mode that a caller is expected to catch gets its own class so
the CLI can map errors to stable exit codes: usage problems exit 2, numerical
non-convergence exits 3, data/tolerance failures exit 1, and a check that a
heuristic lower bound could neither confirm nor refute exits 4.
"""

from __future__ import annotations


class SiolabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(SiolabError):
    """Bad parameters, malformed files, unknown names."""

    exit_code = 2


class ParameterError(UsageError):
    """A parameter is outside its documented domain."""


class SchemaError(UsageError):
    """A serialized object violates the documented file schema."""


class SeparationError(SiolabError):
    """Supports that must be separated touch; carries the offending pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class CommonAtomsError(SiolabError):
    """Two measures share atoms where the construction forbids it."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points


class DiagonalSingularityError(SiolabError):
    """A singular kernel was evaluated on coincident points without a
    vanishing multiplier or an explicit diagonal policy."""

    def __init__(self, message, pairs=None):
        super().__init__(message)
        self.pairs = pairs


class ResolutionError(SiolabError):
    """The discretization is too coarse for the requested construction."""


class ShrinkRetryError(SiolabError):
    """Cube shrinking kept violating the balance bound after all retries."""


class NormalizationError(SiolabError):
    """A density that must integrate to 1 does not."""


class UnreliableEstimateError(SiolabError):
    """Two grid resolutions disagree too much; carries both values."""

    def __init__(self, message, fine=None, coarse=None):
        super().__init__(message)
        self.fine = fine
        self.coarse = coarse


class NonConvergenceError(SiolabError):
    """A numerical solver stopped before reaching its tolerance."""

    exit_code = 3


class ToleranceError(SiolabError):
    """A quantitative assertion failed at its stated tolerance."""


class InconclusiveError(SiolabError):
    """A check failed only against a heuristic lower bound, which may have
    undershot; the asserted inequality is neither confirmed nor refuted."""

    exit_code = 4


class NotSectorializableError(SiolabError):
    """A spherical profile vanishes somewhere, so no sectorial multiplier
    can be built from it."""


class ProfileBoundError(SiolabError):
    """A kernel profile violates a bound required by a construction."""
