"""Exception hierarchy shared by all graphspectra modules.

Every error carries a stable ``code`` (the class name) and a ``witness``
payload describing the offending input, so that failures can be rendered
as machine-readable JSON by the CLI.
"""

from __future__ import annotations


class GraphSpectraError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness

    @property
    def code(self) -> str:
        return type(self).__name__


# graphs
class InvalidGraph(GraphSpectraError):
    pass


class InvalidRank(GraphSpectraError):
    pass


# transition matrices (graphs.EdgeMatrix)
class InvalidTransitionMatrix(GraphSpectraError):
    pass


# shift
class RequiresIrreducible(GraphSpectraError):
    pass


class NotAdmissible(GraphSpectraError):
    pass


class EnumerationBudgetExceeded(GraphSpectraError):
    pass


# triples
class TruncationTooSmall(GraphSpectraError):
    pass


class InvalidParameter(GraphSpectraError):
    pass


class SummabilityViolation(GraphSpectraError):
    pass


class InsufficientSpectrum(GraphSpectraError):
    pass


class RequiresEvenTriple(GraphSpectraError):
    pass


class NormNotConverged(GraphSpectraError):
    """Lanczos iteration for an operator norm did not converge; the
    witness is the operator's shape."""


# buildings
class PresentationInvalid(GraphSpectraError):
    pass


class RequiresSquares(GraphSpectraError):
    pass


class NotBMReducible(GraphSpectraError):
    pass


class InvalidPolygon(GraphSpectraError):
    pass


class DegenerateEuclidean(GraphSpectraError):
    pass


class BracketFailure(GraphSpectraError):
    pass


class InvalidTable(GraphSpectraError):
    pass


# io, cli options, environment
class InvalidInput(GraphSpectraError):
    """A file, option value or environment variable that does not parse:
    unreadable, not JSON, missing a field, or a non-numeric cell."""


# cli
class UsageError(GraphSpectraError):
    pass
