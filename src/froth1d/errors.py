"""Exception types shared across the package, and the integer check that
the modules validating counts share."""

import math
import numbers


class Froth1dError(Exception):
    """Base class for all package errors."""


class SubcriticalError(Froth1dError):
    """beta * J0_hat <= 1: the local potential has no double well."""


class DomainError(Froth1dError):
    """Argument outside the admissible domain (e.g. |t| > 1, h <= 0)."""


class ValidationError(Froth1dError):
    """Invalid model/configuration data.

    ``pointer`` carries a JSON-pointer path when the error originates from a
    JSON document.
    """

    def __init__(self, message, pointer=None):
        self.pointer = pointer
        if pointer is not None:
            message = f"{pointer}: {message}"
        super().__init__(message)


def _check_count(value, name: str, limit: float = math.inf, low: int = 0):
    """Reject anything but an integer in [low, limit), a bool included."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and low <= value < limit):
        raise ValidationError(f"{name} must be an integer in [{low}, {limit})")


class AlignmentError(Froth1dError):
    """Interval endpoints do not lie on the sample grid."""


class DomainTooShort(Froth1dError):
    """The domain is too short to host a single partition block."""


class ParseError(Froth1dError):
    """Malformed profile file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantError(Froth1dError):
    """A structural invariant was violated (samples out of range, etc.)."""


class MissingBoundaryData(Froth1dError):
    """Custom boundary condition without sufficient phi_out support."""


class NonConvergence(Froth1dError):
    """Iteration failed to reach the requested tolerance."""


class FitError(Froth1dError):
    """Not enough resolvable data for a least-squares fit."""


class BracketError(Froth1dError):
    """A bracketed minimization hit the end of its bracket."""


class CertificateFailure(Froth1dError):
    """No admissible constants satisfy a certified inequality."""


class SignError(Froth1dError):
    """Profile changes sign where a constant sign is required."""


class CellTooShort(Froth1dError):
    """Requested cell length cannot host the instanton shape."""


class LineSearchFailure(Froth1dError):
    """Backtracking line search underflowed.

    Carries the last iterate so callers can still inspect it.
    """

    def __init__(self, message, result=None):
        self.result = result
        super().__init__(message)


class FlatSegmentNotFound(Froth1dError):
    """No qualifying flat segment inside a low-energy block."""


class ParameterError(Froth1dError):
    """Diagnostics exponents violate their ordering constraints."""
