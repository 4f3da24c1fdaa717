"""Exception types shared across the package, and the checks that the
modules validating counts and JSON documents share."""

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
    JSON document, and ``message`` the text without it.
    """

    def __init__(self, message, pointer=None):
        self.message, self.pointer = message, pointer
        if pointer is not None:
            message = f"{pointer}: {message}"
        super().__init__(message)


def _check_count(value, name: str, limit: float = math.inf, low: int = 0):
    """Reject anything but an integer in [low, limit), a bool included."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and low <= value < limit):
        raise ValidationError(f"{name} must be an integer in [{low}, {limit})")


def _check_value(kind, value, pointer: str):
    """Reject a JSON value of the wrong type for ``kind``: ``str``, ``bool``,
    ``int`` or ``float`` (finite, so not JSON's NaN or Infinity, and not a
    bool; an int integral), a dict of keys to kinds (an object, every key
    optional, no other key), a tuple of keys (an object with just those keys,
    each a number) or a one-kind list (a nonempty array)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValidationError("expected an object", pointer=pointer or "/")
        for key, item in value.items():
            if key not in kind:
                raise ValidationError("unknown key", pointer=f"{pointer}/{key}")
            _check_value(kind[key], item, f"{pointer}/{key}")
    elif isinstance(kind, tuple):
        if not isinstance(value, dict) or set(value) != set(kind):
            raise ValidationError(f"expected {{{', '.join(kind)}}}",
                                  pointer=pointer)
        for key in kind:
            _check_value(float, value[key], f"{pointer}/{key}")
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValidationError("expected a nonempty array", pointer=pointer)
        for i, item in enumerate(value):
            _check_value(kind[0], item, f"{pointer}/{i}")
    elif kind is str or kind is bool:
        if not isinstance(value, kind):
            raise ValidationError("expected a string" if kind is str
                                  else "expected true or false",
                                  pointer=pointer)
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))
            or (kind is int and isinstance(value, float)
                and not value.is_integer())):
        raise ValidationError("expected an integer" if kind is int
                              else "expected a finite number", pointer=pointer)


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
