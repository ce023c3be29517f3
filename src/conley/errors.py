"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: user-facing input problems
(ValidationError, I/O) exit 2, violated internal invariants exit 3.
"""


def _shown(x):
    """An error message's view of a value: an int past 64 bits by its bit
    length (str() refuses huge ints), anything else by its repr."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"<integer of {x.bit_length()} bits>"
    return repr(x)


class ConleyError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ConleyError):
    """Matrix dimensions do not fit the requested operation."""


class DomainError(ConleyError):
    """Value outside the domain of an operation (non-integer entries,
    division by zero, inverting zero, and the like)."""


class ValidationError(ConleyError):
    """Malformed user input.  ``location`` is a JSON-pointer-style path
    into the offending document when one is known."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class ResourceError(ConleyError):
    """A configured enumeration cap was exceeded."""


class InvariantError(ConleyError):
    """An internal invariant failed to hold; indicates a bug or a
    cross-check disagreement, never bad user input."""
