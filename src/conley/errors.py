"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: user-facing input problems
(ValidationError, I/O) exit 2, violated internal invariants exit 3.
"""


def _shown(x):
    """An error message's view of a value: an int past 64 bits by its bit
    length (str() refuses huge ints), a string past 64 characters by its
    length and first 32 characters, anything else by its repr."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"<integer of {x.bit_length()} bits>"
    if isinstance(x, str) and len(x) > 64:
        return f"<string of {len(x)} characters starting {x[:32]!r}>"
    return repr(x)


def _decimal(n):
    """str(n) for an int of any length, written in pieces of fewer than 600
    digits, so no piece crosses the interpreter's int-string digit limit
    (640 at the lowest)."""
    if n.bit_length() < 1990:           # |n| < 2**1989 < 10**599
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20        # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


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
        self._message = message         # unlocated, for relocating
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class ResourceError(ConleyError):
    """A configured enumeration cap was exceeded."""


class InvariantError(ConleyError):
    """An internal invariant failed to hold; indicates a bug or a
    cross-check disagreement, never bad user input."""
