"""Exception types shared across the package, and parse_count, the one rule
for an integer read from outside the program."""


class QsymError(Exception):
    """Base class for every error raised by this package."""


class VariableCountMismatch(QsymError):
    """Two ring elements with different variable counts were combined."""


class ExponentOverflow(QsymError):
    """An exponent reached 2^15 in absolute value, the width of a packed monomial field."""


class NotContained(QsymError):
    """The inner shape is not contained in the outer one."""


class MatrixError(QsymError):
    """Matrix input violates a shape requirement (non-square, odd size, ragged triangle)."""


class PreconditionError(QsymError):
    """An operation was called outside its domain (e.g. too many rows for the variable count)."""


class TermBudgetExceeded(QsymError):
    """A computation produced more terms than QSYM_MAX_TERMS allows."""


class ParseError(QsymError):
    """Malformed textual input (polynomial or partition)."""


def parse_count(text: str, what: str) -> int:
    """The nonnegative integer that text spells in ASCII digits, with spaces
    around it allowed; ParseError naming `what` otherwise.  Python's int()
    would also take a sign, underscores and non-ASCII digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} must be a nonnegative integer, got {text!r}")
    return int(digits)
