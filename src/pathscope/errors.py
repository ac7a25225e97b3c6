"""Exception hierarchy shared across the package, and its integer check.

The CLI maps these onto exit codes: input/format/argument problems give
exit code 2, numerical failures give exit code 3.
"""

import numpy as np


class PathscopeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PathscopeError):
    """Tensor shapes do not compose for the requested operation."""


class SpecError(PathscopeError):
    """A model architecture description does not compose."""


class FormatError(PathscopeError):
    """A file (IDX dataset or model container) is malformed."""


class ArgumentError(PathscopeError):
    """An argument value violates an operation's contract."""


class SizeError(PathscopeError):
    """A brute-force enumeration would exceed its safety guard."""


class NumericalError(PathscopeError):
    """A numerical failure (non-finite loss or logits) occurred."""


class UndefinedCorrelationError(PathscopeError):
    """Rank correlation is undefined (a vector is entirely tied)."""


def require_int(value, what: str, error: type[PathscopeError]) -> None:
    """Sizes are counted in whole pixels, units and samples: a float or a bool
    raises `error` here, not a bare TypeError or a fractional shape later.
    numpy integers are integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
