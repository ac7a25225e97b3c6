"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input/format/argument problems give
exit code 2, numerical failures give exit code 3.
"""


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
