"""Exception hierarchy shared across the package, and the checkers' guard
on a tolerance argument.

The CLI maps these onto exit codes: any :class:`BipotError` is an
operational/input problem (exit 2), as opposed to a mathematical check
failing (exit 1), which is reported through ``CheckReport``, never raised.
"""


class BipotError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BipotError):
    """An argument violates a documented precondition."""


class ResolutionError(BipotError):
    """A length scale cannot be resolved on the given grid."""


class FormatError(BipotError):
    """A file does not match the documented CSV layout.

    Carries the 1-based line number of the first offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_tol(tol) -> None:
    """Refuse a NaN or negative tolerance; None (a default) passes."""
    if tol is not None and not tol >= 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol}")
