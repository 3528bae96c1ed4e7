"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called outside its documented domain.

    The message names the violated precondition; the CLI maps this
    exception family to exit code 3.
    """


class MatrixFileError(ValueError):
    """A matrix file is missing, malformed, or inconsistent (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A computation did not reach its tolerance (CLI exit code 4).

    Raised when a solve misses its accuracy target or two criteria that
    must agree do not; the input is then numerically on a boundary the
    algorithm cannot resolve.
    """
