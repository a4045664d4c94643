"""Exception hierarchy shared across the package, and the CLI's exit codes.

Each class carries the exit code the CLI ends with when it is raised, after
one line ``mkmc: error: <message>`` on stderr. Besides these, the CLI exits 0
on success (a run that stops at ``max_iters`` included), and 2 on an OSError
from file IO or on one of click's usage errors.
"""


class MkmcError(Exception):
    """Base class for all package errors; exit code 2 unless a subclass sets its own."""

    exit_code = 2


class ConfigError(MkmcError, ValueError):
    """A run setting is invalid, whether a flag, a run-config value or an argument."""


class FormatError(MkmcError, ValueError):
    """A file (matrix, mask, trace or run config) could not be parsed as its format."""


class DimensionError(MkmcError, ValueError):
    """Shapes, index sets, block sizes or the rank do not fit the data."""

    exit_code = 3


class NotPositiveDefiniteError(MkmcError, ValueError):
    """A matrix required to be positive definite is not, or an input is not symmetric."""

    exit_code = 4


class NumericalError(MkmcError, ArithmeticError):
    """A numerical routine failed during completion (singular system, non-convergence)."""

    exit_code = 5
