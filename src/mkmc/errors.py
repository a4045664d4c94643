"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: format/IO problems -> 2,
dimension/shape mismatches -> 3, positive-definiteness failures -> 4,
numerical failures -> 5.
"""


class MkmcError(Exception):
    """Base class for all package errors."""


class DimensionError(MkmcError, ValueError):
    """Shapes, index sets, or block sizes are inconsistent."""


class NotPositiveDefiniteError(MkmcError, ValueError):
    """A matrix required to be positive definite is not."""


class NumericalError(MkmcError, ArithmeticError):
    """A numerical routine failed (singular system, non-convergence)."""


class FormatError(MkmcError, ValueError):
    """A file could not be parsed as the expected format."""
