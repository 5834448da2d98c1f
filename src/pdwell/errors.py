"""Exception types and warning categories shared across the package."""

__all__ = [
    "ConfigurationError", "EvaluationError", "NumericError", "DegeneracyError",
    "PrecisionWarning",
]


class ConfigurationError(Exception):
    """Invalid grid or run configuration (bad N, cutoff violation, malformed file)."""


class EvaluationError(Exception):
    """A symbol evaluator returned a non-finite value."""


class NumericError(Exception):
    """A numerical routine failed to meet its contract (solver, quadrature)."""


class DegeneracyError(NumericError):
    """The cut-off states' coefficients on L_h's two lowest eigenvectors have
    a determinant of exactly 0 or nan; well localization broke down."""


class PrecisionWarning(UserWarning):
    """A computed gap or norm is near the double-precision residual floor."""
