"""Error types raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that library users (and the CLI exit-code mapping) can dispatch on type
instead of parsing messages.
"""


class AerowrenchError(Exception):
    """Base class for all package-specific errors. ``run`` is the index of
    the failing run of a filter stepping a stack of runs, else None."""

    run = None


class NotRotation(AerowrenchError):
    """Matrix is not orthogonal with determinant +1 within tolerance."""


class DegenerateSpectrum(AerowrenchError):
    """Weighted quaternion average has no isolated dominant eigenvector."""


class DegenerateScaling(AerowrenchError):
    """Sigma-point scaling parameters give a non-positive spread n + eta."""


class FactorizationFailure(AerowrenchError):
    """Covariance square root could not be computed."""


class SingularAllocation(AerowrenchError):
    """Control allocation Gram matrix is numerically singular."""


class SingularInnovation(AerowrenchError):
    """Innovation covariance is numerically singular."""


class DivergenceDetected(AerowrenchError):
    """An estimator state left the sanity envelope during simulation."""


class ParseError(AerowrenchError):
    """Configuration file could not be parsed."""


class ValidationError(AerowrenchError):
    """Configuration parsed but violates one or more invariants."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
