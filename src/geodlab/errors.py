"""Exception hierarchy shared across the library."""


class GeodlabError(Exception):
    """Base class for all library errors."""


class NumericDegeneracyError(GeodlabError):
    """A formula hit a numerically degenerate configuration."""


class BadSurfaceError(GeodlabError):
    """Surface config fails its invariants (relator does not close, etc.)."""


class PartialEnumerationError(GeodlabError):
    """Element budget exceeded; carries the largest radius fully enumerated."""

    def __init__(self, message, completed_radius):
        super().__init__(message)
        self.completed_radius = completed_radius


class CanonicalizationError(GeodlabError):
    """Cyclic-word reduction failed to terminate within its rewrite budget."""


class SpectrumInconsistencyError(GeodlabError):
    """Word-based and axis-based conjugacy pipelines disagree."""


class OutOfRangeError(GeodlabError):
    """Query beyond the cutoff of a built table."""


class DegenerateMeasureError(GeodlabError):
    """Boundary measure would be empty or massless."""


class ReductionFailureError(GeodlabError):
    """Fundamental-domain reduction exceeded its iteration budget."""


class InvalidConfigurationError(GeodlabError):
    """Inputs violate the geometric preconditions of a check (not a test failure)."""


class IntegrationError(GeodlabError):
    """Numerical ODE integration failed (step size, Riccati blow-up)."""


class ConfigError(GeodlabError):
    """Bad run configuration (CLI / config file)."""
