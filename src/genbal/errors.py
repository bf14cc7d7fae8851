"""Exception types shared across the package."""


class GenbalError(Exception):
    """Base class for all package errors."""


class ValidationError(GenbalError):
    """Input violates a documented contract (bad file, bad shape, bad value).

    ``code`` is a short machine-readable tag such as ``MISSING_TERM`` or
    ``NON_BINARY_TREATMENT``.
    """

    def __init__(self, message: str, code: str = "VALIDATION"):
        super().__init__(message)
        self.code = code


class RankDeficiencyError(GenbalError):
    """A design or Gram matrix is numerically rank deficient."""


class NonConvergenceError(GenbalError):
    """A solver failed to reach the requested tolerance.

    Carries the last iterate (``solution``) and the balance residual vector
    (``residuals``) so callers can diagnose infeasibility or poor overlap.
    """

    def __init__(self, message, solution=None, residuals=None):
        super().__init__(message)
        self.solution = solution
        self.residuals = residuals


class SeparationError(GenbalError):
    """A logistic fit diverged, or fitted a propensity of exactly 0 on a
    treated row or 1 on a control row: (quasi-)separated data."""


class HypothesisViolationError(GenbalError):
    """The supplied truth lacks the structure an asymptotic formula requires."""
