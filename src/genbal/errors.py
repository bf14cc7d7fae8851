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


class WeightUnderflowError(NonConvergenceError):
    """A dual solve converged, but some weights underflowed to exactly 0."""


class SeparationError(GenbalError):
    """A logistic fit diverged, or fitted a propensity of exactly 0 on a
    treated row or 1 on a control row: (quasi-)separated data."""


class HypothesisViolationError(GenbalError):
    """The supplied truth lacks the structure an asymptotic formula requires."""


def _attempt(fn, *args):
    """A batch member's outcome: fn(*args), or the GenbalError it raises; an
    argument that is already an error is returned instead, so a member
    keeps its first failure."""
    for arg in args:
        if isinstance(arg, GenbalError):
            return arg
    try:
        return fn(*args)
    except GenbalError as exc:
        return exc


def _one(outcome):
    """The result of a batch of one; raises its error."""
    if isinstance(outcome, GenbalError):
        raise outcome
    return outcome
