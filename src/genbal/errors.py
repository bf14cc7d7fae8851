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


def _on_valid(batch_fn, *columns):
    """batch_fn over the members with no error in any column, in order;
    every other member keeps its first error."""
    out = [next((x for x in m if isinstance(x, GenbalError)), None) for m in zip(*columns)]
    ok = [i for i, err in enumerate(out) if err is None]
    for i, result in zip(ok, batch_fn(*([col[i] for i in ok] for col in columns)) if ok else ()):
        out[i] = result
    return out


def _one(outcome):
    """The result of a batch of one; raises its error."""
    if isinstance(outcome, GenbalError):
        raise outcome
    return outcome
