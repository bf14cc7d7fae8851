"""ATE estimators for the target population.

Four weighting strategies are compared: plain inverse propensity
weighting (ipw), inverse propensity weighting with a shift-calibration
tilt (ipw_et), per-arm entropy balancing on the H terms (ebal), and the
extended problem that additionally balances G terms across arms
(extended). Every estimator normalizes each arm's weights to sum to n_s
before taking the weighted outcome difference, so estimates are
invariant to outcome location shifts.

All four read one data set's basis design and aligned target, and both
IPW variants read one treatment logit. :data:`ESTIMATORS` runs each
method once over a batch of data sets that share a basis: a shared
object builds every member's design in one pass, every solve (the logit
fits included) runs the whole batch through the one Newton loop of
:mod:`genbal.solver`, and one pass over the members' weights reports
every member's estimate or error. Every ``estimate_*`` is a batch of one.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .basis import BasisSpec, SourceSample, _align_batch, _design_batch
from .errors import GenbalError, NonConvergenceError, SeparationError, ValidationError, _attempt, _one
from .solver import (CalibrationSolution, Method, SolverOptions, WeightSet, _et_weights, _joint_weights,
                     _JointDual, _normalize_arms, _raw_h, _solve_dual)

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_NAMES",
    "LogisticModel",
    "EstimateReport",
    "fit_logistic_irls",
    "estimate_weighted_ate",
    "estimate_ipw",
    "estimate_ipw_et",
    "estimate_ebal",
    "estimate_extended",
    "check_methods",
]

COEF_NORM_LIMIT = 1e3


@dataclasses.dataclass(frozen=True)
class LogisticModel:
    """Logistic fit of treatment: ``coefficients`` on the raw Z = [1 | X], ``iterations``
    damped Newton steps, ``score_norm`` the raw score sup-norm max |Z'(A - p)| (the stop
    reads it centred); an unconverged fit is only seen as a NonConvergenceError's ``solution``."""

    coefficients: np.ndarray
    propensities: np.ndarray
    iterations: int
    converged: bool
    score_norm: float


@dataclasses.dataclass(frozen=True)
class EstimateReport:
    """One estimator's point estimate plus weight and solver diagnostics."""

    method: str
    tau_hat: float
    weight_min: float
    weight_max: float
    ess_treated: float
    ess_control: float
    solver_info: dict


class _Logit:
    """Logistic fits for ``_solve_dual``: minimize sum log(1 + e^s) - A s,
    s = Z theta, over a zero-padded (R, m, d) stack Z, ``base`` 0 on pad
    rows; gradient Z'(p - A), Hessian Z' diag(p (1 - p)) Z. The tilt is
    (p, loss per row) from one exp of -|s|, which never overflows."""

    cap = np.inf

    def __init__(self, Z, A, base):
        self.E, self.A, self.base, (self.batch, _, self.dim) = Z, A, base, Z.shape

    def scores(self, theta):
        return np.matmul(self.E, theta[..., None])[..., 0]

    def tilt(self, theta):
        s = self.scores(theta)
        e = np.exp(-np.abs(s))
        pos = (s >= 0).astype(float)
        loss = ((pos - self.A) * s + np.log1p(e)) * self.base  # log(1 + e^s) - A s
        return (np.maximum(e, pos) / (1.0 + e), loss), np.full(self.batch, -np.inf)  # p as sigmoid() has it

    def value_at(self, theta, w, top):
        return w[1].sum(axis=1)

    def gradient(self, w):
        return np.matmul((w[0] - self.A)[:, None], self.E)[:, 0]

    def hessian(self, w):
        return np.matmul(self.E.swapaxes(1, 2), self.E * (w[0] * (1.0 - w[0]))[..., None])


def _fit_logistic(samples, columns=None, tol=1e-8, max_iter=100):
    """Logistic fits of samples sharing the regressor columns, per member a
    LogisticModel or its error, from one ``_solve_dual``. As in a basis design,
    each column of [1 | X] but the constant is scaled by a power of two, centred
    on the member's mean and scaled again. ``tol`` bounds the score in these
    coordinates; a coefficient past COEF_NORM_LIMIT is a SeparationError naming its column."""
    cols = list(range(samples[0].p)) if columns is None else list(columns)
    n = [sample.n_s for sample in samples]
    Z = np.zeros((len(n), len(cols) + 1, max(n))).swapaxes(1, 2)  # [1 | X] zero-padded, column-major
    A = np.zeros(Z.shape[:2])
    for z, a, sample in zip(Z, A, samples):
        z[:sample.n_s, 0], z[:sample.n_s, 1:], a[:sample.n_s] = 1.0, sample.X[:, cols], sample.A
    shift = 1 - np.maximum(np.frexp(np.maximum(Z.max(axis=1), -Z.min(axis=1)))[1], -1021)
    Z *= np.ldexp(1.0, shift)[:, None, :]
    real = np.arange(Z.shape[1]) < np.array(n)[:, None]  # a member is centred on its own rows, summed as alone
    center = np.array([z[:k].sum(axis=0) / k for z, k in zip(Z, n)]) * (np.arange(Z.shape[2]) > 0)
    np.subtract(Z, center[:, None], out=Z, where=real[..., None])
    spread = 1 - np.maximum(np.frexp(np.maximum(Z.max(axis=1), -Z.min(axis=1)))[1], -1021)
    Z *= np.ldexp(1.0, spread)[:, None, :]
    problem = _Logit(Z, A, real)
    outcomes, w = _solve_dual(problem, "logit [1 | X]", SolverOptions(tol, max_iter, np.inf), CalibrationSolution)
    fits = [getattr(out, "solution", out) for out in outcomes]  # no fit in a RankDeficiencyError
    if not all(getattr(fit, "converged", True) for fit in fits):  # a stalled fit's tilt is of a rejected step
        w, _ = problem.tilt(np.array([getattr(fit, "beta", np.zeros(problem.dim)) for fit in fits]))
    g = problem.gradient(w)  # raw score: a centred column's entry gives back its centre times the constant's
    score = np.abs(np.ldexp(np.ldexp(g, -spread) + center * g[:, :1], -shift)).max(axis=1).tolist()
    for r, (out, fit) in enumerate(zip(outcomes, fits)):
        if isinstance(fit, CalibrationSolution):
            model = LogisticModel(np.ldexp(_raw_h(fit.beta, center[r], np.ldexp(1.0, -spread[r])), shift[r]),
                                  w[0][r, :n[r]], fit.iterations, fit.converged, score[r])
            name = ["intercept", *(f"x{c + 1}" for c in cols)][j := np.abs(fit.beta).argmax()]
            outcomes[r] = (SeparationError(f"logistic coefficient of {name} diverged past {COEF_NORM_LIMIT:g}; "
                                           "treatment looks perfectly separated") if abs(fit.beta[j]) > COEF_NORM_LIMIT
                           else model if fit is out else NonConvergenceError(str(out), model, out.residuals))
    return outcomes


def fit_logistic_irls(sample: SourceSample, columns=None, tol: float = 1e-8, max_iter: int = 100) -> LogisticModel:
    """Maximum-likelihood logistic regression of treatment on covariates by damped
    Newton steps (here IRLS), as :func:`_fit_logistic` runs them; raises its
    RankDeficiencyError, NonConvergenceError or SeparationError."""
    return _one(_fit_logistic([sample], columns, tol, max_iter)[0])


@dataclasses.dataclass
class _SharedWork:
    """The work every estimator reads, for a batch of data sets that share
    the basis spec and the logit columns, done on first use.

    Each member's basis design, aligned target and treatment logit is
    cached as the result or the GenbalError that stopped it, so ipw,
    ipw_et, ebal and extended build the designs in one pass and fit the
    logits in one batched pass; a method reading a failed entry fails on
    that member only.
    """

    samples: list
    spec: BasisSpec | None = None
    targets_raw: list | None = None
    n_ts: list | None = None
    columns: object = None
    joint: object = dataclasses.field(default=None, init=False)  # the extended dual ebal and extended share

    @functools.cached_property
    def designs(self):
        return _design_batch(self.spec, self.samples)

    @functools.cached_property
    def targets(self):
        return _align_batch(self.spec, self.targets_raw, self.designs, self.n_ts or [None] * len(self.samples))

    @functools.cached_property
    def logits(self):
        return _fit_logistic(self.samples, self.columns)

    @functools.cached_property
    def flat(self):
        """Every member's row count, and its treated mask and outcomes, back to back."""
        return (np.array([s.n_s for s in self.samples]), np.concatenate([s.A for s in self.samples]) == 1,
                np.concatenate([s.Y for s in self.samples]))

    def solved(self, solve):
        """Each member's outcome or first error, and all weights back to back
        (1 where no solve ran), from ``solve(designs, targets, treateds)``
        over the members whose target, and so design, was built."""
        outcomes, ok = list(self.targets), [not isinstance(t, GenbalError) for t in self.targets]
        w = np.ones(self.flat[1].shape[0])
        if any(ok):
            members = np.flatnonzero(ok).tolist()
            solved, w[np.repeat(ok, self.flat[0])] = solve(*([col[i] for i in members] for col in (
                self.designs, outcomes, [s.treated for s in self.samples])))
            for i, out in zip(members, solved):
                outcomes[i] = out
        return outcomes, w


def _reports(shared, method, w, infos) -> list:
    """Each member's EstimateReport, or the error that stops it, from the
    members' weights ``w`` back to back in source order: each arm is
    normalized once to sum to n_s, then every member's tau-hat, weight
    range and per-arm effective sample sizes are taken at once. A member
    keeps an error in ``infos`` (else its solver_info); one with a weight
    that is not positive and finite gets a ValidationError."""
    n, treated, Y = shared.flat
    at = np.cumsum(n) - n
    valid = np.logical_and.reduceat(np.isfinite(w) & (w > 0), at)
    # a member that failed may carry weights that overflow or make NaN here; its report is dropped
    with np.errstate(all="ignore"):
        wn = _normalize_arms(w, treated, n)
        v = np.stack([wn * Y, wn, wn * wn])
        v1 = v * treated
        (y1, s1, q1), (y0, s0, q0) = np.add.reduceat(v1, at, axis=1), np.add.reduceat(v - v1, at, axis=1)
        stats = zip(((y1 - y0) / n).tolist(), np.minimum.reduceat(wn, at).tolist(),
                    np.maximum.reduceat(wn, at).tolist(), (s1 ** 2 / q1).tolist(), (s0 ** 2 / q0).tolist())
    return [info if isinstance(info, GenbalError) else EstimateReport(method.value, *stat, info) if ok
            else ValidationError("weights must be strictly positive and finite")
            for info, ok, stat in zip(infos, valid, stats)]


def estimate_weighted_ate(sample: SourceSample, weights: WeightSet) -> EstimateReport:
    """Weighted outcome difference after per-arm normalization to n_s."""
    if weights.w.shape[0] != sample.n_s:
        raise ValidationError("weights misaligned with the sample")
    return _one(_reports(_SharedWork([sample]), weights.method, weights.w, [{}])[0])


def _propensity_reports(shared, method, q, infos) -> list:
    """Reports for the weights q / p on the treated arm and q / (1 - p) on
    the control arm, p the fitted propensity. A member keeps the first
    error in ``infos``, then its logit's; an infinite weight is a
    SeparationError."""
    n, treated, _ = shared.flat
    p = np.concatenate([m.propensities if isinstance(m, LogisticModel) else np.full(k, 0.5)
                        for m, k in zip(shared.logits, n.tolist())])
    with np.errstate(divide="ignore", over="ignore"):
        w = q / np.where(treated, p, 1.0 - p)

    def info(solver_info, model, finite):
        if not finite:
            raise SeparationError("infinite inverse propensity weight: a fitted propensity of 0 on a "
                                  "treated row or 1 on a control row; treatment looks separated")
        return {"logit_score_norm": model.score_norm, **solver_info}

    finite = np.logical_and.reduceat(np.isfinite(w), np.cumsum(n) - n)
    return _reports(shared, method, w, list(map(_attempt, [info] * len(infos), infos, shared.logits, finite)))


def _ipw(shared: _SharedWork, options=None) -> list:
    return _propensity_reports(shared, Method.IPW, 1.0, [{}] * len(shared.samples))


def _ipw_et(shared: _SharedWork, options=None) -> list:
    solved, q = shared.solved(lambda designs, targets, _: _et_weights(designs, targets, options))
    infos = [_attempt(lambda s: {"et_iterations": s.iterations, "et_grad_norm": s.grad_norm}, s) for s in solved]
    return _propensity_reports(shared, Method.IPW_ET, q, infos)


def _balanced(method, shared: _SharedWork, options) -> list:
    def solve(designs, targets, treateds):  # every call gets the same members
        shared.joint = shared.joint or _JointDual(designs, targets, treateds, np.inf)
        return _joint_weights(method, designs, targets, treateds, options, shared.joint)

    solved, w = shared.solved(solve)
    infos = [_attempt(lambda s: {"iterations": s.iterations, "grad_norm": s.grad_norm}, s) for s in solved]
    return _reports(shared, method, w, infos)


def estimate_ipw(sample: SourceSample, columns=None) -> EstimateReport:
    """Inverse propensity weighting with a fitted logistic model.

    Regressors default to all raw covariates. Does not use any target
    information, so covariate shift is left unadjusted.
    """
    return _one(_ipw(_SharedWork([sample], columns=columns))[0])


def estimate_ipw_et(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    columns=None,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Inverse propensity weights multiplied by a shift-calibration tilt.

    The tilt q is the whole-sample exponential tilting that matches the
    source H means to the target summary; weights are q / p on the
    treated arm and q / (1 - p) on the control arm.
    """
    return _one(_ipw_et(_SharedWork([sample], spec, [target_raw], [n_t], columns), options)[0])


def estimate_ebal(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Per-arm entropy balancing of the H terms onto the target summary."""
    return _one(_balanced(Method.EBAL, _SharedWork([sample], spec, [target_raw], [n_t]), options)[0])


def estimate_extended(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Extended balancing: H per arm to the target, G equalized across arms."""
    shared = _SharedWork([sample], spec, [target_raw], [n_t])
    return _one(_balanced(Method.EXTENDED, shared, options)[0])


# Method name -> call (shared, options) on a batch's _SharedWork, returning
# one EstimateReport or GenbalError per member, so every method in a run
# reads the same designs, targets and logit fits and solves the whole batch
# at once. The public estimate_* are each a batch of one.
ESTIMATORS = {
    "ipw": _ipw,
    "ipw_et": _ipw_et,
    "ebal": functools.partial(_balanced, Method.EBAL),
    "extended": functools.partial(_balanced, Method.EXTENDED),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def check_methods(methods) -> tuple[str, ...]:
    """The method names as a tuple; rejects an empty list or unknown names."""
    methods = tuple(methods)
    if not methods:
        raise ValidationError("method list must be non-empty")
    unknown = [m for m in methods if m not in ESTIMATORS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}; known: {ESTIMATOR_NAMES}")
    return methods
