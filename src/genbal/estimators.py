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
object builds every member's design in one pass and fits every logit at
once, every solve runs the whole batch together, and one pass over the
members' weights, back to back, reports every member's estimate or
error. Every public ``estimate_*`` is a batch of one.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .basis import BasisSpec, SourceSample, _design_batch, align_target_summary
from .errors import GenbalError, NonConvergenceError, SeparationError, ValidationError, _attempt, _one
from .mathutil import sigmoid, solve_each, stack_padded
from .solver import Method, SolverOptions, WeightSet, _et_weights, _joint_weights, _normalize_arms

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
    """Logistic regression fit for the treatment indicator."""

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


def _fit_logistic(samples, columns=None, tol=1e-8, max_iter=100):
    """Logistic fits of samples sharing the regressor columns: per member a
    LogisticModel or its SeparationError. Zero pad rows add nothing to the
    score or information; a member is frozen once it converges or fails.

    A member whose regressors [1 | X] are numerically rank deficient (a
    Gram eigenvalue at or below ``n * dim * eps * max``, the rounding of its
    sums) has a singular information matrix at every step, so where its fit
    ends rests on rounding, which batch padding changes: it is fit alone.
    """
    cols = list(range(samples[0].p)) if columns is None else list(columns)
    Zs = [np.empty((len(cols) + 1, sample.n_s)).T for sample in samples]  # [1 | X] column-major
    for z, sample in zip(Zs, samples):
        z[:, 0], z[:, 1:] = 1.0, sample.X[:, cols]
    Z = stack_padded(Zs)
    Zt = Z.swapaxes(1, 2)
    if len(samples) > 1:
        eig = np.linalg.eigvalsh(np.matmul(Zt, Z))
        alone = eig[:, 0] <= Z.shape[1] * Z.shape[2] * np.finfo(float).eps * eig[:, -1]
        if alone.any():
            rest = [s for s, a in zip(samples, alone) if not a]
            rest = iter(_fit_logistic(rest, columns, tol, max_iter) if rest else ())
            return [_fit_logistic([s], columns, tol, max_iter)[0] if a else next(rest)
                    for s, a in zip(samples, alone)]
    A = stack_padded([sample.A.astype(float) for sample in samples])
    beta = np.zeros((Z.shape[0], Z.shape[2]))
    failed = [None] * len(samples)
    active = np.ones(len(samples), dtype=bool)
    steps = np.zeros(len(samples), dtype=int)
    identity = np.eye(Z.shape[2])
    for it in range(max_iter + 1):
        p = sigmoid(np.matmul(Z, beta[..., None])[..., 0])
        score = np.matmul(Zt, (A - p)[..., None])[..., 0]
        score_norm = np.abs(score).max(axis=1)
        active &= score_norm > tol
        if it == max_iter or not np.count_nonzero(active):
            break
        info = np.matmul(Zt, Z * (p * (1.0 - p))[..., None])
        # frozen members solve an identity system for a zero step
        info = np.where(active[:, None, None], info, identity)
        step, singular = solve_each(info, np.where(active[:, None], score, 0.0))
        for r in singular:
            failed[r] = SeparationError("singular information matrix; data may be separated or degenerate")
            active[r], step[r] = False, 0.0
        beta += step
        steps += active
        for r in np.flatnonzero(active & (np.abs(beta).max(axis=1) > COEF_NORM_LIMIT)):
            failed[r] = SeparationError(f"logistic coefficients diverged past {COEF_NORM_LIMIT:g}; "
                                        "treatment looks perfectly separated")
            active[r] = False
    # a member that took every step reports max_iter - 1
    iterations = np.where(steps == max_iter, max(max_iter - 1, 0), steps)
    return [err if err is not None else LogisticModel(
        beta[r], p[r, :sample.n_s], int(iterations[r]), bool(score_norm[r] <= tol),
        float(score_norm[r]),
    ) for r, (sample, err) in enumerate(zip(samples, failed))]


def fit_logistic_irls(sample: SourceSample, columns=None, tol: float = 1e-8, max_iter: int = 100) -> LogisticModel:
    """Maximum-likelihood logistic regression of treatment on covariates.

    Newton (iteratively reweighted least squares) steps until the score
    sup-norm drops below ``tol``. Raises :class:`SeparationError` when the
    coefficients diverge, which signals (quasi-)separated data.
    """
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

    @functools.cached_property
    def designs(self):
        return _design_batch(self.spec, self.samples)

    @functools.cached_property
    def targets(self):
        align = lambda design, raw, n_t: align_target_summary(self.spec, raw, design, n_t=n_t)  # noqa: E731
        return list(map(_attempt, [align] * len(self.samples), self.designs, self.targets_raw,
                        self.n_ts or [None] * len(self.samples)))

    @functools.cached_property
    def logits(self):
        return [m if isinstance(m, SeparationError) or m.converged else NonConvergenceError(
            f"logistic fit did not converge (score sup-norm {m.score_norm:.3g})"
        ) for m in _fit_logistic(self.samples, self.columns)]

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
    solved, w = shared.solved(functools.partial(_joint_weights, method, options=options))
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
