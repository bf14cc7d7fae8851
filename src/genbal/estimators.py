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
object computes each member's design, target and logit once, every
solve and logistic fit runs the whole batch together, and each member
gets its own report or error. Every public ``estimate_*`` is a batch of
one.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .basis import BasisSpec, SourceSample, align_target_summary, evaluate_basis
from .errors import NonConvergenceError, SeparationError, ValidationError, _attempt, _on_valid, _one
from .mathutil import effective_sample_size, sigmoid, solve_each, stack_padded
from .solver import Method, SolverOptions, WeightSet, _et_calibration, _normalize_per_arm, _solve_joint

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
    ipw_et, ebal and extended evaluate each basis once and fit the logits
    in one batched pass; a method reading a failed entry fails on that
    member only.
    """

    samples: list
    spec: BasisSpec | None = None
    targets_raw: list | None = None
    n_ts: list | None = None
    columns: object = None

    @functools.cached_property
    def designs(self):
        return [_attempt(evaluate_basis, self.spec, sample) for sample in self.samples]

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


def estimate_weighted_ate(sample: SourceSample, weights: WeightSet) -> EstimateReport:
    """Weighted outcome difference after per-arm normalization to n_s."""
    if weights.w.shape[0] != sample.n_s:
        raise ValidationError("weights misaligned with the sample")
    s1, s0 = sample.s1, sample.s0
    wn = _normalize_per_arm(weights.w, (s1, s0), sample.n_s)
    w1, w0 = wn[s1], wn[s0]
    return EstimateReport(
        method=weights.method.value,
        tau_hat=float((w1 @ sample.Y[s1] - w0 @ sample.Y[s0]) / sample.n_s),
        weight_min=float(wn.min()),
        weight_max=float(wn.max()),
        ess_treated=effective_sample_size(w1),
        ess_control=effective_sample_size(w0),
        solver_info={},
    )


def _propensity_weighted(sample, model, numerator, method, solver_info) -> EstimateReport:
    """Report for weights numerator / p on the treated arm and
    numerator / (1 - p) on the control arm, p the fitted propensity."""
    p = model.propensities
    s1, s0 = sample.s1, sample.s0
    w = np.empty(sample.n_s)
    with np.errstate(divide="ignore", over="ignore"):
        w[s1] = numerator[s1] / p[s1]
        w[s0] = numerator[s0] / (1.0 - p[s0])
    if not np.isfinite(w).all():
        raise SeparationError(
            "infinite inverse propensity weight: a fitted propensity of 0 on a "
            "treated row or 1 on a control row; treatment looks separated"
        )
    report = estimate_weighted_ate(sample, WeightSet(w, method, normalized=False))
    return dataclasses.replace(
        report, solver_info={"logit_score_norm": model.score_norm, **solver_info}
    )


def _ipw(shared: _SharedWork, options=None) -> list:
    return [_attempt(_propensity_weighted, sample, model, np.ones(sample.n_s), Method.IPW, {})
            for sample, model in zip(shared.samples, shared.logits)]


def _ipw_et_report(sample, et, model) -> EstimateReport:
    solution, q_set = et
    return _propensity_weighted(
        sample, model, q_set.w, Method.IPW_ET,
        {"et_iterations": solution.iterations, "et_grad_norm": solution.grad_norm},
    )


def _ipw_et(shared: _SharedWork, options=None) -> list:
    solved = _on_valid(functools.partial(_et_calibration, options=options), shared.designs,
                       shared.targets)
    return list(map(_attempt, [_ipw_et_report] * len(solved), shared.samples, solved, shared.logits))


def _balanced_report(sample, solved) -> EstimateReport:
    solution, ws = solved
    return dataclasses.replace(
        estimate_weighted_ate(sample, ws),
        solver_info={"iterations": solution.iterations, "grad_norm": solution.grad_norm},
    )


def _balanced(method, shared: _SharedWork, options) -> list:
    solved = _on_valid(functools.partial(_solve_joint, method, options=options, normalize=True),
                       shared.designs, shared.targets, [sample.treated for sample in shared.samples])
    return list(map(_attempt, [_balanced_report] * len(solved), shared.samples, solved))


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
