"""ATE estimators for the target population.

Four weighting strategies are compared: plain inverse propensity
weighting (ipw), inverse propensity weighting with a shift-calibration
tilt (ipw_et), per-arm entropy balancing on the H terms (ebal), and the
extended problem that additionally balances G terms across arms
(extended). Every estimator normalizes each arm's weights to sum to n_s
before taking the weighted outcome difference, so estimates are
invariant to outcome location shifts.

All four read one data set's basis design and aligned target, and both
IPW variants read one treatment logit. :data:`ESTIMATORS` runs the
methods on a shared per-data-set object that computes each of these
once; every public ``estimate_*`` builds its own such object.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .basis import BasisSpec, SourceSample, align_target_summary, evaluate_basis
from .errors import NonConvergenceError, SeparationError, ValidationError
from .mathutil import effective_sample_size, sigmoid
from .solver import (
    Method,
    SolverOptions,
    WeightSet,
    _normalize_per_arm,
    solve_ebal,
    solve_et_calibration,
    solve_extended,
)

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


def fit_logistic_irls(sample: SourceSample, columns=None, tol: float = 1e-8, max_iter: int = 100) -> LogisticModel:
    """Maximum-likelihood logistic regression of treatment on covariates.

    Newton (iteratively reweighted least squares) steps until the score
    sup-norm drops below ``tol``. Raises :class:`SeparationError` when the
    coefficients diverge, which signals (quasi-)separated data.
    """
    cols = list(range(sample.p)) if columns is None else list(columns)
    parts = [np.ones((sample.n_s, 1))]
    if cols:
        parts.append(sample.X[:, cols])
    Z = np.hstack(parts)
    A = sample.A.astype(float)
    beta = np.zeros(Z.shape[1])
    iterations = 0
    for iterations in range(max_iter):
        p = sigmoid(Z @ beta)
        score = Z.T @ (A - p)
        if float(np.abs(score).max()) <= tol:
            break
        wdiag = p * (1.0 - p)
        try:
            step = np.linalg.solve(Z.T @ (Z * wdiag[:, None]), score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "singular information matrix; data may be separated or degenerate"
            ) from None
        beta = beta + step
        if float(np.abs(beta).max()) > COEF_NORM_LIMIT:
            raise SeparationError(
                f"logistic coefficients diverged past {COEF_NORM_LIMIT:g}; "
                "treatment looks perfectly separated"
            )
    p = sigmoid(Z @ beta)
    score_norm = float(np.abs(Z.T @ (A - p)).max())
    return LogisticModel(
        coefficients=beta,
        propensities=p,
        iterations=iterations,
        converged=score_norm <= tol,
        score_norm=score_norm,
    )


@dataclasses.dataclass
class _SharedWork:
    """One data set's work that every estimator reads, done on first use.

    The basis design, the aligned target and the treatment logit are
    cached, so ipw, ipw_et, ebal and extended evaluate the basis once and
    fit the logit once per data set. A property that raises is not cached:
    each method that reads it raises again and fails on its own.
    """

    sample: SourceSample
    spec: BasisSpec | None = None
    target_raw: object = None
    n_t: int | None = None
    columns: object = None

    @functools.cached_property
    def design(self):
        return evaluate_basis(self.spec, self.sample)

    @functools.cached_property
    def target(self):
        return align_target_summary(self.spec, self.target_raw, self.design, n_t=self.n_t)

    @functools.cached_property
    def logit(self) -> LogisticModel:
        model = fit_logistic_irls(self.sample, self.columns)
        if not model.converged:
            raise NonConvergenceError(
                f"logistic fit did not converge (score sup-norm {model.score_norm:.3g})"
            )
        return model


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


def _propensity_weighted(shared, numerator, clip, method, solver_info) -> EstimateReport:
    """Report for weights numerator / p on the treated arm and
    numerator / (1 - p) on the control arm, p the fitted propensity."""
    model = shared.logit
    p = model.propensities
    if clip is not None:
        p = np.clip(p, clip[0], clip[1])
    s1, s0 = shared.sample.s1, shared.sample.s0
    w = np.empty(shared.sample.n_s)
    with np.errstate(divide="ignore", over="ignore"):
        w[s1] = numerator[s1] / p[s1]
        w[s0] = numerator[s0] / (1.0 - p[s0])
    if not np.isfinite(w).all():
        raise SeparationError(
            "infinite inverse propensity weight: a fitted propensity of 0 on a "
            "treated row or 1 on a control row; treatment looks separated"
        )
    report = estimate_weighted_ate(shared.sample, WeightSet(w, method, normalized=False))
    return dataclasses.replace(
        report, solver_info={"logit_score_norm": model.score_norm, **solver_info}
    )


def _ipw(shared: _SharedWork, options=None, clip=None) -> EstimateReport:
    return _propensity_weighted(shared, np.ones(shared.sample.n_s), clip, Method.IPW, {})


def _ipw_et(shared: _SharedWork, options=None, clip=None) -> EstimateReport:
    et_solution, q_set = solve_et_calibration(shared.design, shared.target, options)
    return _propensity_weighted(
        shared, q_set.w, clip, Method.IPW_ET,
        {"et_iterations": et_solution.iterations, "et_grad_norm": et_solution.grad_norm},
    )


def _balanced(solve, shared: _SharedWork, options) -> EstimateReport:
    solution, ws = solve(
        shared.design, shared.target, shared.sample.treated, options, normalize=True
    )
    report = estimate_weighted_ate(shared.sample, ws)
    return dataclasses.replace(
        report,
        solver_info={"iterations": solution.iterations, "grad_norm": solution.grad_norm},
    )


def estimate_ipw(sample: SourceSample, columns=None, clip=None) -> EstimateReport:
    """Inverse propensity weighting with a fitted logistic model.

    Regressors default to all raw covariates. Does not use any target
    information, so covariate shift is left unadjusted. ``clip`` optionally
    bounds the fitted propensities, e.g. (0.01, 0.99); off by default.
    """
    return _ipw(_SharedWork(sample, columns=columns), clip=clip)


def estimate_ipw_et(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    columns=None,
    options: SolverOptions | None = None,
    clip=None,
    n_t=None,
) -> EstimateReport:
    """Inverse propensity weights multiplied by a shift-calibration tilt.

    The tilt q is the whole-sample exponential tilting that matches the
    source H means to the target summary; weights are q / p on the
    treated arm and q / (1 - p) on the control arm.
    """
    return _ipw_et(_SharedWork(sample, spec, target_raw, n_t, columns), options, clip)


def estimate_ebal(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Per-arm entropy balancing of the H terms onto the target summary."""
    return _balanced(solve_ebal, _SharedWork(sample, spec, target_raw, n_t), options)


def estimate_extended(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Extended balancing: H per arm to the target, G equalized across arms."""
    return _balanced(solve_extended, _SharedWork(sample, spec, target_raw, n_t), options)


# Method name -> call (shared, options) on one data set's _SharedWork, so
# every method in a run reads the same design, target and logit fit. The
# bodies name solve_* and fit_logistic_irls when they run, so a rebound
# module attribute (a tracing wrapper, say) is what every caller reaches.
ESTIMATORS = {
    "ipw": _ipw,
    "ipw_et": _ipw_et,
    "ebal": lambda shared, options: _balanced(solve_ebal, shared, options),
    "extended": lambda shared, options: _balanced(solve_extended, shared, options),
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
