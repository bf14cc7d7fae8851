"""ATE estimators for the target population.

Four weighting strategies are compared: plain inverse propensity
weighting (ipw), inverse propensity weighting with a shift-calibration
tilt (ipw_et), per-arm entropy balancing on the H terms (ebal), and the
extended problem that additionally balances G terms across arms
(extended). Every estimator normalizes each arm's weights to sum to n_s
before taking the weighted outcome difference, so estimates are
invariant to outcome location shifts.
"""

from __future__ import annotations

import dataclasses

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


def _ate_from_weights(sample: SourceSample, weights: WeightSet):
    w = weights.w
    if w.shape[0] != sample.n_s:
        raise ValidationError("weights misaligned with the sample")
    t = sample.treated
    wn = _normalize_per_arm(w, t, sample.n_s)
    tau = float((wn[t] @ sample.Y[t] - wn[~t] @ sample.Y[~t]) / sample.n_s)
    return tau, wn


def estimate_weighted_ate(sample: SourceSample, weights: WeightSet) -> EstimateReport:
    """Weighted outcome difference after per-arm normalization to n_s."""
    tau, wn = _ate_from_weights(sample, weights)
    t = sample.treated
    return EstimateReport(
        method=weights.method.value,
        tau_hat=tau,
        weight_min=float(wn.min()),
        weight_max=float(wn.max()),
        ess_treated=effective_sample_size(wn[t]),
        ess_control=effective_sample_size(wn[~t]),
        solver_info={},
    )


def _inverse_propensity_weights(sample: SourceSample, columns, clip, numerator):
    """Fit the treatment logit; weights numerator / p on the treated arm
    and numerator / (1 - p) on the control arm."""
    model = fit_logistic_irls(sample, columns)
    if not model.converged:
        raise NonConvergenceError(
            f"logistic fit did not converge (score sup-norm {model.score_norm:.3g})"
        )
    p = model.propensities
    if clip is not None:
        p = np.clip(p, clip[0], clip[1])
    return model, np.where(sample.treated, numerator / p, numerator / (1.0 - p))


def estimate_ipw(sample: SourceSample, columns=None, clip=None) -> EstimateReport:
    """Inverse propensity weighting with a fitted logistic model.

    Regressors default to all raw covariates. Does not use any target
    information, so covariate shift is left unadjusted. ``clip`` optionally
    bounds the fitted propensities, e.g. (0.01, 0.99); off by default.
    """
    model, w = _inverse_propensity_weights(sample, columns, clip, 1.0)
    report = estimate_weighted_ate(sample, WeightSet(w, Method.IPW, normalized=False))
    return dataclasses.replace(
        report, solver_info={"logit_score_norm": model.score_norm}
    )


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
    design = evaluate_basis(spec, sample)
    target = align_target_summary(spec, target_raw, design, n_t=n_t)
    et_solution, q_set = solve_et_calibration(design, target, options)
    model, w = _inverse_propensity_weights(sample, columns, clip, q_set.w)
    report = estimate_weighted_ate(sample, WeightSet(w, Method.IPW_ET, normalized=False))
    return dataclasses.replace(
        report,
        solver_info={
            "logit_score_norm": model.score_norm,
            "et_iterations": et_solution.iterations,
            "et_grad_norm": et_solution.grad_norm,
        },
    )


def _estimate_balanced(solve, sample, spec, target_raw, options, n_t) -> EstimateReport:
    design = evaluate_basis(spec, sample)
    target = align_target_summary(spec, target_raw, design, n_t=n_t)
    solution, ws = solve(design, target, sample.treated, options, normalize=True)
    report = estimate_weighted_ate(sample, ws)
    return dataclasses.replace(
        report,
        solver_info={"iterations": solution.iterations, "grad_norm": solution.grad_norm},
    )


def estimate_ebal(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Per-arm entropy balancing of the H terms onto the target summary."""
    return _estimate_balanced(solve_ebal, sample, spec, target_raw, options, n_t)


def estimate_extended(
    sample: SourceSample,
    spec: BasisSpec,
    target_raw,
    options: SolverOptions | None = None,
    n_t=None,
) -> EstimateReport:
    """Extended balancing: H per arm to the target, G equalized across arms."""
    return _estimate_balanced(solve_extended, sample, spec, target_raw, options, n_t)


# Method name -> call (sample, spec, target_raw, options, n_t). The calls
# name each estimate_* function when they run, so a rebound module
# attribute (a tracing wrapper, say) is what every caller reaches.
ESTIMATORS = {
    "ipw": lambda sample, spec, raw, options, n_t: estimate_ipw(sample),
    "ipw_et": lambda sample, spec, raw, options, n_t: estimate_ipw_et(
        sample, spec, raw, options=options, n_t=n_t
    ),
    "ebal": lambda sample, spec, raw, options, n_t: estimate_ebal(
        sample, spec, raw, options=options, n_t=n_t
    ),
    "extended": lambda sample, spec, raw, options, n_t: estimate_extended(
        sample, spec, raw, options=options, n_t=n_t
    ),
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
