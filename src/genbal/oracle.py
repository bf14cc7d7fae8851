"""Population-level oracle for the limiting weights and asymptotic variance.

Given full knowledge of a data-generating process (true propensity,
participation, and outcome-mean functions), this module evaluates:

* the limiting dual component lambda0* and the induced source-density
  tilt r(x), toward which the solved weights converge when the treatment
  logit is linear in the (H, G) basis;
* the asymptotic variance of the extended balancing estimator, split
  into its sampling, shift, and projection-residual parts;
* the efficiency bound that would apply if individual-level target data
  were available, and the gap to it.

All expectations run over a deterministic quadrature grid for the
covariate law, so results are exact up to quadrature error; the
companion Monte Carlo harness provides the stochastic cross-check.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .basis import BasisSpec
from .errors import HypothesisViolationError, RankDeficiencyError
from .mathutil import sigmoid
from .models import CovariateFunction, basis_coefficients, in_h_span
from .quadrature import QuadratureGrid
from .solver import CalibrationSolution, SolverOptions, _GroupDual, _solve_dual

__all__ = [
    "TruthFunctions",
    "AsymptoticReport",
    "ProjectedFunction",
    "solve_limiting_dual",
    "tilde_r",
    "project_h",
    "project_g_perp",
    "asymptotic_variance",
    "condition_b_participation",
]


@dataclasses.dataclass(frozen=True)
class TruthFunctions:
    """True DGP functions of the covariates, plus structure flags.

    ``participation`` returns the probability of landing in the source
    sample; ``propensity`` the probability of treatment within it. When
    the treatment logit decomposes linearly over the basis, ``lambda_pi``
    and ``gamma_pi`` hold the coefficients (H then G blocks); otherwise
    they are None and the limiting-weight formulas are unavailable.
    """

    propensity: Callable
    participation: Callable
    mu1: Callable
    mu0: Callable
    sigma2_1: Callable
    sigma2_0: Callable
    lambda_pi: np.ndarray | None = None
    gamma_pi: np.ndarray | None = None
    tau_in_span_h: bool | None = None
    mu_in_span_h: bool | None = None
    condition_b: str = "unverified"

    def tau(self, X) -> np.ndarray:
        return self.mu1(X) - self.mu0(X)

    def m(self, X) -> np.ndarray:
        return 0.5 * (self.mu1(X) + self.mu0(X))

    @classmethod
    def from_scenario(cls, config, spec: BasisSpec | None = None) -> "TruthFunctions":
        spec = spec if spec is not None else config.basis()
        pi_logit = config.propensity_logit
        rho_logit = config.participation_logit
        cate = config.cate
        base = config.baseline
        noise_var = float(config.noise_sd) ** 2
        decomp = basis_coefficients(pi_logit, spec)
        lam_pi, gam_pi = decomp if decomp is not None else (None, None)
        tau_h = in_h_span(cate, spec)
        return cls(
            propensity=lambda X: sigmoid(pi_logit(X)),
            participation=lambda X: sigmoid(rho_logit(X)),
            mu1=lambda X: base(X) + 0.5 * cate(X),
            mu0=lambda X: base(X) - 0.5 * cate(X),
            sigma2_1=lambda X: np.full(np.atleast_2d(X).shape[0], noise_var),
            sigma2_0=lambda X: np.full(np.atleast_2d(X).shape[0], noise_var),
            lambda_pi=lam_pi,
            gamma_pi=gam_pi,
            tau_in_span_h=tau_h,
            mu_in_span_h=tau_h and in_h_span(base, spec),
            condition_b="unverified",
        )


def _require_decomposition(truth: TruthFunctions):
    if truth.lambda_pi is None or truth.gamma_pi is None:
        raise HypothesisViolationError(
            "treatment logit is not linear in the (H, G) basis, so the "
            "limiting tilt is undefined"
        )


def solve_limiting_dual(
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> np.ndarray:
    """Root of the population moment equation defining lambda0*.

    Solves E[r(X) H(X) | source] = E[H(X) | target] for the H-block
    coefficient of the limiting tilt. This is the entropy-balancing dual
    on the quadrature grid: the group dual over F = H with base weights
    w_s exp(G'gamma_pi / 2) / (1 + exp(H'lambda_pi + G'gamma_pi)), solved
    by the same damped-Newton loop as every sample-level solve, with no
    cap on the linear scores. An H term that is degenerate on the grid
    (identically zero, say) raises RankDeficiencyError.
    """
    _require_decomposition(truth)
    H = spec.evaluate_h(grid.points)
    G = spec.evaluate_g(grid.points)
    rho = truth.participation(grid.points)
    ws = grid.weights * rho
    ws = ws / ws.sum()
    wt = grid.weights * (1.0 - rho)
    wt = wt / wt.sum()
    base = ws * np.exp(G @ (truth.gamma_pi / 2.0)) / (
        1.0 + np.exp(H @ truth.lambda_pi + G @ truth.gamma_pi)
    )
    opts = SolverOptions(tol=tol, max_iter=max_iter, score_cap=np.inf)
    problem = _GroupDual(H, base, H.T @ wt, n_s=1, score_cap=opts.score_cap)
    _, theta = _solve_dual(problem, "H on the quadrature grid", opts, CalibrationSolution)
    return theta


def tilde_r(truth: TruthFunctions, spec: BasisSpec, lambda0_star: np.ndarray) -> Callable:
    """Evaluator for the limiting density tilt over the source population."""
    _require_decomposition(truth)

    def r(X):
        H = spec.evaluate_h(X)
        G = spec.evaluate_g(X)
        num = np.exp(H @ lambda0_star + G @ (truth.gamma_pi / 2.0))
        den = 1.0 + np.exp(H @ truth.lambda_pi + G @ truth.gamma_pi)
        return num / den

    return r


@dataclasses.dataclass(frozen=True)
class ProjectedFunction:
    """Projection of a scalar function onto a function span."""

    coefficients: np.ndarray
    basis_eval: Callable

    def __call__(self, X) -> np.ndarray:
        return self.basis_eval(X) @ self.coefficients


def _source_tilt_measure(truth, grid, r_values):
    """Weights for E[r(X) f(X) | source] on the grid."""
    ws = grid.weights * truth.participation(grid.points)
    ws = ws / ws.sum()
    return ws * r_values


def _project(basis_values, basis_eval, f_values, measure):
    gram = basis_values.T @ (basis_values * measure[:, None])
    rhs = basis_values.T @ (measure * f_values)
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Gram matrix in projection") from None
    return ProjectedFunction(coef, basis_eval)


def project_h(
    f: Callable,
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    r: Callable | None = None,
) -> ProjectedFunction:
    """Project f onto span{H} under the r-tilted source covariate law."""
    if r is None:
        r = tilde_r(truth, spec, solve_limiting_dual(truth, spec, grid))
    rv = r(grid.points)
    measure = _source_tilt_measure(truth, grid, rv)
    H = spec.evaluate_h(grid.points)
    return _project(H, spec.evaluate_h, np.asarray(f(grid.points), dtype=float), measure)


def _g_perp_eval(spec: BasisSpec, truth, grid, r) -> Callable:
    """Evaluator for G(x) - proj_H(G(x)), one column per G term."""
    rv = r(grid.points)
    measure = _source_tilt_measure(truth, grid, rv)
    H = spec.evaluate_h(grid.points)
    G = spec.evaluate_g(grid.points)
    gram = H.T @ (H * measure[:, None])
    coefs = np.linalg.solve(gram, H.T @ (G * measure[:, None]))  # (K_h+1, K_g)

    def ev(X):
        return spec.evaluate_g(X) - spec.evaluate_h(X) @ coefs

    return ev


def project_g_perp(
    f: Callable,
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    r: Callable | None = None,
) -> ProjectedFunction:
    """Project f onto the H-orthogonalized G span under the tilted law."""
    if r is None:
        r = tilde_r(truth, spec, solve_limiting_dual(truth, spec, grid))
    if not spec.g_terms:
        return ProjectedFunction(np.empty(0), lambda X: np.empty((np.atleast_2d(X).shape[0], 0)))
    gperp = _g_perp_eval(spec, truth, grid, r)
    rv = r(grid.points)
    measure = _source_tilt_measure(truth, grid, rv)
    B = gperp(grid.points)
    return _project(B, gperp, np.asarray(f(grid.points), dtype=float), measure)


@dataclasses.dataclass(frozen=True)
class AsymptoticReport:
    """Asymptotic variance decomposition and efficiency-bound comparison.

    ``v1`` is the outcome-noise part, ``v2`` the target-shift part driven
    by the projected treatment-effect function, ``v3`` the non-negative
    projection-residual part that measures excess over the bound. The
    total is the limit of n * Var(tau_hat) with n the combined
    source-plus-target sample size.
    """

    lambda0_star: np.ndarray
    r_tilde: Callable
    v1: float
    v2: float
    v3: float
    total: float
    efficiency_bound: float
    gap: float
    tau_star: float
    rho_marginal: float
    conditions: dict

    def to_dict(self) -> dict:
        return {
            "lambda0_star": [float(v) for v in self.lambda0_star],
            "v1": self.v1,
            "v2": self.v2,
            "v3": self.v3,
            "total": self.total,
            "efficiency_bound": self.efficiency_bound,
            "gap": self.gap,
            "tau_star": self.tau_star,
            "rho_marginal": self.rho_marginal,
            "conditions": dict(self.conditions),
        }


def asymptotic_variance(
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    asserted_conditions: tuple = (),
) -> AsymptoticReport:
    """Evaluate the asymptotic variance of the extended estimator by quadrature.

    The caller asserts which consistency condition justifies the formula
    (recorded, not enforced); automated detectors for the special cases
    are reported alongside.
    """
    _require_decomposition(truth)
    lam0 = solve_limiting_dual(truth, spec, grid)
    r = tilde_r(truth, spec, lam0)
    pts = grid.points
    w = grid.weights
    rho = truth.participation(pts)
    pi = truth.propensity(pts)
    rv = r(pts)
    mu1 = truth.mu1(pts)
    mu0 = truth.mu0(pts)
    tau = mu1 - mu0
    mbar = 0.5 * (mu1 + mu0)
    s21 = truth.sigma2_1(pts)
    s20 = truth.sigma2_0(pts)

    rho_bar = float(w @ rho)
    tau_star = float(w @ ((1.0 - rho) * tau)) / float(w @ (1.0 - rho))

    pi_h_tau = project_h(truth.tau, truth, spec, grid, r)(pts)
    pi_h_mu1 = project_h(truth.mu1, truth, spec, grid, r)(pts)
    pi_h_mu0 = project_h(truth.mu0, truth, spec, grid, r)(pts)
    pi_gp_m = project_g_perp(truth.m, truth, spec, grid, r)(pts)

    noise = s21 / pi + s20 / (1.0 - pi)
    v1 = float(w @ (rho * rv ** 2 * noise)) / rho_bar ** 2
    v2 = float(w @ ((1.0 - rho) * (pi_h_tau - tau_star) ** 2)) / (1.0 - rho_bar) ** 2
    res1 = mu1 - pi_h_mu1 - pi_gp_m
    res0 = mu0 - pi_h_mu0 - pi_gp_m
    v3 = float(
        w @ (rho * rv ** 2 * (res1 ** 2 / pi + res0 ** 2 / (1.0 - pi)))
    ) / rho_bar ** 2

    bound = (
        float(w @ ((1.0 - rho) ** 2 / rho * noise))
        + float(w @ ((1.0 - rho) * (tau - tau_star) ** 2))
    ) / (1.0 - rho_bar) ** 2

    total = v1 + v2 + v3
    return AsymptoticReport(
        lambda0_star=lam0,
        r_tilde=r,
        v1=v1,
        v2=v2,
        v3=v3,
        total=total,
        efficiency_bound=bound,
        gap=total - bound,
        tau_star=tau_star,
        rho_marginal=rho_bar,
        conditions={
            "asserted": list(asserted_conditions),
            "logit_in_span": truth.lambda_pi is not None,
            "tau_in_span_h": truth.tau_in_span_h,
            "mu_in_span_h": truth.mu_in_span_h,
            "condition_b": truth.condition_b,
        },
    )


def condition_b_participation(
    spec: BasisSpec,
    lambda_pi: np.ndarray,
    gamma_pi: np.ndarray,
    lam: np.ndarray,
) -> Callable:
    """Participation probability that makes the target density ratio sit
    exactly inside the tilting family induced by the basis.

    With q(x) = exp(lam'H + gamma_pi'G / 2) / (1 + exp(lambda_pi'H +
    gamma_pi'G)), setting the participation odds to 1/q(x) makes the
    target-to-source density ratio proportional to q, which is the
    structure under which the shift part of the asymptotic variance
    collapses to its efficient form.
    """
    lam = np.asarray(lam, dtype=float)

    def rho(X):
        H = spec.evaluate_h(X)
        G = spec.evaluate_g(X)
        log_q = H @ lam + G @ (np.asarray(gamma_pi) / 2.0) - np.logaddexp(
            0.0, H @ np.asarray(lambda_pi) + G @ np.asarray(gamma_pi)
        )
        return sigmoid(-log_q)

    return rho
