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
``asymptotic_variance`` makes one pass over the grid: H, G and each truth
function are evaluated once, the dual's base q becomes r in place, every
projection onto a span comes from one Gram matrix, and each grid array is
dropped after its last use. The limiting dual runs on the sub-grid of the
covariates H reads: on a tensor grid (one with a ``shape``) H is constant
along every other axis, so the dual's base and target weights are summed
over those axes first, and H = (const, x1, x2, x3) on a grid over x1..x5
solves over nodes**3 rows, not nodes**5.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .basis import BasisSpec
from .errors import HypothesisViolationError, RankDeficiencyError, ValidationError, _one
from .mathutil import sigmoid
from .models import basis_coefficients, in_h_span
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


def _tilt_base(truth, H, G):
    """q = exp(G'gamma_pi / 2) / (1 + exp(H'lambda_pi + G'gamma_pi)) per row."""
    den = 1.0 + np.exp(H @ truth.lambda_pi + G @ truth.gamma_pi)
    return np.exp(G @ (truth.gamma_pi / 2.0)) / den


def _grid_setup(truth, spec, grid):
    """H, G, participation rho and the source law ws = w rho / E[rho] on the grid."""
    p = grid.points.shape[1]
    if spec.max_index() >= p:
        raise ValidationError(
            f"basis references covariate x{spec.max_index() + 1} but the grid has p={p}",
            code="INDEX_OUT_OF_RANGE",
        )
    H = spec.evaluate_h(grid.points)
    G = spec.evaluate_g(grid.points)
    rho = truth.participation(grid.points)
    ws = grid.weights * rho
    ws /= ws.sum()
    return H, G, rho, ws


def _limiting_tilt(truth, spec, H, G, rho, ws, grid, tol=1e-8, max_iter=100):
    """lambda0* and r = q exp(H'lambda0*) on the grid, from the dual over F = H
    with base ws * q and target E[H | target]; q becomes r in place.

    On a tensor grid H is constant along each axis it does not read, so the
    dual runs on the sub-grid of the axes H reads, with the base and the
    target weights summed over the others. A grid without a shape, or an H
    that reads every axis, sums over no axis.
    """
    _require_decomposition(truth)
    q = _tilt_base(truth, H, G)
    shape, summed = (grid.size,), ()
    if grid.shape is not None:
        read = frozenset().union(*(t.indices() for t in spec.h_terms))
        shape, summed = grid.shape, tuple(j for j in range(len(grid.shape)) if j not in read)
    at_first = tuple(0 if j in summed else slice(None) for j in range(len(shape)))
    Hs = H.reshape(shape + H.shape[1:])[at_first].reshape(-1, H.shape[1])

    def reduce(v):
        return v.reshape(shape).sum(axis=summed).ravel()

    opts = SolverOptions(tol=tol, max_iter=max_iter, score_cap=np.inf)
    wt = grid.weights * (1.0 - rho)
    target = Hs.T @ reduce(wt) / wt.sum()
    problem = _GroupDual.one_block([Hs], [reduce(ws * q)], [target], [1], opts.score_cap)
    (solution,), _ = _solve_dual(problem, "H on the quadrature grid", opts, CalibrationSolution)
    lam0 = _one(solution).beta
    q *= np.exp(H @ lam0)
    return lam0, q


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
    return _limiting_tilt(truth, spec, *_grid_setup(truth, spec, grid), grid, tol, max_iter)[0]


def tilde_r(truth: TruthFunctions, spec: BasisSpec, lambda0_star: np.ndarray) -> Callable:
    """Evaluator for the limiting density tilt over the source population."""
    _require_decomposition(truth)

    def r(X):
        H = spec.evaluate_h(X)
        return _tilt_base(truth, H, spec.evaluate_g(X)) * np.exp(H @ lambda0_star)

    return r


@dataclasses.dataclass(frozen=True)
class ProjectedFunction:
    """Projection of a scalar function onto a function span."""

    coefficients: np.ndarray
    basis_eval: Callable

    def __call__(self, X) -> np.ndarray:
        return self.basis_eval(X) @ self.coefficients


def _project(B, measure, columns, span, names):
    """Measure-weighted least-squares coefficients of each column (vector
    or matrix) on span{B}, from one Gram matrix and one multi-column solve;
    a singular Gram raises RankDeficiencyError naming its null-space terms."""
    Bm = B * measure[:, None]
    gram = B.T @ Bm
    rhs = np.column_stack([Bm.T @ c for c in columns])
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        null = np.abs(np.linalg.eigh(gram)[1][:, 0])
        terms = ", ".join(n for n, v in zip(names, null) if v > 1e-6 * null.max())
        raise RankDeficiencyError(
            f"singular Gram matrix in projection onto {span}: {terms} degenerate "
            "under the tilted source law on the quadrature grid"
        ) from None


_G_PERP = "G⊥ (G residualised on H)"


def _tilted_measure(truth, spec, grid, r):
    """H, G and the r-tilted source law ws * r (r=None: the limiting tilt)."""
    H, G, rho, ws = _grid_setup(truth, spec, grid)
    tilt = _limiting_tilt(truth, spec, H, G, rho, ws, grid)[1] if r is None else r(grid.points)
    return H, G, ws * tilt


def project_h(
    f: Callable,
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    r: Callable | None = None,
) -> ProjectedFunction:
    """Project f onto span{H} under the r-tilted source covariate law."""
    H, _, measure = _tilted_measure(truth, spec, grid, r)
    coef = _project(H, measure, (np.asarray(f(grid.points), dtype=float),), "H", spec.h_names)
    return ProjectedFunction(coef[:, 0], spec.evaluate_h)


def project_g_perp(
    f: Callable,
    truth: TruthFunctions,
    spec: BasisSpec,
    grid: QuadratureGrid,
    r: Callable | None = None,
) -> ProjectedFunction:
    """Project f onto the H-orthogonalized G span under the tilted law."""
    H, G, measure = _tilted_measure(truth, spec, grid, r)
    C = _project(H, measure, (G,), "H", spec.h_names)
    G -= H @ C
    coef = _project(G, measure, (np.asarray(f(grid.points), dtype=float),), _G_PERP, spec.g_names)
    return ProjectedFunction(coef[:, 0], lambda X: spec.evaluate_g(X) - spec.evaluate_h(X) @ C)


_QUANTITIES = ("v1", "v2", "v3", "total", "efficiency_bound", "gap", "tau_star", "rho_marginal")


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
            "schema": "genbal/report/1",
            "kind": "oracle",
            "lambda0_star": [float(v) for v in self.lambda0_star],
            **{k: getattr(self, k) for k in _QUANTITIES},
            "conditions": dict(self.conditions),
        }

    def table(self, scale: float = 1.0):
        """(column, human format) pairs and one raw (quantity, value) row
        per scalar; ``scale`` is unused."""
        return (("quantity", "s"), ("value", ".6f")), [(k, getattr(self, k)) for k in _QUANTITIES]


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
    pts, w = grid.points, grid.weights
    H, G, rho, measure = _grid_setup(truth, spec, grid)
    lam0, r = _limiting_tilt(truth, spec, H, G, rho, measure, grid)
    measure *= r
    mu1 = truth.mu1(pts)
    mu0 = truth.mu0(pts)
    tau = mu1 - mu0
    # the H projections of tau, mu1, mu0 and of each G column share a Gram
    coef = _project(H, measure, (tau, mu1, mu0, G), "H", spec.h_names)
    G -= H @ coef[:, 3:]
    pi_gp_m = G @ _project(G, measure, (0.5 * (mu1 + mu0),), _G_PERP, spec.g_names)[:, 0]
    res1 = mu1 - H @ coef[:, 1] - pi_gp_m
    res0 = mu0 - H @ coef[:, 2] - pi_gp_m
    pi_h_tau = H @ coef[:, 0]
    # drop what the rest no longer reads: the call's peak memory stays the dual's
    del H, G, measure, mu1, mu0, pi_gp_m

    rho_bar = float(w @ rho)
    tau_star = float(w @ ((1.0 - rho) * tau)) / float(w @ (1.0 - rho))
    pi = truth.propensity(pts)
    noise = truth.sigma2_1(pts) / pi + truth.sigma2_0(pts) / (1.0 - pi)
    tilt2 = rho * r ** 2
    v1 = float(w @ (tilt2 * noise)) / rho_bar ** 2
    v3 = float(w @ (tilt2 * (res1 ** 2 / pi + res0 ** 2 / (1.0 - pi)))) / rho_bar ** 2
    v2 = float(w @ ((1.0 - rho) * (pi_h_tau - tau_star) ** 2)) / (1.0 - rho_bar) ** 2
    bound = (
        float(w @ ((1.0 - rho) ** 2 / rho * noise))
        + float(w @ ((1.0 - rho) * (tau - tau_star) ** 2))
    ) / (1.0 - rho_bar) ** 2

    total = v1 + v2 + v3
    return AsymptoticReport(
        lambda0_star=lam0,
        r_tilde=tilde_r(truth, spec, lam0),
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
