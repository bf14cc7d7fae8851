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
Every sum over the grid reads it through ``grid.blocks()``, which a
``gauss_legendre_box`` grid builds block by block on request, so the
working set does not grow with the grid. The first pass sums the
limiting dual's base and target weights; the second, given lambda0*,
the Gram matrices and moments of the H and G⊥ projections, for
``project_h``, ``project_g_perp`` and ``asymptotic_variance`` alike;
the report's third, given the projection coefficients, the variance
sums. The limiting dual runs on the sub-grid of the covariates H reads:
on a tensor grid (one with a ``shape``) H is constant along every other
axis, so the dual's base and target weights are summed over those axes,
and H = (const, x1, x2, x3) on a grid over x1..x5 solves over nodes**3
rows, not nodes**5. A grid without a shape keeps one dual row per row.
"""

from __future__ import annotations

import dataclasses
import math
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


def _check_dimension(spec, grid):
    p = grid.dim
    if spec.max_index() >= p:
        raise ValidationError(
            f"basis references covariate x{spec.max_index() + 1} but the grid has p={p}",
            code="INDEX_OUT_OF_RANGE",
        )


def _chunks(truth, spec, grid, lam0=None):
    """One pass over the grid: per block of rows, (rows, X, w, H, G, rho,
    tilt), with tilt the base q, or r = q exp(H'lam0) given lam0."""
    for start, stop, X, w in grid.blocks():
        H, G = spec.evaluate_h(X), spec.evaluate_g(X)
        tilt = _tilt_base(truth, H, G)
        if lam0 is not None:
            tilt *= np.exp(H @ lam0)
        yield range(start, stop), X, w, H, G, truth.participation(X), tilt


def _limiting_dual(truth, spec, grid, tol=1e-8, max_iter=100):
    """First pass and the limiting dual: lambda0*, sum w rho and sum w (1 - rho).

    The dual is over F = H, with base w rho q / sum w rho and target
    E[H | target]. On a tensor grid H is constant along each axis it does
    not read, so the dual runs on the sub-grid of the axes H reads: each
    node sums the base and target weights of the rows that differ only on
    the other axes. A grid without a shape keeps one node per row.
    """
    _check_dimension(spec, grid)
    _require_decomposition(truth)
    shape, read = (grid.size,), {0}
    if grid.shape is not None:
        shape, read = grid.shape, frozenset().union(*(t.indices() for t in spec.h_terms))
    n_sub = math.prod(n for j, n in enumerate(shape) if j in read)
    Hs, base, wt, w_rho = np.empty((n_sub, len(spec.h_terms))), np.zeros(n_sub), np.zeros(n_sub), 0.0
    for rows, _, w, H, G, rho, q in _chunks(truth, spec, grid):
        i = np.arange(rows.start, rows.stop)
        node = np.zeros_like(i)
        for j in sorted(read):
            node = node * shape[j] + i // math.prod(shape[j + 1:]) % shape[j]
        Hs[node] = H  # the rows of one node share their H row
        base += np.bincount(node, w * rho * q, n_sub)
        wt += np.bincount(node, w * (1.0 - rho), n_sub)
        w_rho += float(w @ rho)
    opts = SolverOptions(tol=tol, max_iter=max_iter, score_cap=np.inf)
    target = Hs.T @ wt / wt.sum()
    problem = _GroupDual(Hs[None, None], (base / w_rho)[None, None], np.arange(Hs.shape[1])[None],
                         np.arange(n_sub), [target], [1], opts.score_cap)
    (solution,), _ = _solve_dual(problem, "H on the quadrature grid", opts, CalibrationSolution)
    return _one(solution).beta, w_rho, float(wt.sum())


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
    return _limiting_dual(truth, spec, grid, tol, max_iter)[0]


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


def _solve_gram(gram, rhs, span, names):
    """Projection coefficients on span from its Gram matrix and moments; a
    singular Gram raises RankDeficiencyError naming its null-space terms."""
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


def _second_pass(truth, spec, grid, lam0, columns, mix=None):
    """Under the tilted source law w rho r, the H coefficients of the k
    columns F that ``columns(X, w, rho)`` gives per block and of G, as one
    (kh, k + kg) array, and given ``mix`` the G⊥ coefficients of F @ mix.
    G⊥ = G - H C, so G⊥'G⊥ = G'G - G'H C and G⊥'f = G'f - C'H'f."""
    kh, kg = len(spec.h_terms), len(spec.g_terms)
    hh, hm, gg, gm = np.zeros((kh, kh)), 0.0, np.zeros((kg, kg)), np.zeros(kg)
    for _, X, w, H, G, rho, r in _chunks(truth, spec, grid, lam0):
        F, measure = np.column_stack(columns(X, w, rho)), w * rho * r
        Hm, Gm = H * measure[:, None], G * measure[:, None]
        hh += H.T @ Hm
        hm += Hm.T @ np.column_stack((F, G))
        gg += G.T @ Gm
        if mix is not None:
            gm += Gm.T @ (F @ mix)
    coef = _solve_gram(hh, hm, "H", spec.h_names)
    if mix is None:
        return coef, None
    k = len(mix)
    C = coef[:, k:]
    return coef, _solve_gram(gg - hm[:, k:].T @ C, gm - C.T @ (hm[:, :k] @ mix), _G_PERP, spec.g_names)


def project_h(
    f: Callable, truth: TruthFunctions, spec: BasisSpec, grid: QuadratureGrid
) -> ProjectedFunction:
    """Project f onto span{H} under the limiting tilted source covariate law."""
    lam0 = _limiting_dual(truth, spec, grid)[0]
    coef, _ = _second_pass(truth, spec, grid, lam0, lambda X, w, rho: (f(X),))
    return ProjectedFunction(coef[:, 0], spec.evaluate_h)


def project_g_perp(
    f: Callable, truth: TruthFunctions, spec: BasisSpec, grid: QuadratureGrid
) -> ProjectedFunction:
    """Project f onto the H-orthogonalized G span under the limiting tilted law."""
    lam0 = _limiting_dual(truth, spec, grid)[0]
    coef, b = _second_pass(truth, spec, grid, lam0, lambda X, w, rho: (f(X),), np.ones(1))
    C = coef[:, 1:]
    return ProjectedFunction(b, lambda X: spec.evaluate_g(X) - spec.evaluate_h(X) @ C)


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
    lam0, rho_bar, not_bar = _limiting_dual(truth, spec, grid)
    tau_sum = 0.0

    def columns(X, w, rho):
        nonlocal tau_sum
        mu1, mu0 = truth.mu1(X), truth.mu0(X)
        tau_sum += float(w @ ((1.0 - rho) * (mu1 - mu0)))
        return mu1 - mu0, mu1, mu0

    # G⊥ projects m: the halves are exact, so F @ mix is 0.5 * (mu1 + mu0) bit for bit
    coef, b = _second_pass(truth, spec, grid, lam0, columns, np.array([0.0, 0.5, 0.5]))
    C = coef[:, 3:]
    tau_star = tau_sum / not_bar
    # third pass: the variance sums, with pi_H tau = H a0 and the residuals
    # mu1 - pi_H mu1 - pi_G⊥ m = mu1 - H a1 - G b (a2 for mu0)
    a = np.column_stack((coef[:, 0], coef[:, 1] - C @ b, coef[:, 2] - C @ b))
    sums = np.zeros(5)
    for _, X, w, H, G, rho, r in _chunks(truth, spec, grid, lam0):
        mu1, mu0, pi = truth.mu1(X), truth.mu0(X), truth.propensity(X)
        noise = truth.sigma2_1(X) / pi + truth.sigma2_0(X) / (1.0 - pi)
        fit, pi_gp_m = H @ a, G @ b
        res1, res0 = mu1 - fit[:, 1] - pi_gp_m, mu0 - fit[:, 2] - pi_gp_m
        tilt2, out = rho * r ** 2, 1.0 - rho
        sums += (
            w @ (tilt2 * noise),
            w @ (tilt2 * (res1 ** 2 / pi + res0 ** 2 / (1.0 - pi))),
            w @ (out * (fit[:, 0] - tau_star) ** 2),
            w @ (out ** 2 / rho * noise),
            w @ (out * (mu1 - mu0 - tau_star) ** 2),
        )
    v1, v3 = (float(s) / rho_bar ** 2 for s in sums[:2])
    v2, bound = (float(s) / (1.0 - rho_bar) ** 2 for s in (sums[2], sums[3] + sums[4]))

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
