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
Every sum reads the grid through ``grid.blocks()``, block by block, so
the working set does not grow with the grid. Each block's H, G and
truth columns are stacked term by term as C-contiguous (k, rows)
arrays, so every Gram matrix and moment is one (k, rows) @ (rows, k')
product. The first pass sums the limiting dual's base and target
weights on the sub-grid of the covariates H reads (on a tensor grid H
is constant along the other axes; ``grid._nodes`` gives each row's node
from one tile per pass), so H = (const, x1, x2, x3) on a grid over
x1..x5 solves over nodes**3 rows; the second, given lambda0*, the Gram
matrices and moments of the H and G⊥ projections, for the projections
and the report alike; the report's third the variance sums. A truth
value or propensity outside what the formulas need fails typed.
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
        noise_var = float(config.noise_sd) * float(config.noise_sd)  # inf past 1.3e154, where ** raises
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


def _tilt(truth, H, G, lam0):
    """r = exp(H'lam0 + G'gamma_pi / 2) / (1 + exp(H'lambda_pi + G'gamma_pi))
    per column of the (k, rows) arrays H and G; lam0 = 0 gives the base q."""
    den = 1.0 + np.exp(truth.lambda_pi @ H + truth.gamma_pi @ G)
    return np.exp(lam0 @ H + (truth.gamma_pi / 2.0) @ G) / den


def _check_dimension(spec, grid):
    p = grid.dim
    if spec.max_index() >= p:
        raise ValidationError(
            f"basis references covariate x{spec.max_index() + 1} but the grid has p={p}",
            code="INDEX_OUT_OF_RANGE",
        )


def _point(x):
    return "(" + ", ".join(f"x{j + 1}={v:.6g}" for j, v in enumerate(x)) + ")"


def _stack(fns, X, w=None):
    """f(X) for each f of the dict ``fns`` as the rows of one C-contiguous (k, rows) array. Given
    the weights w, a value that is not finite raises ValidationError naming its key and the row
    if the row has weight, and reads as 0 if not."""
    if w is None:
        out = np.empty((len(fns), len(X)))
        for row, f in zip(out, fns.values()):
            row[...] = f(X)  # one term's values at a time, no list of k temporaries
        return out
    with np.errstate(all="ignore"):  # a value that is not finite is named below
        out = _stack(fns, X)
        finite = np.isfinite(out @ w).all()
    for name, row in zip(fns, () if finite else out):
        if (bad := ~np.isfinite(row) & (w > 0)).any():
            raise ValidationError(f"{name} is {row[bad.argmax()]} at the grid point {_point(X[bad.argmax()])}",
                                  code="NON_FINITE_CELL")
        row[~np.isfinite(row)] = 0.0  # on rows of zero weight, which add nothing
    return out


def _chunks(truth, spec, grid, lam0, fns):
    """One pass over the grid: per block of rows, (X, w, H, G, T, r): H, G and
    T (k, rows) arrays, T the participation rho then the truth functions
    ``fns``, checked, and r the tilt at lam0."""
    h, g = ({t.name: t.evaluate for t in terms} for terms in (spec.h_terms, spec.g_terms))
    for _, _, X, w in grid.blocks():
        H, G = _stack(h, X), _stack(g, X)
        yield X, w, H, G, _stack({"participation": truth.participation, **fns}, X, w), _tilt(truth, H, G, lam0)


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
    read = {0} if grid.shape is None else frozenset().union(*(t.indices() for t in spec.h_terms))
    n_sub, kh = math.prod(n for j, n in enumerate(grid.shape or (grid.size,)) if j in read), len(spec.h_terms)
    Hs, base, wt, w_rho = np.empty((n_sub, kh)), np.zeros(n_sub), np.zeros(n_sub), 0.0
    for (_, w, H, _, (rho,), q), node in zip(_chunks(truth, spec, grid, np.zeros(kh), {}), grid._nodes(read)):
        first = np.flatnonzero(np.diff(node, prepend=-1))  # a run of rows on one node shares its H row
        Hs[node[first]] = H.T[first]
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
        return _tilt(truth, spec.evaluate_h(X).T, spec.evaluate_g(X).T, lambda0_star)

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


def _second_pass(truth, spec, grid, lam0, fns, mix=None):
    """Under the tilted source law w rho r, the H coefficients of the k truth
    columns F of the dict ``fns`` and of G, as one (kh, k + kg) array, the
    sums of F under the target law w (1 - rho), and given ``mix`` the G⊥
    coefficients of F'mix (else None).
    G⊥ = G - H C, so G⊥'G⊥ = G'G - G'H C and G⊥'f = G'f - C'H'f."""
    kh, kg, k = len(spec.h_terms), len(spec.g_terms), len(fns)
    hh, hm, gg, gm, tgt = np.zeros((kh, kh)), np.zeros((kh, k + kg)), np.zeros((kg, kg)), np.zeros((kg, k)), 0.0
    for X, w, H, G, T, r in _chunks(truth, spec, grid, lam0, fns):
        rho, F, measure = T[0], T[1:], w * T[0] * r
        Hm, Gm = H * measure, G * measure
        hh += Hm @ H.T
        hm[:, :k] += Hm @ F.T
        hm[:, k:] += Hm @ G.T
        gg += Gm @ G.T
        gm += Gm @ F.T
        tgt += (w * (1.0 - rho)) @ F.T
    coef = _solve_gram(hh, hm, "H", spec.h_names)
    if mix is None:
        return coef, tgt, None
    C = coef[:, k:]
    return coef, tgt, _solve_gram(gg - hm[:, k:].T @ C, (gm - C.T @ hm[:, :k]) @ mix, _G_PERP, spec.g_names)


def project_h(
    f: Callable, truth: TruthFunctions, spec: BasisSpec, grid: QuadratureGrid
) -> ProjectedFunction:
    """Project f onto span{H} under the limiting tilted source covariate law."""
    lam0 = _limiting_dual(truth, spec, grid)[0]
    coef = _second_pass(truth, spec, grid, lam0, {"f": f})[0]
    return ProjectedFunction(coef[:, 0], spec.evaluate_h)


def project_g_perp(
    f: Callable, truth: TruthFunctions, spec: BasisSpec, grid: QuadratureGrid
) -> ProjectedFunction:
    """Project f onto the H-orthogonalized G span under the limiting tilted law."""
    lam0 = _limiting_dual(truth, spec, grid)[0]
    coef, _, b = _second_pass(truth, spec, grid, lam0, {"f": f}, np.ones(1))
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
    mu = {"mu1": truth.mu1, "mu0": truth.mu0}
    # G⊥ projects m = (mu1 + mu0) / 2; tau = mu1 - mu0 gets mu1's H coefficients and target sum minus mu0's
    coef, tgt, b = _second_pass(truth, spec, grid, lam0, mu, np.array([0.5, 0.5]))
    C = coef[:, 2:]
    tau_star = float(tgt[0] - tgt[1]) / not_bar
    # third pass: the variance sums, with pi_H tau = H a0 and the residuals
    # mu1 - pi_H mu1 - pi_G⊥ m = mu1 - H a1 - G b (a2 for mu0)
    a = np.array((coef[:, 0] - coef[:, 1], coef[:, 0] - C @ b, coef[:, 1] - C @ b))
    sums = np.zeros(5)
    fns = {**mu, "propensity": truth.propensity, "sigma2_1": truth.sigma2_1, "sigma2_0": truth.sigma2_0}
    for X, w, H, G, (rho, mu1, mu0, pi, s1, s0), r in _chunks(truth, spec, grid, lam0, fns):
        for name, v, hit in (("propensity", pi, (pi == 0.0) | (pi == 1.0)), ("participation", rho, rho == 0.0)):
            if (bad := hit & (w > 0)).any():
                raise HypothesisViolationError(
                    f"{name} reaches {v[bad.argmax()]:g} at the grid point {_point(X[bad.argmax()])}; the variance "
                    "needs 0 < propensity < 1 and participation > 0 wherever the grid has weight")
            v[hit] = 0.5  # on rows of zero weight, which add nothing
        noise = s1 / pi + s0 / (1.0 - pi)
        fit, pi_gp_m = a @ H, b @ G
        res1, res0 = mu1 - fit[1] - pi_gp_m, mu0 - fit[2] - pi_gp_m
        tilt2, out = rho * r ** 2, 1.0 - rho
        sums += (
            w @ (tilt2 * noise),
            w @ (tilt2 * (res1 ** 2 / pi + res0 ** 2 / (1.0 - pi))),
            w @ (out * (fit[0] - tau_star) ** 2),
            w @ (out ** 2 / rho * noise),
            w @ (out * (mu1 - mu0 - tau_star) ** 2),
        )
        del noise, fit, pi_gp_m, res1, res0, tilt2, out  # freed before the next block is built
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
