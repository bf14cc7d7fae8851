"""Newton solvers for the dual of entropy-balancing weight problems.

The primal problems minimize sum(w log w) (optionally relative to base
weights) under linear balance constraints; every solution is an
exponential tilt of the base weights. The joint problem balances the
H terms of each arm to the target summary and equalizes the G terms
across arms, so its dual parameters are (lambda1, lambda0, gamma) with
weights

    w_i = exp(lambda1'H_i + gamma'G_i)   on the treated arm,
    w_i = exp(lambda0'H_i - gamma'G_i)   on the control arm.

Every problem here, the joint one included, is one form: minimize
(1/n_s) sum_i base_i exp(theta'F_i) - theta'target over a design F. The
joint dual is that form over the block design F = [H 1{A=1} | H 1{A=0} |
+-G] with base 1 and target (hbar, hbar, 0); the per-group calibrations
use their arm's H columns; the population oracle in :mod:`genbal.oracle`
uses the quadrature grid. One damped-Newton loop solves them all. The
dual gradient equals the primal balance residuals, which is what the
convergence test monitors. All solves run in the coordinates of the
supplied design (standardized by default); weights are invariant to that
choice and :meth:`DualSolution.unstandardized` maps parameters back to
raw coordinates.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .basis import DesignMatrices, TargetSummary, check_design_rank, matrix_rank_report
from .errors import NonConvergenceError, RankDeficiencyError, ValidationError

__all__ = [
    "Method",
    "SolverOptions",
    "DualSolution",
    "CalibrationSolution",
    "WeightSet",
    "BalanceReport",
    "dual_objective",
    "balance_residuals",
    "solve_extended",
    "solve_ebal",
    "solve_two_step",
    "solve_et_calibration",
    "solve_att",
]

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
_MAX_BACKTRACKS = 60


class Method(str, enum.Enum):
    """Provenance tag for a weight set."""

    EXTENDED = "extended"       # per-arm H calibration + cross-arm G balance
    EBAL = "ebal"               # per-arm H calibration only
    TWO_STEP = "two_step"       # shift calibration first, arm balance second
    ET = "et"                   # whole-sample shift calibration
    ATT = "att"                 # control arm tilted to treated means
    IPW = "ipw"
    IPW_ET = "ipw_et"


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Newton solver knobs.

    ``tol`` bounds the sup-norm of the dual gradient (equivalently the
    balance residuals) in design coordinates. ``score_cap`` bounds the
    linear scores fed to exp during the line search; a converged solution
    must sit strictly below it.
    """

    tol: float = 1e-10
    max_iter: int = 200
    score_cap: float = 30.0


@dataclasses.dataclass(frozen=True)
class DualSolution:
    """Dual parameters of the joint (two-arm) problem plus diagnostics."""

    lambda1: np.ndarray
    lambda0: np.ndarray
    gamma: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    objective: float

    def unstandardized(self, design: DesignMatrices):
        """Equivalent parameters over the raw (unscaled) basis columns.

        The constant coefficient absorbs the centering of every scaled
        column, including the G columns whose sign flips between arms.
        """
        hc, hs = design.h_center, design.h_scale
        gc, gs = design.g_center, design.g_scale
        l1 = self.lambda1 / hs
        l0 = self.lambda0 / hs
        if self.gamma.size:
            g = self.gamma / gs
            g_shift = float(self.gamma @ (gc / gs))
        else:
            g = self.gamma.copy()
            g_shift = 0.0
        h_shift = float(self.lambda1[1:] @ (hc[1:] / hs[1:]))
        l1[0] = self.lambda1[0] - h_shift - g_shift
        l0[0] = self.lambda0[0] - float(self.lambda0[1:] @ (hc[1:] / hs[1:])) + g_shift
        return l1, l0, g


@dataclasses.dataclass(frozen=True)
class CalibrationSolution:
    """Dual parameters of a single-group calibration problem."""

    beta: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    objective: float

    def unstandardized(self, design: DesignMatrices) -> np.ndarray:
        hc, hs = design.h_center, design.h_scale
        b = self.beta / hs
        b[0] = self.beta[0] - float(self.beta[1:] @ (hc[1:] / hs[1:]))
        return b


@dataclasses.dataclass(frozen=True)
class WeightSet:
    """Weights aligned to source rows, with provenance."""

    w: np.ndarray
    method: Method
    normalized: bool

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 1:
            raise ValidationError("weights must be a 1-d vector")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValidationError("weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclasses.dataclass(frozen=True)
class BalanceReport:
    """Primal constraint residuals of a weight vector."""

    h_treated: np.ndarray
    h_control: np.ndarray
    g_gap: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.h_treated, self.h_control, self.g_gap])

    @property
    def sup_norm(self) -> float:
        s = self.stacked()
        return float(np.abs(s).max()) if s.size else 0.0


def balance_residuals(design: DesignMatrices, target: TargetSummary, treated, w) -> BalanceReport:
    """Residuals of the joint balance constraints for arbitrary weights."""
    t = np.asarray(treated, dtype=bool)
    w = np.asarray(w, dtype=float)
    n_s = design.n
    w1, w0 = w[t], w[~t]
    r1 = design.h[t].T @ w1 / n_s - target.values
    r0 = design.h[~t].T @ w0 / n_s - target.values
    rg = (design.g[t].T @ w1 - design.g[~t].T @ w0) / n_s
    return BalanceReport(r1, r0, rg)


class _GroupDual:
    """min (1/n_s) sum_i base_i exp(beta'F_i) - beta'target over one group."""

    def __init__(self, F, base, target_vals, n_s, score_cap):
        self.F = F
        self.base = base
        self.target = np.asarray(target_vals, dtype=float)
        self.n_s = n_s
        self.dim = F.shape[1]
        self.cap = score_cap

    def max_score(self, beta):
        return float((self.F @ beta).max())

    def value(self, beta):
        # line-search candidates may overflow; the score cap makes them +inf
        with np.errstate(over="ignore"):
            s = self.F @ beta
        if float(s.max()) > self.cap:
            return np.inf
        return float((self.base * np.exp(s)).sum() / self.n_s - beta @ self.target)

    def value_grad_hess(self, beta, with_hess=True):
        with np.errstate(over="ignore"):
            s = self.F @ beta
        if float(s.max()) > self.cap:
            return np.inf, None, None
        w = self.base * np.exp(s)
        val = float(w.sum() / self.n_s - beta @ self.target)
        grad = self.F.T @ w / self.n_s - self.target
        if not with_hess:
            return val, grad, None
        hess = self.F.T @ (self.F * w[:, None]) / self.n_s
        return val, grad, hess

    def weights(self, beta):
        return self.base * np.exp(self.F @ beta)


def _JointDual(design, target, treated, score_cap):
    """The joint problem as a group dual over the block design
    F = [H 1{A=1} | H 1{A=0} | +-G] (G enters treated rows with a plus
    sign, control rows with a minus), base 1 and target (hbar, hbar, 0),
    so theta packs (lambda1, lambda0, gamma)."""
    t = np.asarray(treated, dtype=bool)
    if t.shape[0] != design.n:
        raise ValidationError("treated mask misaligned with design rows")
    if t.all() or not t.any():
        raise ValidationError("both arms must be non-empty")
    arm = t[:, None]
    F = np.hstack([design.h * arm, design.h * ~arm, np.where(arm, design.g, -design.g)])
    target_vals = np.concatenate([target.values, target.values, np.zeros(design.g.shape[1])])
    return _GroupDual(F, np.ones(design.n), target_vals, design.n, score_cap)


@dataclasses.dataclass
class _NewtonResult:
    theta: np.ndarray
    value: float
    grad: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def _newton_minimize(problem, options: SolverOptions) -> _NewtonResult:
    """Damped Newton with Armijo backtracking, started at zero.

    Falls back to the gradient direction when the Hessian solve fails or
    does not yield a descent direction.
    """
    theta = np.zeros(problem.dim)
    val, grad, hess = problem.value_grad_hess(theta)
    iterations = 0
    while iterations < options.max_iter:
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= options.tol:
            return _NewtonResult(theta, val, grad, grad_norm, iterations, True)
        step = None
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and (not np.isfinite(step).all() or grad @ step <= 0):
            step = None
        direction = -step if step is not None else -grad
        slope = float(grad @ direction)
        # Absolute slack keeps the sufficient-decrease test meaningful when
        # improvements fall below floating-point resolution of the value.
        floor = 1e-14 * (1.0 + abs(val))
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = theta + t * direction
            cval = problem.value(cand)
            if np.isfinite(cval) and cval <= val + ARMIJO_SLOPE * t * slope + floor:
                accepted = True
                break
            t *= ARMIJO_FACTOR
        if not accepted:
            return _NewtonResult(theta, val, grad, grad_norm, iterations, False)
        theta = cand
        val, grad, hess = problem.value_grad_hess(theta)
        iterations += 1
    grad_norm = float(np.abs(grad).max())
    return _NewtonResult(theta, val, grad, grad_norm, iterations, grad_norm <= options.tol)


def dual_objective(lambda1, lambda0, gamma, design, target, treated, score_cap=30.0):
    """Value, gradient and Hessian of the joint dual at the given parameters.

    The gradient components are exactly the balance residuals: treated-arm
    H block, control-arm H block, then the G gap. If any linear score
    exceeds ``score_cap`` the value is +inf and gradient/Hessian are NaN.
    """
    problem = _JointDual(design, target, treated, score_cap)
    theta = np.concatenate([
        np.asarray(lambda1, dtype=float),
        np.asarray(lambda0, dtype=float),
        np.asarray(gamma, dtype=float),
    ])
    if theta.shape[0] != problem.dim:
        raise ValidationError("dual parameter dimensions do not match the design")
    val, grad, hess = problem.value_grad_hess(theta)
    if grad is None:
        grad = np.full(problem.dim, np.nan)
        hess = np.full((problem.dim, problem.dim), np.nan)
    return val, grad, hess


def _arms(treated):
    """Row indices of the treated arm and of the control arm."""
    return np.flatnonzero(treated), np.flatnonzero(~treated)


def _normalize_per_arm(w, arms, n_s):
    """Scale the weights of each arm (an index array) to sum to n_s."""
    out = w.copy()
    for arm in arms:
        out[arm] *= n_s / out[arm].sum()
    return out


def _solve_dual(problem, rank, what, opts, make_solution):
    """Rank check, damped Newton and score-cap test shared by every
    exponential-tilt solve; returns the solution and the fitted weights."""
    if rank.deficient:
        raise RankDeficiencyError(
            f"{what} is rank deficient: rank {rank.rank} < {rank.n_columns} columns "
            f"(condition number {rank.condition_number:.3g})"
        )
    res = _newton_minimize(problem, opts)
    at_cap = problem.max_score(res.theta) >= opts.score_cap
    solution = make_solution(
        res.theta,
        iterations=res.iterations,
        grad_norm=res.grad_norm,
        converged=res.converged and not at_cap,
        objective=res.value,
    )
    if not solution.converged:
        raise NonConvergenceError(
            f"dual solve over {what} stalled after {res.iterations} iterations "
            f"(residual sup-norm {res.grad_norm:.3g}); the target may be "
            "infeasible or overlap too weak",
            solution=solution,
            residuals=res.grad,
        )
    return solution, problem.weights(res.theta)


def _solve_joint(design, target, treated, options, normalize, method):
    opts = options or SolverOptions()
    rank = check_design_rank(design)
    problem = _JointDual(design, target, treated, opts.score_cap)
    kh = design.h.shape[1]
    solution, w = _solve_dual(
        problem, rank, "[H|G]", opts,
        lambda theta, **diag: DualSolution(theta[:kh], theta[kh:2 * kh], theta[2 * kh:], **diag),
    )
    if normalize:
        w = _normalize_per_arm(w, _arms(np.asarray(treated, dtype=bool)), design.n)
    return solution, WeightSet(w, method, normalize)


def solve_extended(design, target, treated, options=None, normalize=False):
    """Weights balancing H per arm to the target and G across arms."""
    return _solve_joint(design, target, treated, options, normalize, Method.EXTENDED)


def solve_ebal(design, target, treated, options=None, normalize=False):
    """H-only special case: drop the G columns and balance per arm."""
    return _solve_joint(design.h_only(), target, treated, options, normalize, Method.EBAL)


def _calibrate_group(F, base, target_vals, n_s, opts, what):
    problem = _GroupDual(F, base, target_vals, n_s, opts.score_cap)
    return _solve_dual(
        problem, matrix_rank_report(F), what, opts,
        lambda theta, **diag: CalibrationSolution(theta, **diag),
    )


def solve_et_calibration(design, target, options=None, normalize=False):
    """Whole-sample exponential-tilting calibration of H means to the target.

    Ignores treatment arms: the weighted source means of every H term are
    pushed onto the target summary.
    """
    opts = options or SolverOptions()
    solution, q = _calibrate_group(
        design.h, np.ones(design.n), target.values, design.n, opts, "H design"
    )
    if normalize:
        q = q * (design.n / q.sum())
    return solution, WeightSet(q, Method.ET, normalize)


def solve_two_step(design, target, treated, options=None, normalize=False, q_weights=None):
    """Shift-then-balance calibration: tilt the whole sample to the target,
    then re-balance each arm relative to that tilt.

    The second step minimizes sum(w log(w / q)) per arm. Its constraint
    right-hand sides are the q-weighted source averages, which at the
    exact first-step solution coincide with the target summary; they are
    anchored at the target here so the identity is exact rather than
    holding only to solver tolerance. ``q_weights`` overrides the first
    step (diagnostics; all ones reduces the procedure to the one-step
    H-only problem).
    """
    opts = options or SolverOptions()
    t = np.asarray(treated, dtype=bool)
    if q_weights is None:
        _, q_set = solve_et_calibration(design, target, opts)
        q = q_set.w
    else:
        q = np.asarray(q_weights, dtype=float)
        if q.shape[0] != design.n or (q <= 0).any():
            raise ValidationError("q_weights must be positive and aligned to the design")
    rhs = target.values
    w = np.empty(design.n)
    for arm_mask, label in ((t, "treated arm"), (~t, "control arm")):
        _, w_arm = _calibrate_group(
            design.h[arm_mask], q[arm_mask], rhs, design.n, opts, label
        )
        w[arm_mask] = w_arm
    if normalize:
        w = _normalize_per_arm(w, _arms(t), design.n)
    return WeightSet(w, Method.TWO_STEP, normalize)


def solve_att(design, treated, options=None, normalize=False):
    """Tilt the control arm onto the treated arm's H means.

    Control weights satisfy sum(w)/n_s = 1 and reproduce the treated-arm
    means of every H column; treated rows get the uniform weight
    n_s / |S1| for completeness.
    """
    opts = options or SolverOptions()
    t = np.asarray(treated, dtype=bool)
    if t.sum() == 0 or (~t).sum() == 0:
        raise ValidationError("both arms must be non-empty")
    target_vals = design.h[t].mean(axis=0)
    _, w0 = _calibrate_group(
        design.h[~t], np.ones(int((~t).sum())), target_vals, design.n, opts, "control arm"
    )
    w = np.empty(design.n)
    w[~t] = w0
    w[t] = design.n / t.sum()
    if normalize:
        w = _normalize_per_arm(w, _arms(t), design.n)
    return WeightSet(w, Method.ATT, normalize)
