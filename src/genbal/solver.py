"""Newton solvers for the dual of entropy-balancing weight problems.

The primal problems minimize sum(w log w) (optionally relative to base
weights) under linear balance constraints; every solution is an
exponential tilt of the base weights. The joint problem balances the
H terms of each arm to the target summary and equalizes the G terms
across arms, so its dual parameters are (lambda1, lambda0, gamma) with
weights

    w_i = exp(lambda1'H_i + gamma'G_i)   on the treated arm,
    w_i = exp(lambda0'H_i - gamma'G_i)   on the control arm.

Every problem here is one form over a stack of row blocks: minimize

    (1/n_s) sum_b sum_{i in b} base_bi exp(theta[cols_b]'E_bi) - theta'target,

where block b holds rows E_bi that read the theta coordinates cols_b.
The joint dual is two blocks: the treated rows over [H | G] reading
(lambda1, gamma) and the control rows over [H | -G] reading (lambda0,
gamma), with base 1 and target (hbar, hbar, 0). Its Hessian is the two
per-arm Gram matrices laid into theta coordinates; they overlap only in
the gamma block. The per-group calibrations are one block of their arm's
H columns; the population oracle in :mod:`genbal.oracle` is one block
over the quadrature grid. One damped-Newton loop, ``_solve_dual``, solves
them all. Its first Hessian, taken at zero, is the base-weighted Gram
matrix of the problem, so that matrix's eigenvalues are the rank check:
the dual has a unique solution only when it is nonsingular, and a design
that is collinear within one arm is rejected before the first step. The
dual gradient equals the primal balance residuals, which is what the
convergence test monitors. All solves run in the coordinates of the
supplied design (standardized by default); weights are invariant to that
choice and :meth:`DualSolution.unstandardized` maps parameters back to
raw coordinates.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers

import numpy as np

from .basis import DesignMatrices, TargetSummary
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
    must sit strictly below it. A positive cap also keeps the zero scores
    of pad rows in a block stack below it. Invalid values raise
    ValidationError naming the field.
    """

    tol: float = 1e-10
    max_iter: int = 200
    score_cap: float = 30.0

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"SolverOptions.tol must be finite and > 0, got {self.tol!r}")
        if not (isinstance(self.max_iter, numbers.Integral) and not isinstance(self.max_iter, bool)
                and self.max_iter >= 0):
            raise ValidationError(
                f"SolverOptions.max_iter must be an integer >= 0, got {self.max_iter!r}"
            )
        # a cap of +inf (no cap) is allowed; NaN fails the comparison
        if not (isinstance(self.score_cap, numbers.Real) and self.score_cap > 0):
            raise ValidationError(
                f"SolverOptions.score_cap must be > 0 and not NaN, got {self.score_cap!r}"
            )


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
    """min (1/n_s) sum_b sum_{i in b} base_bi exp(theta[cols_b]'E_bi) - theta'target
    over a stack of row blocks.

    ``E`` is a zero-padded ``(b, m, k)`` array of rows, ``base`` a
    ``(b, m)`` array that is 0 on pad rows, and ``cols`` a ``(b, k)``
    integer map from each block's columns into theta. ``rows`` holds, for
    each of the n_s source rows in order, its flat position in the
    ``(b, m)`` stack, so :meth:`weights` returns source order. A pad row
    scores 0, which never exceeds a positive score cap, and weighs 0.
    The block Gram matrices and moment vectors are scattered into theta
    coordinates with one ``bincount`` each.
    """

    def __init__(self, E, base, cols, rows, target_vals, n_s, score_cap):
        if not score_cap > 0:  # pad rows score 0 and must stay below the cap
            raise ValidationError(f"score_cap must be > 0 and not NaN, got {score_cap!r}")
        self.E = E
        self.base = base
        self.cols = cols
        self.rows = rows
        self.target = np.asarray(target_vals, dtype=float)
        self.n_s = n_s
        self.dim = self.target.shape[0]
        self.cap = score_cap
        self._grad_at = cols.ravel()
        self._hess_at = (cols[:, :, None] * self.dim + cols[:, None, :]).ravel()

    @classmethod
    def one_block(cls, F, base, target_vals, n_s, score_cap):
        """The group dual over the rows of F, with theta indexing F's columns."""
        n, k = F.shape
        return cls(np.ascontiguousarray(F)[None], np.asarray(base)[None],
                   np.arange(k)[None], np.arange(n), target_vals, n_s, score_cap)

    def scores(self, beta):
        return np.matmul(self.E, beta[self.cols][:, :, None])[..., 0]

    def max_score(self, beta):
        return float(self.scores(beta).max())

    def tilt(self, beta):
        """The tilted weights base * exp(E beta) per block, or None past the
        score cap."""
        # line-search candidates may overflow; the score cap makes them +inf
        with np.errstate(over="ignore"):
            s = self.scores(beta)
        if float(s.max()) > self.cap:
            return None
        np.exp(s, out=s)
        s *= self.base
        return s

    def value_at(self, beta, w):
        """Objective at beta, given w = tilt(beta)."""
        return np.inf if w is None else float(w.sum() / self.n_s - beta @ self.target)

    def value(self, beta):
        return self.value_at(beta, self.tilt(beta))

    def value_grad_hess(self, beta, with_hess=True):
        return self.derivatives(beta, self.tilt(beta), with_hess)

    def derivatives(self, beta, w, with_hess=True):
        """Value, gradient and Hessian at beta, given w = tilt(beta)."""
        if w is None:
            return np.inf, None, None
        val = self.value_at(beta, w)
        moments = np.matmul(w[:, None, :], self.E)
        grad = np.bincount(self._grad_at, moments.ravel(), self.dim) / self.n_s - self.target
        if not with_hess:
            return val, grad, None
        gram = np.matmul(self.E.transpose(0, 2, 1), self.E * w[:, :, None])
        hess = np.bincount(self._hess_at, gram.ravel(), self.dim * self.dim)
        return val, grad, hess.reshape(self.dim, self.dim) / self.n_s

    def weights(self, beta):
        """Tilted weights of the source rows, in source order."""
        return (self.base * np.exp(self.scores(beta))).ravel()[self.rows]


def _JointDual(design, target, treated, score_cap):
    """The joint problem as a two-block group dual: the treated rows over
    [H | G] and the control rows over [H | -G], with block columns
    (lambda1, gamma) and (lambda0, gamma) of theta = (lambda1, lambda0,
    gamma), base 1 and target (hbar, hbar, 0). The rows are sorted by arm
    and the control G columns negated once, here."""
    t = np.asarray(treated, dtype=bool)
    n = design.n
    if t.shape[0] != n:
        raise ValidationError("treated mask misaligned with design rows")
    n1 = int(np.count_nonzero(t))
    if n1 in (0, n):
        raise ValidationError("both arms must be non-empty")
    n0 = n - n1
    kh, kg = design.h.shape[1], design.g.shape[1]
    m = max(n1, n0)
    # flat position of each source row in the (2, m) stack
    rows = np.empty(n, dtype=np.intp)
    rows[t] = np.arange(n1)
    rows[~t] = np.arange(m, m + n0)
    E = np.zeros((2, m, kh + kg))
    flat = E.reshape(2 * m, kh + kg)
    flat[rows, :kh] = design.h
    flat[rows, kh:] = design.g
    E[1, :n0, kh:] *= -1.0
    base = np.zeros((2, m))
    base[0, :n1] = 1.0
    base[1, :n0] = 1.0
    cols = np.empty((2, kh + kg), dtype=np.intp)
    cols[0, :kh] = np.arange(kh)
    cols[1, :kh] = np.arange(kh, 2 * kh)
    cols[:, kh:] = np.arange(2 * kh, 2 * kh + kg)
    target_vals = np.concatenate([target.values, target.values, np.zeros(kg)])
    return _GroupDual(E, base, cols, rows, target_vals, n, score_cap)


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


def _solve_dual(problem, what, opts, make_solution):
    """Damped Newton from zero, shared by every exponential-tilt solve;
    returns ``make_solution(theta, **diagnostics)`` and theta.

    At zero the dual Hessian is the base-weighted Gram matrix of the
    design, so its eigenvalues are the rank check: eigenvalues at or
    below ``dim * eps * max`` count as zero, and a deficient design
    raises RankDeficiencyError before the first step. Each step is the
    Newton direction, or the gradient direction when the Hessian solve
    fails or does not descend, shortened by Armijo backtracking. A
    solution that stalls, runs out of iterations or sits at the score cap
    raises NonConvergenceError.
    """
    theta = np.zeros(problem.dim)
    val, grad, hess = problem.value_grad_hess(theta)
    eig = np.linalg.eigvalsh(hess)
    rank = int((eig > problem.dim * np.finfo(float).eps * eig[-1]).sum())
    if rank < problem.dim:
        cond = np.sqrt(eig[-1] / eig[0]) if eig[0] > 0 else np.inf
        raise RankDeficiencyError(
            f"{what} is rank deficient: rank {rank} < {problem.dim} columns "
            f"(condition number {cond:.3g})"
        )
    iterations = 0
    while True:
        grad_norm = float(np.abs(grad).max())
        converged = grad_norm <= opts.tol
        if converged or iterations >= opts.max_iter:
            break
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
        for _ in range(_MAX_BACKTRACKS):
            cand = theta + t * direction
            w = problem.tilt(cand)
            cval = problem.value_at(cand, w)
            if np.isfinite(cval) and cval <= val + ARMIJO_SLOPE * t * slope + floor:
                break
            t *= ARMIJO_FACTOR
        else:  # no step decreases the objective enough: stalled
            break
        # the accepted candidate's tilt is reused, not recomputed
        theta = cand
        val, grad, hess = problem.derivatives(theta, w)
        iterations += 1
    solution = make_solution(
        theta,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged and problem.max_score(theta) < problem.cap,
        objective=val,
    )
    if not solution.converged:
        raise NonConvergenceError(
            f"dual solve over {what} stalled after {iterations} iterations "
            f"(residual sup-norm {grad_norm:.3g}); the target may be "
            "infeasible or overlap too weak",
            solution=solution,
            residuals=grad,
        )
    return solution, theta


def _solve_joint(design, target, treated, options, normalize, method):
    opts = options or SolverOptions()
    problem = _JointDual(design, target, treated, opts.score_cap)
    kh = design.h.shape[1]
    what = "block design [H 1{A=1} | H 1{A=0}" + (" | +-G]" if design.g.shape[1] else "]")
    solution, theta = _solve_dual(
        problem, what, opts,
        lambda theta, **diag: DualSolution(theta[:kh], theta[kh:2 * kh], theta[2 * kh:], **diag),
    )
    w = problem.weights(theta)
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
    problem = _GroupDual.one_block(F, base, target_vals, n_s, opts.score_cap)
    solution, theta = _solve_dual(problem, what, opts, CalibrationSolution)
    return solution, problem.weights(theta)


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
