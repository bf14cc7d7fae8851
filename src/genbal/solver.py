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
the gamma block. The per-group calibrations are one block of H columns
over the whole sample or one arm. Every dual over source rows is laid out
one way: each row of a batch gets a block label, -1 for a row outside the
problem, and one take from the batch's [H | G] rows fills every member's
zero-padded blocks. The oracle of :mod:`genbal.oracle`, which has no
design rows, builds its one block over a quadrature grid directly. The
treatment logit of :mod:`genbal.estimators` has the same interface.
One damped-Newton loop, ``_solve_dual``, solves them all, for
a batch of data sets at once: the blocks carry a leading batch axis, each
member runs its own line search and is frozen when it converges or
fails, and every public ``solve_*`` is a batch of one. Its first Hessian,
taken at zero, is the weighted Gram matrix of the problem, whose
eigenvalues are the rank check: a design collinear within one arm, or a
rank-deficient logit, is rejected before the first step. The
dual gradient equals the primal balance residuals, which is what the
convergence test monitors. All solves run in the coordinates of the
supplied design, each column but the constant centred and scaled;
:meth:`DualSolution.unstandardized` maps parameters back to raw
coordinates through ``_raw_h``, the one map the treatment logit uses too.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers

import numpy as np

from .basis import DesignMatrices, TargetSummary
from .errors import NonConvergenceError, RankDeficiencyError, ValidationError, WeightUnderflowError, _one
from .mathutil import solve_each

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

        Each arm's H coefficients map as a calibration's do; the constant
        then also absorbs the centering of the G columns, whose sign flips
        between arms.
        """
        g_shift = float(self.gamma @ (design.g_center / design.g_scale))
        l1 = _raw_h(self.lambda1, design.h_center, design.h_scale)
        l0 = _raw_h(self.lambda0, design.h_center, design.h_scale)
        l1[0] -= g_shift
        l0[0] += g_shift
        return l1, l0, self.gamma / design.g_scale


@dataclasses.dataclass(frozen=True)
class CalibrationSolution:
    """Dual parameters of a single-group calibration problem."""

    beta: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    objective: float

    def unstandardized(self, design: DesignMatrices) -> np.ndarray:
        """Equivalent coefficients over the raw (unscaled) H columns."""
        return _raw_h(self.beta, design.h_center, design.h_scale)


def _raw_h(theta, center, scale) -> np.ndarray:
    """Coefficients ``theta`` of columns (raw - center) / scale mapped onto the raw
    ones, column 0 the constant: its coefficient absorbs the centering of every column."""
    b = theta / scale
    b[0] = theta[0] - float(theta[1:] @ (center[1:] / scale[1:]))
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
    over a stack of row blocks, for each of a batch of R data sets.

    ``E`` is a zero-padded ``(R, b, m, k)`` array of rows; the ``(b, k)``
    map ``cols`` into theta is shared. ``base`` is ``(R, b, m)`` and 0 on
    pad rows. ``target_vals`` and ``n_s`` hold a row and a size per member,
    and ``rows`` the flat position in the ``(R, b, m)`` stack of every
    member's rows in it, the members back to back. A pad row scores 0,
    below the positive score cap SolverOptions checks, and weighs 0.
    Moments and Gram matrices are scattered into theta with one
    ``bincount`` each, offset by member. Methods take theta as ``(R, d)``.
    """

    def __init__(self, E, base, cols, rows, target_vals, n_s, score_cap):
        self.E, self.base, self.cols, self.rows = E, base, cols, rows
        self.target = np.asarray(target_vals, dtype=float)
        self.n_s = np.asarray(n_s, dtype=float)
        self.batch, self.dim = self.target.shape
        self.cap = score_cap
        offsets = np.arange(self.batch)[:, None, None] * self.dim
        self._grad_at = (offsets + cols).ravel()
        self._hess_at = ((offsets[..., None] + cols[:, :, None]) * self.dim + cols[:, None, :]).ravel()

    @classmethod
    def gather(cls, designs, labels, cols, target_vals, score_cap, base=1.0):
        """The dual of each design of one batch over its labelled rows, n_s its
        whole sample: ``labels`` puts every row of the members, back to back, in
        a block (an arm or the whole sample, never empty) or in none (-1), and
        block b reads the first k columns of [H | G] at theta[cols[b]]. A row
        goes to its block's start, (r B + b) m for member r, plus its rank there
        by cumsums; one take fills E (row 0 of the batch is zero and pads the
        blocks) and the base (1 or one weight per row) is scattered alike."""
        if any(d.rows is not designs[0].rows for d in designs):
            raise ValidationError("the designs of one joint solve must be built in one batch")
        n, (B, k), kept = np.array([d.n for d in designs]), cols.shape, labels >= 0
        hit = labels == np.arange(B)[:, None]  # (b, N)
        seen = np.cumsum(hit, axis=1)  # each block's rows up to and with each row
        upto = seen[:, np.cumsum(n) - 1]  # (b, R): up to each member's last row
        count = np.diff(upto, axis=1, prepend=0).T
        if not count.all():
            raise ValidationError("both arms must be non-empty")
        m = int(count.max())
        start = (np.arange(0, count.size, B) + np.arange(B)[:, None]) * m - 1 - (upto - count.T)
        rows = ((np.repeat(start, n, axis=1) + seen) * hit).sum(axis=0)[kept]
        source = np.repeat(np.array([d.first for d in designs]) - (np.cumsum(n) - n), n) + np.arange(len(labels))
        at, weights = np.zeros(count.size * m, dtype=np.intp), np.zeros(count.size * m)
        at[rows], weights[rows] = source[kept], np.broadcast_to(base, labels.shape)[kept]
        E = np.take(designs[0].rows[:, :k], at, axis=0).reshape(*count.shape, m, k)
        return cls(E, weights.reshape(*count.shape, m), cols, rows, target_vals, n, score_cap)

    def scores(self, theta):
        return np.matmul(self.E, theta[:, self.cols][..., None])[..., 0]

    def tilt(self, theta):
        """The weights base * exp(E theta) per block, and each member's top score."""
        with np.errstate(over="ignore"):  # past the cap the weights are discarded
            s = self.scores(theta)
            top = s.reshape(self.batch, -1).max(axis=1)
            np.exp(s, out=s)
        s *= self.base
        return s, top

    def value_at(self, theta, w, top):
        """Objective at theta, given (w, top) = tilt(theta); +inf past the
        cap. Overflowed weights past the cap are the caller's to silence."""
        value = w.reshape(self.batch, -1).sum(axis=1) / self.n_s - _rowdot(theta, self.target)
        return np.where(top <= self.cap, value, np.inf)

    def value_grad_hess(self, theta, with_hess=True):
        """Value, gradient and Hessian at theta; a member past the score cap
        gets +inf and NaN rows, its overflowed weights never summed."""
        w, top = self.tilt(theta)
        past = top > self.cap
        w[past] = 0.0
        grad, hess = self.gradient(w), self.hessian(w) if with_hess else None
        grad[past] = np.nan
        if with_hess:
            hess[past] = np.nan
        return self.value_at(theta, w, top), grad, hess

    def gradient(self, w):
        """Gradient at theta, given w = tilt(theta)[0]."""
        moments = np.matmul(w[..., None, :], self.E)
        grad = np.bincount(self._grad_at, moments.ravel(), self.target.size).reshape(self.target.shape)
        grad /= self.n_s[:, None]
        grad -= self.target
        return grad

    def hessian(self, w):
        """Hessian at theta, given w = tilt(theta)[0]."""
        gram = np.matmul(self.E.swapaxes(-1, -2), self.E * w[..., None])
        hess = np.bincount(self._hess_at, gram.ravel(), self.target.size * self.dim)
        return hess.reshape(self.batch, self.dim, self.dim) / self.n_s[:, None, None]

    def in_source_order(self, w):
        """The members' weights from a tilt, back to back in source row order."""
        return w.reshape(-1)[self.rows]


def _rowdot(a, b):
    """Per-row dot products of (R, d) arrays, each as a[r] @ b[r] computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _JointDual(designs, targets, treateds, score_cap, with_g=True, extended=None, base=1.0):
    """The joint problem of each member as a two-block group dual: the
    treated rows over [H | G] and the control rows over [H | -G], with
    block columns (lambda1, gamma) and (lambda0, gamma) of theta =
    (lambda1, lambda0, gamma), ``base`` and target (hbar, hbar, 0); G is
    dropped when ``with_g`` is false. The rows are gathered with the arm
    as block label, and the control G columns are negated once, here, or
    taken from the ``extended`` problem of the same members (ebal copies H)."""
    kh, kg = designs[0].h.shape[1], designs[0].g.shape[1] if with_g else 0
    if [len(t) for t in treateds] != [d.n for d in designs]:
        raise ValidationError("treated mask misaligned with design rows")
    cols = np.hstack([np.arange(2 * kh).reshape(2, kh), np.tile(np.arange(2 * kh, 2 * kh + kg), (2, 1))])
    hbar = np.array([t.values for t in targets])
    target = np.hstack([hbar, hbar, np.zeros((len(designs), kg))])
    if extended is not None:
        return _GroupDual(np.ascontiguousarray(extended.E[..., :kh + kg]), extended.base, cols, extended.rows,
                          target, extended.n_s, score_cap)
    arm = np.where(np.concatenate(treateds), 0, 1)  # block 0 treated, block 1 control
    problem = _GroupDual.gather(designs, arm, cols, target, score_cap, base)
    problem.E[:, 1, :, kh:] *= -1.0
    return problem


def dual_objective(lambda1, lambda0, gamma, design, target, treated, score_cap=30.0):
    """Value, gradient and Hessian of the joint dual at the given parameters.

    The gradient components are exactly the balance residuals: treated-arm
    H block, control-arm H block, then the G gap. If any linear score
    exceeds ``score_cap`` the value is +inf and gradient/Hessian are NaN.
    """
    problem = _JointDual([design], [target], [treated], SolverOptions(score_cap=score_cap).score_cap)
    theta = np.concatenate([np.asarray(v, dtype=float) for v in (lambda1, lambda0, gamma)])
    if theta.shape[0] != problem.dim:
        raise ValidationError("dual parameter dimensions do not match the design")
    (val,), (grad,), (hess,) = problem.value_grad_hess(theta[None])
    return float(val), grad, hess


def _normalize_arms(w, treated, sizes):
    """Weights of members back to back, ``sizes`` rows each, each arm of a
    member scaled to sum to its size (its whole sample if all are treated)."""
    sizes, w1 = np.asarray(sizes), w * treated
    at = np.cumsum(sizes) - sizes
    with np.errstate(divide="ignore"):  # an arm with no rows is never scaled
        s1, s0 = sizes / np.add.reduceat(w1, at), sizes / np.add.reduceat(w - w1, at)
    return w * np.where(treated, np.repeat(s1, sizes), np.repeat(s0, sizes))


def _newton_directions(hess, grad, active, identity):
    """Each active member's Newton direction, or its gradient direction when
    the Hessian is singular or the step does not descend by a finite slope
    (a huge step's slope overflows); zero for others, which solve the
    identity system for a zero gradient. Overflows are the caller's to
    silence."""
    grad = np.where(active[:, None], grad, 0.0)
    step = solve_each(np.where(active[:, None, None], hess, identity), grad)
    descent = _rowdot(grad, step)  # not finite when any step entry is not
    return -np.where((np.isfinite(descent) & (descent > 0))[:, None], step, grad)


def _solve_dual(problem, what, opts, make_solution, arms=None):
    """Damped Newton from zero for every member of a batch, shared by every
    exponential-tilt solve. Returns, per member, ``make_solution(theta,
    **diagnostics)`` or its error, and the tilt at the final iterates of
    the members that did not fail.

    At zero the dual Hessian is the base-weighted Gram matrix of the
    design, so its eigenvalues are the rank check: eigenvalues at or
    below ``dim * eps * max`` count as zero, and a deficient member gets a
    RankDeficiencyError. Each step is the Newton direction, or the
    gradient direction when the Hessian solve fails or does not descend,
    shortened by the member's own Armijo backtracking. A member is frozen
    once it converges, stalls or runs out of iterations; one that stalls,
    runs out of iterations or sits at the score cap gets a
    NonConvergenceError, which stops no other member. Given block labels
    ``arms``, one that converges with a weight underflowed to 0 gets a
    WeightUnderflowError counting each block's rows scoring below log(tiny).
    """
    R, d = problem.batch, problem.dim
    theta = np.zeros((R, d))
    w, top = problem.tilt(theta)
    val = problem.value_at(theta, w, top)
    grad, hess = problem.gradient(w), problem.hessian(w)
    eig = np.linalg.eigvalsh(hess)
    rank = (eig > d * np.finfo(float).eps * eig[:, -1:]).sum(axis=1)
    active = rank == d
    iterations = np.zeros(R, dtype=int)
    identity = np.eye(d)
    # A huge step may overflow its slope, its candidate or that candidate's
    # value; each is caught by a finiteness test. An active member has
    # stepped in every round, so it runs out of iterations when the rounds do.
    with np.errstate(over="ignore", invalid="ignore"):
        for rounds in range(opts.max_iter + 1):
            grad_norm = np.abs(grad).max(axis=1)
            active &= grad_norm > opts.tol
            if rounds == opts.max_iter or not np.count_nonzero(active):
                break
            if hess is None:  # taken only when another step follows
                hess = problem.hessian(w)
            direction = _newton_directions(hess, grad, active, identity)
            slope = _rowdot(grad, direction)
            # Absolute slack keeps the sufficient-decrease test meaningful when
            # improvements fall below floating-point resolution of the value.
            floor = 1e-14 * (1.0 + np.abs(val))
            t = np.ones(R)
            stalled = active.copy()
            for _ in range(_MAX_BACKTRACKS):
                # a frozen member has a zero direction, so its candidate is theta
                cand = theta + t[:, None] * direction
                w, top = problem.tilt(cand)
                cval = problem.value_at(cand, w, top)
                stalled &= ~(np.isfinite(cval) & (cval <= val + ARMIJO_SLOPE * t * slope + floor))
                if not np.count_nonzero(stalled):
                    break
                t[stalled] *= ARMIJO_FACTOR
            # the accepted candidates' tilts and values are reused, not
            # recomputed; a stalled member, which no step decreases enough,
            # keeps its iterate (its tilt is of its last rejected candidate)
            theta = np.where(stalled[:, None], theta, cand)
            val = np.where(stalled, val, cval)
            grad = np.where(stalled[:, None], grad, problem.gradient(w))
            active &= ~stalled
            hess = None
            iterations += active
        # a diverged member's scores may overflow; they only count rows
        zeros = ((w == 0) & (problem.base > 0)).any(axis=(1, 2)) if arms else np.zeros(R, dtype=bool)
        if zeros.any():
            low = ((problem.scores(theta) < np.log(np.finfo(float).tiny)) & (problem.base > 0)).sum(axis=2)
    outcomes = []
    for r, e in enumerate(eig):
        if rank[r] < d:
            cond = np.sqrt(e[-1] / e[0]) if e[0] > 0 else np.inf
            outcomes.append(RankDeficiencyError(
                f"{what} is rank deficient: rank {rank[r]} < {d} columns "
                f"(condition number {cond:.3g})"
            ))
            continue
        solution = make_solution(
            theta[r], iterations=int(iterations[r]), grad_norm=float(grad_norm[r]),
            converged=bool(grad_norm[r] <= opts.tol and top[r] < problem.cap),
            objective=float(val[r]),
        )
        if solution.converged and not zeros[r]:
            outcomes.append(solution)
            continue
        error, message = (NonConvergenceError, (
            f"dual solve over {what} stalled after {iterations[r]} iterations "
            f"(residual sup-norm {grad_norm[r]:.3g}); the target may be "
            "infeasible or overlap too weak"
        )) if not solution.converged else (WeightUnderflowError, (
            f"dual solve over {what} converged, but weights underflowed to 0: "
            + ", ".join(f"{k} rows of the {arm}" for k, arm in zip(low[r], arms) if k)
            + f" score below the log of the smallest normal float ({np.log(np.finfo(float).tiny):.1f})"
        ))
        outcomes.append(error(message, solution=solution, residuals=grad[r]))
    return outcomes, w


def _joint_weights(method, designs, targets, treateds, options=None, extended=None, base=1.0):
    """The extended (or, dropping G, the ebal) solve of each member over
    base weights ``base`` (1 or one per row): DualSolution or its error, and
    the members' weights back to back in source order; ``extended`` lends
    its rows as _JointDual says."""
    opts = options or SolverOptions()
    problem = _JointDual(designs, targets, treateds, opts.score_cap, method is not Method.EBAL, extended, base)
    kh = designs[0].h.shape[1]
    what = "block design [H 1{A=1} | H 1{A=0}" + (" | +-G]" if problem.dim > 2 * kh else "]")
    outcomes, w = _solve_dual(
        problem, what, opts,
        lambda theta, **diag: DualSolution(theta[:kh], theta[kh:2 * kh], theta[2 * kh:], **diag),
        ("treated arm", "control arm"),
    )
    return outcomes, problem.in_source_order(w)


def _weight_set(w, treated, method, normalize):
    """One data set's weights as a WeightSet; with ``normalize``, each arm
    of ``treated`` sums to the sample size."""
    t = np.asarray(treated, dtype=bool)
    return WeightSet(_normalize_arms(w, t, [len(w)]) if normalize else w, method, normalize)


def solve_extended(design, target, treated, options=None, normalize=False):
    """Weights balancing H per arm to the target and G across arms."""
    (solution,), w = _joint_weights(Method.EXTENDED, [design], [target], [treated], options)
    return _one(solution), _weight_set(w, treated, Method.EXTENDED, normalize)


def solve_ebal(design, target, treated, options=None, normalize=False):
    """H-only special case: drop the G columns and balance per arm."""
    (solution,), w = _joint_weights(Method.EBAL, [design], [target], [treated], options)
    return _one(solution), _weight_set(w, treated, Method.EBAL, normalize)


def _calibrate_groups(designs, labels, base, target_vals, opts, what):
    """Each member's calibration of its rows labelled 0 on H, CalibrationSolution
    or its error, and those rows' weights back to back in source order."""
    cols = np.arange(designs[0].h.shape[1])[None]
    problem = _GroupDual.gather(designs, labels, cols, target_vals, opts.score_cap, base)
    outcomes, w = _solve_dual(problem, what, opts, CalibrationSolution, (what,))
    return outcomes, problem.in_source_order(w)


def _et_weights(designs, targets, options=None):
    """_calibrate_groups of each member's whole sample to its target."""
    return _calibrate_groups(designs, np.zeros(sum(d.n for d in designs), dtype=int), 1.0,
                             [t.values for t in targets], options or SolverOptions(), "H design")


def solve_et_calibration(design, target, options=None, normalize=False):
    """Whole-sample exponential-tilting calibration of H means to the target.

    Ignores treatment arms: the weighted source means of every H term are
    pushed onto the target summary; every row is one arm for ``normalize``.
    """
    (solution,), w = _et_weights([design], [target], options)
    return _one(solution), _weight_set(w, np.ones(design.n), Method.ET, normalize)


def solve_two_step(design, target, treated, options=None, normalize=False):
    """Shift-then-balance calibration: tilt the whole sample to the target,
    then re-balance each arm relative to that tilt.

    The first step's weights q are ``solve_et_calibration``'s. The second
    step minimizes sum(w log(w / q)) per arm: ebal's two-arm dual over base
    weights q, in one solve. Its constraint right-hand
    sides are the q-weighted source averages, which at the exact
    first-step solution coincide with the target summary; they are
    anchored at the target here so the identity is exact rather than
    holding only to solver tolerance.
    """
    opts = options or SolverOptions()
    q = solve_et_calibration(design, target, opts)[1].w
    (solution,), w = _joint_weights(Method.EBAL, [design], [target], [treated], opts, base=q)
    _one(solution)
    return _weight_set(w, treated, Method.TWO_STEP, normalize)


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
    w = np.full(design.n, design.n / t.sum())
    (solution,), w[~t] = _calibrate_groups([design], np.where(t, -1, 0), 1.0, [design.h[t].mean(axis=0)],
                                           opts, "control arm")
    _one(solution)
    return _weight_set(w, t, Method.ATT, normalize)
