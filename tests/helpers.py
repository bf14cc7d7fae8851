"""Shared test utilities: instance generation and independent oracles.

The primal oracle solves the same balance problems as the package's dual
Newton solver but through scipy's generic constrained interior-point
method, so dual/primal agreement is a real cross-check.
"""

import zlib

import numpy as np
from scipy.optimize import LinearConstraint, minimize

from genbal import (
    BasisSpec,
    SourceSample,
    align_target_summary,
    evaluate_basis,
)


def random_instance(rng, n_s=60, k_h=2, k_g=1, spread=0.1, ensure_feasible=True):
    """Random feasible balance instance.

    Covariates are iid normal in both arms, so a softly reweighted pooled
    mean is interior to both arms' convex hulls with high probability;
    with ``ensure_feasible`` the draw is retried until the joint solve
    converges (relevant only for very small instances).
    """
    from genbal import solve_extended
    from genbal.errors import NonConvergenceError

    for _ in range(50):
        p = max(k_h + k_g, 1)
        X = rng.normal(size=(n_s, p))
        n1 = int(rng.integers(max(2, n_s // 4), n_s - max(2, n_s // 4)))
        A = np.zeros(n_s, dtype=int)
        A[rng.permutation(n_s)[:n1]] = 1
        Y = rng.normal(size=n_s)
        sample = SourceSample(X, A, Y)
        h = ["const"] + [f"x{i + 1}" for i in range(k_h)]
        g = [f"x{i + 1}" for i in range(k_h, k_h + k_g)]
        spec = BasisSpec.from_names(h, g)
        design = evaluate_basis(spec, sample)
        u = np.exp(spread * rng.standard_normal(n_s))
        raw_h = spec.evaluate_h(sample.X)
        raw_target = raw_h.T @ u / u.sum()
        raw_target[0] = 1.0
        target = align_target_summary(spec, raw_target, design)
        if ensure_feasible:
            try:
                solve_extended(design, target, sample.treated)
            except NonConvergenceError:
                continue
        return sample, spec, design, target, raw_target
    raise AssertionError("could not generate a feasible instance")


def primal_constraint_system(design, target, treated):
    """Linear constraint matrix/rhs of the joint balance problem."""
    t = np.asarray(treated, dtype=bool)
    n = design.n
    rows, rhs = [], []
    for k in range(design.h.shape[1]):
        rows.append(np.where(t, design.h[:, k], 0.0) / n)
        rhs.append(target.values[k])
        rows.append(np.where(~t, design.h[:, k], 0.0) / n)
        rhs.append(target.values[k])
    for k in range(design.g.shape[1]):
        rows.append(np.where(t, design.g[:, k], -design.g[:, k]) / n)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def primal_entropy_weights(constraint_matrix, rhs, n, start=None):
    """Generic interior-point solve of min sum w log w s.t. Aw = b, w > 0."""

    def f(w):
        return float(np.sum(w * np.log(w)))

    def jac(w):
        return np.log(w) + 1.0

    def hess(w):
        return np.diag(1.0 / w)

    res = minimize(
        f,
        np.ones(n) if start is None else start,
        jac=jac,
        hess=hess,
        method="trust-constr",
        constraints=[LinearConstraint(constraint_matrix, rhs, rhs)],
        bounds=[(1e-12, None)] * n,
        options={"xtol": 1e-14, "gtol": 1e-14, "maxiter": 5000},
    )
    assert res.constr_violation < 1e-9, f"primal oracle infeasible: {res.constr_violation}"
    return res.x


def primal_joint_weights(design, target, treated):
    a, b = primal_constraint_system(design, target, treated)
    return primal_entropy_weights(a, b, design.n)


def primal_group_weights(F, target_vals, n_s):
    """Primal oracle for one-group calibration: (1/n_s) F'w = target."""
    a = F.T / n_s
    return primal_entropy_weights(a, np.asarray(target_vals, dtype=float), F.shape[0])


def unit_first_step_weights(design, target, treated):
    """Two-step's second step with a unit first step: each arm calibrated
    alone, on unit base weights, to the target, as ``solve_two_step`` does."""
    from genbal import SolverOptions
    from genbal.errors import _one
    from genbal.solver import _calibrate_groups

    t = np.asarray(treated, dtype=bool)
    w = np.empty(design.n)
    for arm, label in ((t, "treated arm"), (~t, "control arm")):
        (solution,), w[arm] = _calibrate_groups(
            [design], np.where(arm, 0, -1), 1.0, [target.values], SolverOptions(), label
        )
        _one(solution)
    return w


def finite_difference_gradient(fun, theta, step=1e-5):
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        g[i] = (fun(theta + e) - fun(theta - e)) / (2.0 * step)
    return g


def finite_difference_hessian(grad_fun, theta, step=1e-5):
    d = theta.size
    h = np.empty((d, d))
    for j in range(d):
        e = np.zeros_like(theta)
        e[j] = step
        h[:, j] = (grad_fun(theta + e) - grad_fun(theta - e)) / (2.0 * step)
    return h


def reference_draw(config, rep, tries=100):
    """Replicate ``rep`` of ``config`` drawn alone, one generator call after
    another as the simulation module documents it: (X, A, Y of the source
    rows, target rows, their H means, redraws), or why the last of
    ``tries`` tries was degenerate. An oracle for the batched draw."""
    from genbal.mathutil import sigmoid

    key = zlib.crc32(config.name.encode("utf-8"))
    for retry in range(tries):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, key, rep, retry)))
        X = rng.uniform(config.low, config.high, size=(config.n, config.p))
        in_source = rng.random(config.n) < sigmoid(config.participation_logit(X))
        Xs, Xt = X[in_source], X[~in_source]
        if len(Xs) < 2 or len(Xt) < 1:
            reason = "fewer than 2 source rows" if len(Xs) < 2 else "no target rows"
            continue
        A = (rng.random(len(Xs)) < sigmoid(config.propensity_logit(Xs))).astype(int)
        if A.sum() in (0, len(Xs)):
            reason = "an empty arm"
            continue
        eps = config.noise_sd * rng.standard_normal(len(Xs))
        Y = config.baseline(Xs) + (A - 0.5) * config.cate(Xs) + eps
        return Xs, A, Y, Xt, config.basis().evaluate_h(Xt).mean(axis=0), retry
    return reason
