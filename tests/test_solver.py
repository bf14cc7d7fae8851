"""Dual solver: objective correctness, special cases, oracle equivalences."""

import re

import numpy as np
import pytest

import genbal as gb
from genbal.errors import NonConvergenceError, RankDeficiencyError
from genbal.solver import _GroupDual, _JointDual, _newton_directions, _rowdot

from helpers import (
    finite_difference_gradient,
    finite_difference_hessian,
    primal_group_weights,
    primal_joint_weights,
    random_instance,
    unit_first_step_weights,
)


def test_dual_objective_zero_parameters_is_one():
    rng = np.random.default_rng(0)
    sample, spec, design, target, _ = random_instance(rng, n_s=30, k_h=2, k_g=1)
    kh = design.h.shape[1]
    value, grad, hess = gb.dual_objective(
        np.zeros(kh), np.zeros(kh), np.zeros(1), design, target, sample.treated
    )
    assert value == pytest.approx(1.0)
    assert grad.shape == (2 * kh + 1,)
    assert hess.shape == (2 * kh + 1, 2 * kh + 1)


def test_gradient_vanishes_at_solution():
    rng = np.random.default_rng(1)
    sample, spec, design, target, _ = random_instance(rng, n_s=80, k_h=3, k_g=2)
    sol, ws = gb.solve_extended(design, target, sample.treated)
    value, grad, _ = gb.dual_objective(
        sol.lambda1, sol.lambda0, sol.gamma, design, target, sample.treated
    )
    assert np.abs(grad).max() <= 1e-10


def test_gradient_matches_finite_differences_on_ten_rows():
    rng = np.random.default_rng(2)
    sample, spec, design, target, _ = random_instance(rng, n_s=10, k_h=2, k_g=1)
    problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
    theta = 0.3 * rng.standard_normal(problem.dim)
    _, (grad,), (hess,) = problem.value_grad_hess(theta[None])
    fd_grad = finite_difference_gradient(
        lambda th: problem.value_grad_hess(th[None], with_hess=False)[0][0], theta
    )
    np.testing.assert_allclose(grad, fd_grad, atol=1e-6)
    fd_hess = finite_difference_hessian(
        lambda th: problem.value_grad_hess(th[None], with_hess=False)[1][0], theta
    )
    np.testing.assert_allclose(hess, fd_hess, atol=1e-6)


def test_gradient_equals_balance_residuals_exactly():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sample, spec, design, target, _ = random_instance(rng, n_s=40, k_h=2, k_g=2)
        problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
        theta = 0.2 * rng.standard_normal(problem.dim)
        _, (grad,), _ = problem.value_grad_hess(theta[None])
        w = problem.in_source_order(problem.tilt(theta[None])[0])
        res = gb.balance_residuals(design, target, sample.treated, w)
        np.testing.assert_allclose(grad, res.stacked(), atol=1e-12)


def test_hessian_positive_semidefinite_at_random_points():
    rng = np.random.default_rng(4)
    for _ in range(5):
        sample, spec, design, target, _ = random_instance(rng, n_s=35, k_h=2, k_g=1)
        problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
        theta = 0.4 * rng.standard_normal(problem.dim)
        _, _, (hess,) = problem.value_grad_hess(theta[None])
        assert np.linalg.eigvalsh(hess).min() >= -1e-10


def test_constant_only_gives_uniform_per_arm_weights():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 1))
    A = np.array([1] * 5 + [0] * 7)
    sample = gb.SourceSample(X, A, np.zeros(12))
    spec = gb.BasisSpec.from_names(["const"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0], design)
    _, ws = gb.solve_extended(design, target, sample.treated)
    np.testing.assert_allclose(ws.w[sample.s1], 12 / 5, atol=1e-10)
    np.testing.assert_allclose(ws.w[sample.s0], 12 / 7, atol=1e-10)


def test_small_instance_matches_primal_oracle():
    # 6 rows, H = (1, x1), G = (x2)
    rng = np.random.default_rng(6)
    sample, spec, design, target, _ = random_instance(rng, n_s=6, k_h=1, k_g=1)
    _, ws = gb.solve_extended(design, target, sample.treated)
    oracle = primal_joint_weights(design, target, sample.treated)
    assert np.abs(ws.w - oracle).max() <= 1e-6


def test_infeasible_target_raises_with_diagnostics():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    A = np.array([1] * 20 + [0] * 20)
    sample = gb.SourceSample(X, A, np.zeros(40))
    spec = gb.BasisSpec.from_names(["const", "x1"], ["x2"])
    design = gb.evaluate_basis(spec, sample)
    raw = np.array([1.0, X[:, 0].max() + 5.0])  # beyond every observed value
    target = gb.align_target_summary(spec, raw, design)
    with pytest.raises(NonConvergenceError) as err:
        gb.solve_extended(design, target, sample.treated)
    assert err.value.solution is not None
    assert not err.value.solution.converged
    # objective decreased monotonically from its value 1 at zero parameters
    assert err.value.solution.objective < 1.0
    assert err.value.residuals is not None


def test_rank_deficient_design_rejected():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    sample = gb.SourceSample(
        np.column_stack([X, X[:, 0]]), np.array([1] * 15 + [0] * 15), np.zeros(30)
    )
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0, 0.0, 0.0], design)
    with pytest.raises(RankDeficiencyError):
        gb.solve_extended(design, target, sample.treated)


@pytest.mark.parametrize(
    "solve, message",
    [
        (gb.solve_extended, "block design [H 1{A=1} | H 1{A=0} | +-G] is rank deficient: "
         "rank 6 < 7 columns"),
        (gb.solve_ebal, "block design [H 1{A=1} | H 1{A=0}] is rank deficient: "
         "rank 5 < 6 columns"),
    ],
    ids=["extended", "ebal"],
)
def test_design_collinear_within_one_arm_rejected(solve, message):
    # x2 == x1 on the treated rows only: the pooled [H|G] has full rank,
    # but the treated block of the joint design does not
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    A = np.array([1] * 20 + [0] * 20)
    X[A == 1, 1] = X[A == 1, 0]
    sample = gb.SourceSample(X, A, np.zeros(40))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])
    design = gb.evaluate_basis(spec, sample)
    assert not gb.check_design_rank(design).deficient
    target = gb.align_target_summary(spec, [1.0, 0.0, 0.0], design)
    with pytest.raises(RankDeficiencyError, match=re.escape(message)):
        solve(design, target, sample.treated)


def test_ebal_equals_extended_with_empty_g():
    rng = np.random.default_rng(9)
    sample, spec, design, target, raw_target = random_instance(rng, n_s=45, k_h=3, k_g=2)
    h_spec = spec.h_only()
    h_design = gb.evaluate_basis(h_spec, sample)
    h_target = gb.align_target_summary(h_spec, raw_target, h_design)
    sol_a, ws_a = gb.solve_ebal(design, target, sample.treated)
    sol_b, ws_b = gb.solve_extended(h_design, h_target, sample.treated)
    np.testing.assert_allclose(ws_a.w, ws_b.w, atol=1e-12)


def test_ebal_constant_only_uniform():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(9, 1))
    sample = gb.SourceSample(X, np.array([1] * 4 + [0] * 5), np.zeros(9))
    spec = gb.BasisSpec.from_names(["const"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0], design)
    _, ws = gb.solve_ebal(design, target, sample.treated)
    np.testing.assert_allclose(ws.w[sample.s1], 9 / 4, atol=1e-10)
    np.testing.assert_allclose(ws.w[sample.s0], 9 / 5, atol=1e-10)


def test_et_calibration_no_op_when_target_equals_source_means():
    rng = np.random.default_rng(11)
    sample, spec, design, _, _ = random_instance(rng, n_s=40, k_h=2, k_g=1)
    raw = spec.evaluate_h(sample.X).mean(axis=0)
    raw[0] = 1.0
    target = gb.align_target_summary(spec, raw, design)
    _, qs = gb.solve_et_calibration(design, target)
    np.testing.assert_allclose(qs.w, 1.0, atol=1e-9)


def test_et_calibration_constant_only_is_identity():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(14, 1))
    sample = gb.SourceSample(X, np.array([1] * 7 + [0] * 7), np.zeros(14))
    spec = gb.BasisSpec.from_names(["const"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0], design)
    _, qs = gb.solve_et_calibration(design, target)
    np.testing.assert_allclose(qs.w, 1.0, atol=1e-12)


def test_et_calibration_matches_primal_oracle_eight_rows():
    rng = np.random.default_rng(13)
    sample, spec, design, target, _ = random_instance(rng, n_s=8, k_h=2, k_g=0)
    _, qs = gb.solve_et_calibration(design, target)
    oracle = primal_group_weights(design.h, target.values, design.n)
    assert np.abs(qs.w - oracle).max() <= 1e-6


def test_two_step_equals_one_step():
    rng = np.random.default_rng(14)
    for _ in range(10):
        sample, spec, design, target, _ = random_instance(rng, n_s=50, k_h=2, k_g=1)
        ws_two = gb.solve_two_step(design, target, sample.treated)
        _, ws_one = gb.solve_ebal(design, target, sample.treated)
        assert np.abs(ws_two.w - ws_one.w).max() <= 1e-6


def test_two_step_near_uniform_when_target_is_source_and_arms_balanced():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(400, 2))
    A = np.array([1, 0] * 200)
    sample = gb.SourceSample(X, A, np.zeros(400))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"])
    design = gb.evaluate_basis(spec, sample)
    raw = spec.evaluate_h(sample.X).mean(axis=0)
    raw[0] = 1.0
    target = gb.align_target_summary(spec, raw, design)
    ws = gb.solve_two_step(design, target, sample.treated)
    assert np.abs(ws.w - 2.0).max() < 0.5  # near 2 = n_s / arm size


def test_two_step_with_unit_q_reduces_to_one_step():
    rng = np.random.default_rng(16)
    sample, spec, design, target, _ = random_instance(rng, n_s=30, k_h=2, k_g=1)
    w_forced = unit_first_step_weights(design, target, sample.treated)
    _, ws_one = gb.solve_ebal(design, target, sample.treated)
    np.testing.assert_allclose(w_forced, ws_one.w, atol=1e-9)


def test_att_uniform_when_arms_identical():
    X = np.tile(np.array([[0.5], [1.5], [-1.0]]), (2, 1))
    A = np.array([1, 1, 1, 0, 0, 0])
    sample = gb.SourceSample(X, A, np.zeros(6))
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    ws = gb.solve_att(design, sample.treated)
    np.testing.assert_allclose(ws.w[sample.s0], 2.0, atol=1e-10)


def test_att_two_point_closed_form():
    # controls at 0 and 2, treated mean 1, n_s = 4: both control weights are 2
    X = np.array([[1.0], [1.0], [0.0], [2.0]])
    sample = gb.SourceSample(X, np.array([1, 1, 0, 0]), np.zeros(4))
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    ws = gb.solve_att(design, sample.treated)
    np.testing.assert_allclose(ws.w[sample.s0], [2.0, 2.0], atol=1e-10)


def test_att_balances_treated_means():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 3))
    A = (rng.random(60) < 0.4).astype(int)
    if A.sum() in (0, 60):
        A[:2] = [0, 1]
    sample = gb.SourceSample(X, A, np.zeros(60))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"])
    design = gb.evaluate_basis(spec, sample)
    ws = gb.solve_att(design, sample.treated)
    t = sample.treated
    weighted_control = design.h[~t].T @ ws.w[~t] / sample.n_s
    treated_mean = design.h[t].mean(axis=0)
    np.testing.assert_allclose(weighted_control, treated_mean, atol=1e-8)


def test_balance_residuals_within_tolerance_at_convergence():
    rng = np.random.default_rng(18)
    for _ in range(5):
        sample, spec, design, target, _ = random_instance(rng, n_s=70, k_h=3, k_g=2)
        weight_sets = [
            gb.solve_extended(design, target, sample.treated)[1],
            gb.solve_ebal(design, target, sample.treated)[1],
            gb.solve_two_step(design, target, sample.treated),
        ]
        for ws in weight_sets:
            res = gb.balance_residuals(design, target, sample.treated, ws.w)
            assert np.abs(res.h_treated).max() <= 1e-8
            assert np.abs(res.h_control).max() <= 1e-8
            if ws.method is gb.Method.EXTENDED:
                assert np.abs(res.g_gap).max() <= 1e-8


def test_weights_reparameterization_invariance():
    rng = np.random.default_rng(19)
    for _ in range(5):
        # each covariate mapped to a x + b, a of either sign, |b| up to 1e4, the target means alike
        sample, spec, design, target, raw_target = random_instance(rng, n_s=60, k_h=2, k_g=2)
        a = rng.uniform(0.1, 10.0, 4) * rng.choice([-1.0, 1.0], 4)
        b = rng.uniform(-1e4, 1e4, 4)
        moved = gb.evaluate_basis(spec, gb.SourceSample(sample.X * a + b, sample.A, sample.Y))
        moved_target = gb.align_target_summary(spec, np.r_[1.0, raw_target[1:] * a[:2] + b[:2]], moved)
        _, ws = gb.solve_extended(design, target, sample.treated)
        _, ws_moved = gb.solve_extended(moved, moved_target, sample.treated)
        assert np.abs(ws.w - ws_moved.w).max() <= 1e-10


def test_tilting_structure_reconstructs_from_raw_parameters():
    # log-weights live in span{H, G} with opposite G coefficients per arm
    rng = np.random.default_rng(20)
    sample, spec, design, target, _ = random_instance(rng, n_s=55, k_h=2, k_g=2)
    sol, ws = gb.solve_extended(design, target, sample.treated)
    l1, l0, g = sol.unstandardized(design)
    raw_h = spec.evaluate_h(sample.X)
    raw_g = spec.evaluate_g(sample.X)
    t = sample.treated
    log_w = np.log(ws.w)
    np.testing.assert_allclose(log_w[t], raw_h[t] @ l1 + raw_g[t] @ g, atol=1e-10)
    np.testing.assert_allclose(log_w[~t], raw_h[~t] @ l0 - raw_g[~t] @ g, atol=1e-10)


def test_calibration_raw_coefficients_reproduce_the_et_weights():
    rng = np.random.default_rng(22)
    sample, spec, design, target, _ = random_instance(rng, n_s=55, k_h=3, k_g=1)
    sol, ws = gb.solve_et_calibration(design, target)
    w = np.exp(spec.evaluate_h(sample.X) @ sol.unstandardized(design))
    np.testing.assert_allclose(w, ws.w, rtol=1e-12, atol=0)


def test_normalization_rescales_arm_sums():
    rng = np.random.default_rng(21)
    sample, spec, design, target, _ = random_instance(rng, n_s=48, k_h=2, k_g=1)
    _, ws = gb.solve_extended(design, target, sample.treated, normalize=True)
    t = sample.treated
    assert ws.w[t].sum() == pytest.approx(sample.n_s)
    assert ws.w[~t].sum() == pytest.approx(sample.n_s)
    assert ws.normalized


def test_weightset_rejects_nonpositive():
    with pytest.raises(Exception):
        gb.WeightSet(np.array([1.0, 0.0]), gb.Method.EXTENDED, False)


def test_newton_step_reuses_the_accepted_candidates_tilt(monkeypatch):
    # this instance takes a full Newton step every iteration, so the loop
    # tilts once at zero and once per accepted candidate, never again to
    # get the gradient and Hessian there
    rng = np.random.default_rng(1)
    sample, spec, design, target, _ = random_instance(rng, n_s=200, k_h=2, k_g=1)
    calls = []
    real = _GroupDual.tilt

    def counted(self, beta):
        calls.append(1)
        return real(self, beta)

    monkeypatch.setattr(_GroupDual, "tilt", counted)
    solution, _ = gb.solve_extended(design, target, sample.treated)
    assert solution.iterations == 6
    assert len(calls) == solution.iterations + 1


@pytest.mark.parametrize("field, value", [
    ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")), ("tol", float("inf")),
    ("max_iter", -1), ("max_iter", 2.5), ("max_iter", True),
    ("score_cap", -1.0), ("score_cap", 0.0), ("score_cap", float("nan")),
])
def test_solver_options_reject_invalid_values(field, value):
    with pytest.raises(gb.errors.ValidationError, match=f"SolverOptions.{field}"):
        gb.SolverOptions(**{field: value})


def test_dual_objective_rejects_a_nonpositive_score_cap():
    # with unequal arms the joint dual has zero-score pad rows
    rng = np.random.default_rng(9)
    sample, spec, design, target, _ = random_instance(rng, n_s=30, k_h=2, k_g=1)
    kh = design.h.shape[1]
    with pytest.raises(gb.errors.ValidationError, match="score_cap"):
        gb.dual_objective(np.zeros(kh), np.zeros(kh), np.zeros(1), design, target,
                          sample.treated, score_cap=0.0)


def test_dual_objective_past_exp_overflow_is_inf_and_nan_without_warnings():
    # scores past 709 overflow exp; the value is +inf and the derivatives
    # NaN, and no RuntimeWarning (an error under the test settings) leaks
    rng = np.random.default_rng(3)
    sample, spec, design, target, _ = random_instance(rng, n_s=40, k_h=3, k_g=1)
    kh = design.h.shape[1]
    lam = np.full(kh, 1e3)
    value, grad, hess = gb.dual_objective(lam, -lam, np.full(1, 1e3), design, target, sample.treated)
    assert value == np.inf
    assert grad.shape == (2 * kh + 1,) and np.isnan(grad).all()
    assert hess.shape == (2 * kh + 1, 2 * kh + 1) and np.isnan(hess).all()


def test_rowdot_equals_each_rows_own_dot_bit_for_bit():
    rng = np.random.default_rng(4)
    for R, d in ((1, 1), (1, 7), (3, 4), (20, 9), (6, 16)):
        a = rng.normal(size=(R, d)) * 10.0 ** rng.integers(-6, 6, size=(R, 1))
        b = rng.normal(size=(R, d))
        assert np.array_equal(_rowdot(a, b), [a[r] @ b[r] for r in range(R)])


def test_a_newton_step_whose_slope_overflows_falls_back_to_the_gradient():
    # the step (1e300, 1e300) is finite, but its dot with the gradient is not
    grad = np.array([[1e10, 1e10], [1.0, 2.0]])
    hess = np.array([np.eye(2) * 1e-290, np.eye(2) * 2.0])
    with np.errstate(over="ignore"):
        direction = _newton_directions(hess, grad, np.array([True, True]), np.eye(2))
    assert np.array_equal(direction, [[-1e10, -1e10], [-0.5, -1.0]])
    # a frozen member gets a zero direction
    direction = _newton_directions(np.eye(2)[None], grad[1:], np.array([False]), np.eye(2))
    assert np.array_equal(direction, [[0.0, 0.0]])


def test_solver_options_allow_an_infinite_score_cap_and_zero_iterations():
    opts = gb.SolverOptions(score_cap=float("inf"), max_iter=0)
    assert opts.score_cap == float("inf") and opts.max_iter == 0


def test_joint_problem_stores_no_block_design_wide_array():
    # the joint dual holds per-arm [H | +-G] rows, never the
    # n x (2 k_h + k_g) block design with its zero half
    rng = np.random.default_rng(8)
    sample, spec, design, target, _ = random_instance(rng, n_s=50, k_h=3, k_g=2)
    problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
    kh, kg = design.h.shape[1], design.g.shape[1]
    assert problem.dim == 2 * kh + kg
    arrays = [v for v in vars(problem).values() if isinstance(v, np.ndarray) and v is not problem.target]
    assert arrays
    for a in arrays:
        assert a.ndim < 2 or a.shape[-1] != 2 * kh + kg, a.shape
    assert problem.target.shape == (1, 2 * kh + kg)
    assert problem.E.shape == (1, 2, max(sample.s1.size, sample.s0.size), kh + kg)


def _underflow_instance():
    """Scores of a converged solve reach -1e6 on rows with x1 far below
    the target's tilt, so their weights are exactly 0."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-50, 50, size=(200, 3))
    A = (rng.random(200) < 0.5).astype(int)
    sample = gb.SourceSample(X, A, rng.normal(size=200))
    return sample, gb.BasisSpec.from_names(["const", "expclip(x1)"]), [1.0, 1e5]


@pytest.mark.parametrize("method", ["extended", "ebal"])
def test_converged_solve_with_underflowed_weights_names_each_arm_and_count(method):
    sample, spec, raw = _underflow_instance()
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, raw, design)
    solve = gb.solve_extended if method == "extended" else gb.solve_ebal
    with pytest.raises(gb.WeightUnderflowError) as err:
        solve(design, target, sample.treated)
    assert isinstance(err.value, NonConvergenceError)
    sol = err.value.solution
    assert sol.converged
    log_tiny = np.log(np.finfo(float).tiny)
    t = sample.treated
    low1 = int((design.h[t] @ sol.lambda1 < log_tiny).sum())
    low0 = int((design.h[~t] @ sol.lambda0 < log_tiny).sum())
    assert low1 > 0 and low0 > 0
    assert f"{low1} rows of the treated arm, {low0} rows of the control arm" in str(err.value)
    estimate = gb.estimate_extended if method == "extended" else gb.estimate_ebal
    with pytest.raises(gb.WeightUnderflowError):
        estimate(sample, spec, raw)


def test_joint_dual_rejects_designs_built_in_different_batches():
    rng = np.random.default_rng(12)
    sample, spec, design, target, _ = random_instance(rng, n_s=30, k_h=2, k_g=1)
    other = gb.evaluate_basis(spec, sample)
    with pytest.raises(gb.ValidationError, match="one batch"):
        _JointDual([design, other], [target, target], [sample.treated] * 2, score_cap=30.0)


@pytest.mark.parametrize("solve", [
    lambda design, target, t: gb.solve_extended(design, target, t),
    lambda design, target, t: gb.solve_ebal(design, target, t),
    lambda design, target, t: gb.solve_two_step(design, target, t),
    lambda design, target, t: gb.solve_att(design, t),
], ids=["extended", "ebal", "two_step", "att"])
@pytest.mark.parametrize("treated", [True, False], ids=["all-treated", "all-control"])
def test_a_solve_over_an_empty_arm_is_a_validation_error(solve, treated):
    rng = np.random.default_rng(13)
    sample, spec, design, target, _ = random_instance(rng, n_s=30, k_h=2, k_g=1)
    with pytest.raises(gb.ValidationError, match="both arms must be non-empty"):
        solve(design, target, np.full(design.n, treated))
