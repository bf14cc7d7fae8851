"""Property tests of the balancing solver on random feasible instances."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal.errors import GenbalError, _one
from genbal.estimators import ESTIMATORS, _SharedWork
from genbal.solver import _JointDual

from helpers import random_instance, unit_first_step_weights

instances = st.builds(
    lambda seed, n_s, k_h, k_g, spread: random_instance(
        np.random.default_rng(seed), n_s=n_s, k_h=k_h, k_g=k_g, spread=spread
    ),
    seed=st.integers(0, 2**32 - 1),
    n_s=st.integers(20, 150),
    k_h=st.integers(1, 3),
    k_g=st.integers(0, 2),
    spread=st.floats(0.0, 0.3),
)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances, perm_seed=st.integers(0, 2**32 - 1))
def test_balancing_invariants_on_random_feasible_instances(instance, perm_seed):
    sample, spec, design, target, raw_target = instance
    opts = gb.SolverOptions()

    _, ws = gb.solve_extended(design, target, sample.treated, opts)
    assert (ws.w > 0).all()
    assert gb.balance_residuals(design, target, sample.treated, ws.w).sup_norm <= opts.tol

    # the estimate does not depend on the order of the rows
    tau = gb.estimate_extended(sample, spec, raw_target).tau_hat
    perm = np.random.default_rng(perm_seed).permutation(sample.n_s)
    permuted = gb.SourceSample(sample.X[perm], sample.A[perm], sample.Y[perm])
    assert gb.estimate_extended(permuted, spec, raw_target).tau_hat == pytest.approx(
        tau, rel=1e-9, abs=1e-9
    )

    # extended balancing with no G terms is per-arm entropy balancing
    ebal = gb.estimate_ebal(sample, spec, raw_target)
    no_g = gb.estimate_extended(sample, spec.h_only(), raw_target)
    assert no_g.tau_hat == pytest.approx(ebal.tau_hat, rel=1e-12, abs=1e-12)
    assert (no_g.weight_min, no_g.weight_max) == pytest.approx(
        (ebal.weight_min, ebal.weight_max), rel=1e-12
    )


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances, shift=st.floats(-100.0, 100.0))
def test_every_estimate_invariant_to_outcome_location_shift(instance, shift):
    sample, spec, _, _, raw_target = instance
    shifted = gb.SourceSample(sample.X, sample.A, sample.Y + shift)
    base = _SharedWork([sample], spec, [raw_target])
    moved = _SharedWork([shifted], spec, [raw_target])
    for name, estimate in ESTIMATORS.items():
        try:
            tau = _one(estimate(base, None)[0]).tau_hat
        except GenbalError as exc:
            # a failing fit or solve does not read Y, so it fails again
            with pytest.raises(type(exc)):
                _one(estimate(moved, None)[0])
            continue
        assert _one(estimate(moved, None)[0]).tau_hat == pytest.approx(tau, rel=0, abs=1e-10), name


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances, theta_seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.5))
def test_dual_gradient_is_balance_residual_of_tilted_weights(instance, theta_seed, scale):
    sample, _, design, target, _ = instance
    k_h, k_g = design.h.shape[1], design.g.shape[1]
    rng = np.random.default_rng(theta_seed)
    lambda1, lambda0 = scale * rng.standard_normal((2, k_h))
    gamma = scale * rng.standard_normal(k_g)
    _, grad, _ = gb.dual_objective(lambda1, lambda0, gamma, design, target, sample.treated)

    t = sample.treated
    w = np.where(
        t,
        np.exp(design.h @ lambda1 + design.g @ gamma),
        np.exp(design.h @ lambda0 - design.g @ gamma),
    )
    residuals = gb.balance_residuals(design, target, t, w).stacked()
    scale_of_terms = max(1.0, float(w.mean() * np.abs(np.hstack([design.h, design.g])).max()))
    np.testing.assert_allclose(grad, residuals, rtol=0, atol=1e-13 * scale_of_terms)


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances)
def test_two_step_with_unit_first_step_is_per_arm_ebal(instance):
    # two one-block per-arm calibrations against the two-block joint dual
    sample, _, design, target, _ = instance
    ebal = gb.solve_ebal(design, target, sample.treated)[1].w
    two_step = unit_first_step_weights(design, target, sample.treated)
    np.testing.assert_allclose(two_step, ebal, rtol=1e-9, atol=0)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(1, 60),
    n0=st.integers(1, 60),
    k_h=st.integers(1, 4),
    k_g=st.integers(0, 3),
    scale=st.floats(0.0, 0.5),
)
@example(seed=1, n1=3, n0=17, k_h=2, k_g=0, scale=0.3)
@example(seed=2, n1=25, n0=4, k_h=3, k_g=2, scale=0.4)
def test_joint_dual_matches_the_dense_block_design(seed, n1, n0, k_h, k_g, scale):
    rng = np.random.default_rng(seed)
    n = n1 + n0
    A = np.zeros(n, dtype=int)
    A[rng.permutation(n)[:n1]] = 1
    sample = gb.SourceSample(rng.normal(size=(n, k_h + k_g)), A, np.zeros(n))
    spec = gb.BasisSpec.from_names(
        ["const"] + [f"x{i + 1}" for i in range(k_h)],
        [f"x{i + 1}" for i in range(k_h, k_h + k_g)],
    )
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, np.r_[1.0, rng.normal(size=k_h)], design)
    problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
    theta = scale * rng.standard_normal(problem.dim)

    # reference: F = [H 1{A=1} | H 1{A=0} | +-G] over the rows in source order
    arm = sample.treated[:, None]
    F = np.hstack([design.h * arm, design.h * ~arm, np.where(arm, design.g, -design.g)])
    w = np.exp(F @ theta)
    want_val = w.sum() / n - theta @ problem.target[0]
    want_grad = F.T @ w / n - problem.target[0]
    want_hess = F.T @ (F * w[:, None]) / n

    (val,), (grad,), (hess,) = problem.value_grad_hess(theta[None])
    size = max(1.0, float(w.mean() * np.abs(F).max() ** 2))
    assert val == pytest.approx(want_val, rel=0, abs=1e-12 * size)
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * size)
    np.testing.assert_allclose(hess, want_hess, rtol=0, atol=1e-12 * size)
    np.testing.assert_allclose(problem.in_source_order(problem.tilt(theta[None])[0]), w,
                               rtol=1e-12, atol=0)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.integers(20, 120), k=st.integers(-400, 400))
@example(seed=0, n_s=60, k=400)
@example(seed=1, n_s=60, k=-400)
def test_weights_and_estimates_are_bit_identical_under_power_of_two_covariate_scaling(seed, n_s, k):
    # scaling x by 2^k scales each term of degree d and its target mean by
    # 2^(k d) exactly, and standardization divides it out exactly
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_s, 3))
    A = np.zeros(n_s, dtype=int)
    A[rng.permutation(n_s)[: n_s // 2]] = 1
    Y = rng.normal(size=n_s)
    spec = gb.BasisSpec.from_names(["const", "x1", "x2^2", "x1:x2"], ["x3"])
    u = np.exp(0.1 * rng.standard_normal(n_s))
    raw = spec.evaluate_h(X).T @ u / u.sum()
    degree = np.array([0, 1, 2, 2])
    scaled = gb.SourceSample(np.ldexp(X, k), A, Y)
    raw_scaled = np.ldexp(raw, k * degree)

    def outcomes(sample, target):
        out = []
        for estimate in (gb.estimate_ebal, gb.estimate_extended):
            try:
                out.append(estimate(sample, spec, target))
            except GenbalError as exc:
                out.append((type(exc), str(exc)))
        design = gb.evaluate_basis(spec, sample)
        try:
            out.append(gb.solve_extended(design, gb.align_target_summary(spec, target, design),
                                         sample.treated)[1].w.tobytes())
        except GenbalError as exc:
            out.append((type(exc), str(exc)))
        return out

    assert outcomes(scaled, raw_scaled) == outcomes(gb.SourceSample(X, A, Y), raw)


# the five `genbal weights` methods, each as (design, target, treated) -> WeightSet
WEIGHT_METHODS = {
    "extended": lambda design, target, treated: gb.solve_extended(design, target, treated)[1],
    "ebal": lambda design, target, treated: gb.solve_ebal(design, target, treated)[1],
    "two_step": gb.solve_two_step,
    "et": lambda design, target, treated: gb.solve_et_calibration(design, target)[1],
    "att": lambda design, target, treated: gb.solve_att(design, treated),
}


def _reports(sample, spec, raw_target):
    """Each estimator's EstimateReport, or its GenbalError, on one data set."""
    shared = _SharedWork([sample], spec, [raw_target])
    return {name: estimate(shared, None)[0] for name, estimate in ESTIMATORS.items()}


def _assert_each_estimator(before, after, check):
    """``check(before, after)`` for every estimator that succeeds; one that
    fails must fail alike on the changed data."""
    for name, report in before.items():
        if isinstance(report, GenbalError):
            assert type(after[name]) is type(report), name
        else:
            assert not isinstance(after[name], GenbalError), (name, after[name])
            check(report, after[name])


INVARIANCE = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


@INVARIANCE
@given(instance=instances, perm_seed=st.integers(0, 2**32 - 1))
def test_a_row_permutation_permutes_every_methods_weights(instance, perm_seed):
    sample, spec, design, target, raw_target = instance
    perm = np.random.default_rng(perm_seed).permutation(sample.n_s)
    permuted = gb.SourceSample(sample.X[perm], sample.A[perm], sample.Y[perm])
    moved_design = gb.evaluate_basis(spec, permuted)
    moved_target = gb.align_target_summary(spec, raw_target, moved_design)
    for name, solve in WEIGHT_METHODS.items():
        w = solve(design, target, sample.treated).w
        np.testing.assert_allclose(solve(moved_design, moved_target, permuted.treated).w, w[perm],
                                   rtol=1e-9, atol=0, err_msg=name)

    def same_weights(report, moved):  # the reports read the weights as a multiset
        assert (moved.tau_hat, moved.weight_min, moved.weight_max, moved.ess_treated, moved.ess_control) \
            == pytest.approx((report.tau_hat, report.weight_min, report.weight_max, report.ess_treated,
                              report.ess_control), rel=1e-9, abs=1e-10)

    _assert_each_estimator(_reports(sample, spec, raw_target), _reports(permuted, spec, raw_target), same_weights)


@INVARIANCE
@given(instance=instances)
def test_listing_every_row_twice_keeps_each_rows_weight_and_the_estimate(instance):
    # the balance means are unchanged; the logit's score doubles, so it may
    # stop one iteration apart, at a score under its tol of 1e-8
    sample, spec, _, _, raw_target = instance
    twice = gb.SourceSample(*(np.repeat(v, 2, axis=0) for v in (sample.X, sample.A, sample.Y)))

    def same_weights(report, moved):  # weights normalized to sum to n_s per arm, so the ESS doubles
        assert (moved.tau_hat, moved.weight_min, moved.weight_max, moved.ess_treated / 2, moved.ess_control / 2) \
            == pytest.approx((report.tau_hat, report.weight_min, report.weight_max, report.ess_treated,
                              report.ess_control), rel=1e-8, abs=1e-8)

    _assert_each_estimator(_reports(sample, spec, raw_target), _reports(twice, spec, raw_target), same_weights)


@INVARIANCE
@given(instance=instances)
def test_swapping_the_arms_negates_every_estimate(instance):
    sample, spec, _, _, raw_target = instance
    swapped = gb.SourceSample(sample.X, 1 - sample.A, sample.Y)

    def negated(report, moved):
        assert moved.tau_hat == pytest.approx(-report.tau_hat, rel=0, abs=1e-10)

    _assert_each_estimator(_reports(sample, spec, raw_target), _reports(swapped, spec, raw_target), negated)


@INVARIANCE
@given(instance=instances, map_seed=st.integers(0, 2**32 - 1), location=st.floats(0.0, 1e6))
@example(instance=random_instance(np.random.default_rng(5), n_s=80, k_h=3, k_g=2), map_seed=6, location=1e6)
def test_an_affine_map_of_the_covariates_keeps_every_estimate(instance, map_seed, location):
    # x -> a x + b per covariate, |a| in [0.1, 10], |b| up to 1e6, the target
    # means mapped alike: every design and the treatment logit centre and
    # scale their columns, so only rounding moves the estimate; a location
    # of 1e6 over a spread of 0.1 costs about 7 digits of a covariate
    sample, spec, _, _, raw_target = instance
    rng = np.random.default_rng(map_seed)
    a = rng.uniform(0.1, 10.0, sample.p) * rng.choice([-1.0, 1.0], sample.p)
    b = rng.uniform(-location, location, sample.p)
    k = len(spec.h_terms) - 1
    moved = gb.SourceSample(sample.X * a + b, sample.A, sample.Y)

    def kept(report, after):
        assert after.tau_hat == pytest.approx(report.tau_hat, rel=0, abs=1e-8)

    _assert_each_estimator(_reports(sample, spec, raw_target),
                           _reports(moved, spec, np.r_[1.0, raw_target[1:] * a[:k] + b[:k]]), kept)
