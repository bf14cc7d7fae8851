"""Estimator point values, reductions between methods, equivariance."""

import dataclasses

import numpy as np
import pytest

import genbal as gb
import genbal.estimators as estimators
from genbal.errors import SeparationError, ValidationError
from genbal.mathutil import sigmoid
from genbal.solver import Method, WeightSet

from helpers import random_instance


def test_weighted_ate_uniform_weights_difference_of_means():
    X = np.zeros((4, 1))
    X[:, 0] = [0.1, -0.2, 0.3, 0.4]
    A = np.array([1, 1, 0, 0])
    Y = A.astype(float)  # Y = A, so the difference of arm means is 1
    sample = gb.SourceSample(X, A, Y)
    ws = WeightSet(np.ones(4), Method.EXTENDED, normalized=False)
    report = gb.estimate_weighted_ate(sample, ws)
    assert report.tau_hat == pytest.approx(1.0)


def test_weighted_ate_hand_computed_value():
    # treated (Y, w) = (3, 1), (1, 3); control (1, 2), (3, 2); n_s = 4
    X = np.zeros((4, 1))
    A = np.array([1, 1, 0, 0])
    Y = np.array([3.0, 1.0, 1.0, 3.0])
    sample = gb.SourceSample(X, A, Y)
    ws = WeightSet(np.array([1.0, 3.0, 2.0, 2.0]), Method.EXTENDED, normalized=False)
    report = gb.estimate_weighted_ate(sample, ws)
    assert report.tau_hat == pytest.approx(-0.5)


def test_weighted_ate_single_row_per_arm():
    X = np.zeros((2, 1))
    sample = gb.SourceSample(X, np.array([1, 0]), np.array([2.7, 0.4]))
    ws = WeightSet(np.array([13.0, 0.01]), Method.EXTENDED, normalized=False)
    report = gb.estimate_weighted_ate(sample, ws)
    assert report.tau_hat == pytest.approx(2.7 - 0.4)


def test_weighted_ate_rejects_misaligned_weights():
    sample = gb.SourceSample(np.zeros((3, 1)), np.array([1, 0, 0]), np.zeros(3))
    ws = WeightSet(np.ones(2), Method.EXTENDED, normalized=False)
    with pytest.raises(ValidationError):
        gb.estimate_weighted_ate(sample, ws)


def test_logistic_balanced_arms_intercept_only():
    X = np.zeros((10, 1))
    X[:, 0] = np.arange(10)
    A = np.array([1] * 5 + [0] * 5)
    sample = gb.SourceSample(X, A, np.zeros(10))
    model = gb.fit_logistic_irls(sample, columns=[])
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(model.propensities, 0.5, atol=1e-10)


def test_logistic_large_sample_recovers_truth():
    # logit pi = 0.7 x2 + 0.5 x3 at n = 100000: coefficients within 0.03
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, (100_000, 2))
    pi = sigmoid(0.7 * X[:, 0] + 0.5 * X[:, 1])
    A = (rng.random(100_000) < pi).astype(int)
    sample = gb.SourceSample(X, A, np.zeros(100_000))
    model = gb.fit_logistic_irls(sample)
    assert model.converged
    np.testing.assert_allclose(model.coefficients, [0.0, 0.7, 0.5], atol=0.03)
    # score equations hold at convergence
    assert model.score_norm <= 1e-8


def test_logistic_separation_detected():
    # perfectly separated with a tight margin, so the MLE diverges
    x = np.concatenate([np.linspace(-1, -0.001, 10), np.linspace(0.001, 1, 10)])
    A = (x > 0).astype(int)
    sample = gb.SourceSample(x.reshape(-1, 1), A, np.zeros(20))
    with pytest.raises(SeparationError):
        gb.fit_logistic_irls(sample)


def test_ipw_randomized_no_shift_recovers_source_ate():
    rng = np.random.default_rng(12)
    n = 40_000
    X = rng.uniform(-2, 2, (n, 3))
    A = (rng.random(n) < 0.5).astype(int)
    tau = 1.3
    Y = X[:, 0] + tau * A + rng.standard_normal(n)
    sample = gb.SourceSample(X, A, Y)
    report = gb.estimate_ipw(sample)
    assert report.tau_hat == pytest.approx(tau, abs=0.05)


def test_ipw_constant_propensity_is_difference_of_arm_means():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    A = np.array([1] * 15 + [0] * 15)
    Y = rng.normal(size=30)
    sample = gb.SourceSample(X, A, Y)
    report = gb.estimate_ipw(sample, columns=[])  # intercept-only: pi = 0.5
    assert report.tau_hat == pytest.approx(Y[:15].mean() - Y[15:].mean())


def test_ipw_et_reduces_to_ipw_when_target_equals_source():
    rng = np.random.default_rng(14)
    sample, spec, design, target, raw_target = random_instance(rng, n_s=120, k_h=2, k_g=1)
    raw = spec.evaluate_h(sample.X).mean(axis=0)
    raw[0] = 1.0
    r_ipw = gb.estimate_ipw(sample)
    r_et = gb.estimate_ipw_et(sample, spec, raw)
    assert r_et.tau_hat == pytest.approx(r_ipw.tau_hat, abs=1e-8)


def test_ipw_et_extreme_unit_collapses_ess():
    # one treated unit parked where the fitted propensity is near zero
    rng = np.random.default_rng(15)
    n = 200
    x = np.concatenate([rng.uniform(-2.5, 2.5, n - 1), [-3.2]])
    logits = 3.0 * x
    a = (rng.random(n) < sigmoid(logits)).astype(int)
    a[-1] = 1  # the extreme treated unit
    if a[:-1].sum() == 0 or a[:-1].sum() == n - 1:
        pytest.fail("degenerate draw")
    sample = gb.SourceSample(x.reshape(-1, 1), a, rng.normal(size=n))
    spec = gb.BasisSpec.from_names(["const", "x1"])
    raw = np.array([1.0, float(x.mean())])
    report = gb.estimate_ipw_et(sample, spec, raw)
    arm = int(sample.A.sum())
    assert report.ess_treated < 0.10 * arm


def test_ebal_constant_only_no_shift_is_difference_of_means():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 1))
    A = np.array([1] * 18 + [0] * 22)
    Y = rng.normal(size=40)
    sample = gb.SourceSample(X, A, Y)
    spec = gb.BasisSpec.from_names(["const"])
    report = gb.estimate_ebal(sample, spec, [1.0])
    assert report.tau_hat == pytest.approx(Y[A == 1].mean() - Y[A == 0].mean())


def test_extended_equals_ebal_without_g_terms():
    rng = np.random.default_rng(17)
    sample, spec, design, target, raw_target = random_instance(rng, n_s=90, k_h=3, k_g=0)
    r_ext = gb.estimate_extended(sample, spec, raw_target)
    r_eb = gb.estimate_ebal(sample, spec, raw_target)
    assert r_ext.tau_hat == pytest.approx(r_eb.tau_hat, abs=1e-12)


def _shifted_confounded_sample(rng, n=500):
    X = rng.uniform(-2, 2, (n, 5))
    pi = sigmoid(0.35 * X[:, 1] + 0.25 * X[:, 2] + 0.2 * X[:, 3] - 0.7 * X[:, 4])
    A = (rng.random(n) < pi).astype(int)
    tau = X[:, 0] - 0.6 * X[:, 1] - 0.4 * X[:, 2]
    m = 0.5 * X[:, 0] + 0.3 * X[:, 1] + 0.3 * X[:, 2] - 0.4 * X[:, 3] - 0.5 * X[:, 4]
    Y = m + (A - 0.5) * tau + rng.standard_normal(n)
    return gb.SourceSample(X, A, Y)


_SPEC = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])
_TARGET = np.array([1.0, 0.15, -0.1, 0.05])


@pytest.mark.parametrize("method", ["ebal", "extended", "ipw_et"])
def test_location_equivariance(method):
    rng = np.random.default_rng(18)
    sample = _shifted_confounded_sample(rng)
    shifted = gb.SourceSample(sample.X, sample.A, sample.Y + 7.5)

    def run(s):
        if method == "ebal":
            return gb.estimate_ebal(s, _SPEC, _TARGET)
        if method == "extended":
            return gb.estimate_extended(s, _SPEC, _TARGET)
        return gb.estimate_ipw_et(s, _SPEC, _TARGET)

    assert run(shifted).tau_hat == pytest.approx(run(sample).tau_hat, abs=1e-9)


@pytest.mark.parametrize("method", ["ebal", "extended", "ipw"])
def test_scale_equivariance(method):
    rng = np.random.default_rng(19)
    sample = _shifted_confounded_sample(rng)
    scaled = gb.SourceSample(sample.X, sample.A, 3.0 * sample.Y)

    def run(s):
        if method == "ebal":
            return gb.estimate_ebal(s, _SPEC, _TARGET)
        if method == "extended":
            return gb.estimate_extended(s, _SPEC, _TARGET)
        return gb.estimate_ipw(s)

    assert run(scaled).tau_hat == pytest.approx(3.0 * run(sample).tau_hat, abs=1e-9)


@pytest.mark.parametrize("estimator", [gb.estimate_ebal, gb.estimate_extended])
def test_treatment_label_symmetry(estimator):
    rng = np.random.default_rng(20)
    sample = _shifted_confounded_sample(rng)
    flipped = gb.SourceSample(sample.X, 1 - sample.A, -sample.Y)
    a = estimator(sample, _SPEC, _TARGET).tau_hat
    b = estimator(flipped, _SPEC, _TARGET).tau_hat
    assert a == pytest.approx(b, abs=1e-8)


def test_all_methods_positive_weights_and_arm_sums():
    rng = np.random.default_rng(21)
    sample = _shifted_confounded_sample(rng)
    design = gb.evaluate_basis(_SPEC, sample)
    target = gb.align_target_summary(_SPEC, _TARGET, design)
    t = sample.treated
    weight_sets = [
        gb.solve_extended(design, target, t, normalize=True)[1],
        gb.solve_ebal(design, target, t, normalize=True)[1],
        gb.solve_two_step(design, target, t, normalize=True),
    ]
    for ws in weight_sets:
        assert (ws.w > 0).all()
        assert ws.w[t].sum() == pytest.approx(sample.n_s)
        assert ws.w[~t].sum() == pytest.approx(sample.n_s)


def test_report_diagnostics_populated():
    rng = np.random.default_rng(22)
    sample = _shifted_confounded_sample(rng)
    report = gb.estimate_extended(sample, _SPEC, _TARGET)
    assert report.method == "extended"
    assert report.ess_treated > 0
    assert report.weight_min > 0
    assert report.solver_info["grad_norm"] <= 1e-10


def _degenerate_fit(monkeypatch, arm, value):
    real = estimators.fit_logistic_irls

    def fit(sample, columns=None, **kwargs):
        model = real(sample, columns, **kwargs)
        p = model.propensities.copy()
        p[getattr(sample, arm)[0]] = value
        return dataclasses.replace(model, propensities=p)

    monkeypatch.setattr(estimators, "fit_logistic_irls", fit)


@pytest.mark.parametrize("arm, value", [("s1", 0.0), ("s0", 1.0)])
def test_degenerate_propensity_raises_separation_error(monkeypatch, arm, value):
    rng = np.random.default_rng(23)
    sample = _shifted_confounded_sample(rng)
    _degenerate_fit(monkeypatch, arm, value)
    with pytest.raises(SeparationError):
        gb.estimate_ipw(sample)
    with pytest.raises(SeparationError):
        gb.estimate_ipw_et(sample, _SPEC, _TARGET)


def test_degenerate_propensity_fails_one_method_not_the_grid(monkeypatch):
    _degenerate_fit(monkeypatch, "s1", 0.0)
    config = gb.builtin_scenario("P1", "T1", "M1", n=300, replicates=4, seed=24)
    result = gb.run_grid([config])
    for method in ("ipw", "ipw_et"):
        assert result.cell("P1-T1-M1", method).failures == 4
    for method in ("ebal", "extended"):
        assert result.cell("P1-T1-M1", method).failures == 0


def test_estimator_table_matches_public_functions():
    config = gb.builtin_scenario("P2", "T1", "M1", n=400, seed=25)
    draw = gb.draw_replicate(config, 0)
    sample, spec, raw, n_t = draw.sample, config.basis(), draw.target_means, draw.n_t
    public = {
        "ipw": gb.estimate_ipw(sample),
        "ipw_et": gb.estimate_ipw_et(sample, spec, raw, n_t=n_t),
        "ebal": gb.estimate_ebal(sample, spec, raw, n_t=n_t),
        "extended": gb.estimate_extended(sample, spec, raw, n_t=n_t),
    }
    shared = estimators._SharedWork(sample, spec, raw, n_t)
    assert set(estimators.ESTIMATORS) == set(public)
    for name, estimate in estimators.ESTIMATORS.items():
        assert estimate(shared, None) == public[name]
