"""Scenario configs, replicate draws, grid runner, determinism."""

import json

import numpy as np
import pytest

import genbal as gb
import genbal.estimators as estimators
import genbal.simulation as simulation
from genbal.errors import ValidationError
from genbal.mathutil import sigmoid
from genbal.models import CovariateFunction, FunctionTerm

# Frozen value from an independent 1e7-draw Monte Carlo of the target-arm
# mean treatment contrast under the built-in participation model and the
# T1 effect function (10 blocks of 1e6 draws, seed 42).
TAU_STAR_T1_MC = -0.13784013031703696
TAU_STAR_T1_MC_SE = 0.00037093767378487875


def _const_cate(c):
    return CovariateFunction((FunctionTerm("const", c),))


def test_true_ate_constant_effect():
    config = gb.builtin_scenario("P1", "T1", "M1")
    config = gb.ScenarioConfig(
        name="const-effect",
        propensity_logit=config.propensity_logit,
        cate=_const_cate(2.5),
        baseline=config.baseline,
    )
    assert gb.true_target_ate(config) == pytest.approx(2.5, abs=1e-12)


def test_true_ate_no_shift_symmetric_t1_is_zero():
    config = gb.ScenarioConfig(
        name="no-shift",
        propensity_logit=gb.PROPENSITY_MODELS["P1"],
        cate=gb.CATE_MODELS["T1"],
        baseline=gb.BASELINE_MODELS["M1"],
        participation_logit=_const_cate(0.0),
    )
    assert gb.true_target_ate(config) == pytest.approx(0.0, abs=1e-12)


def test_true_ate_matches_frozen_monte_carlo_oracle():
    config = gb.builtin_scenario("P2", "T1", "M1")
    quad = gb.true_target_ate(config)
    assert abs(quad - TAU_STAR_T1_MC) <= 3.0 * TAU_STAR_T1_MC_SE
    # quadrature is node-converged well past the contract accuracy
    assert gb.true_target_ate(config, nodes=24) == pytest.approx(quad, abs=1e-8)


def _full_tensor_tau_star(config, nodes):
    # reference: the same ratio over the full p-dimensional tensor grid
    grid = gb.gauss_legendre_box(config.p, config.low, config.high, nodes)
    rho = sigmoid(config.participation_logit(grid.points))
    wt = grid.weights * (1.0 - rho)
    return float(wt @ config.cate(grid.points) / wt.sum())


@pytest.mark.parametrize("config", gb.builtin_grid(), ids=lambda c: c.name)
def test_true_ate_matches_full_tensor_grid(config):
    assert abs(gb.true_target_ate(config, nodes=8) - _full_tensor_tau_star(config, 8)) <= 1e-13


def test_true_ate_matches_full_tensor_grid_custom_cell():
    # participation reads x5 only through max2, the CATE only through an
    # expaffine slope; x4 and x6 are never read
    participation = CovariateFunction((
        FunctionTerm("linear", 0.4, index=0),
        FunctionTerm("max2", -0.5, index=1, index2=4),
    ))
    cate = CovariateFunction((
        FunctionTerm("linear", 1.0, index=2),
        FunctionTerm("expaffine", -0.5, offset=0.2, slopes=((0, 0.3), (4, -0.7))),
    ))
    config = gb.ScenarioConfig(
        name="custom",
        propensity_logit=gb.PROPENSITY_MODELS["P1"],
        cate=cate,
        baseline=gb.BASELINE_MODELS["M1"],
        participation_logit=participation,
        p=6,
        low=-1.5,
        high=2.5,
    )
    assert participation.indices() == {0, 1, 4}
    assert cate.indices() == {0, 2, 4}
    assert abs(gb.true_target_ate(config, nodes=8) - _full_tensor_tau_star(config, 8)) <= 1e-13


def test_true_ate_constant_participation_and_effect():
    config = gb.ScenarioConfig(
        name="constant",
        propensity_logit=gb.PROPENSITY_MODELS["P1"],
        cate=_const_cate(-1.75),
        baseline=gb.BASELINE_MODELS["M1"],
        participation_logit=_const_cate(0.3),
    )
    assert gb.true_target_ate(config) == pytest.approx(-1.75, abs=1e-15)


def test_run_grid_computes_true_ate_once_per_integrand(monkeypatch):
    calls = []
    real = simulation.true_target_ate

    def counting(config, nodes=16):
        calls.append(config.name)
        return real(config, nodes)

    monkeypatch.setattr(simulation, "true_target_ate", counting)
    configs = gb.builtin_grid(n=200, replicates=2) + (
        gb.builtin_scenario("P1", "T1", "M1", n=200, replicates=2, low=-1.0, high=1.0),
    )
    result = gb.run_grid(configs, ["ipw"], nodes=8)
    # T1 and T2 on the default box, plus T1 on the narrower box
    assert len(calls) == 3
    by_key = {}
    for config, scen in zip(configs, result.scenarios):
        key = (config.cate, config.low, config.high)
        by_key.setdefault(key, set()).add(scen.tau_star)
    assert len(by_key) == 3
    assert all(len(values) == 1 for values in by_key.values())
    assert result.scenarios[0].tau_star == real(configs[0], nodes=8)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("low", 2.0, "low=2.0 must be below high=-2.0"),
        ("n", 1, "n=1 must be >= 2"),
        ("replicates", 0, "replicates=0 must be >= 1"),
        ("noise_sd", -0.5, "noise_sd=-0.5 must be >= 0"),
        ("noise_sd", float("nan"), "noise_sd=nan must be >= 0"),
        ("p", 0, "p=0 must be >= 1"),
    ],
)
def test_scenario_config_rejects_bad_fields(field, value, message):
    overrides = {field: value}
    if field == "low":
        overrides["high"] = -2.0
    with pytest.raises(ValidationError) as info:
        gb.builtin_scenario("P2", "T1", "M1", **overrides)
    assert "'P2-T1-M1'" in str(info.value)
    assert message in str(info.value)


def test_scenario_config_rejects_covariate_beyond_p():
    with pytest.raises(ValidationError, match=r"'P2-T1-M1' references covariate x5 but p=4"):
        gb.builtin_scenario("P2", "T1", "M1", p=4, g_names=("x4",))


def test_draw_replicate_deterministic():
    config = gb.builtin_scenario("P1", "T1", "M1", seed=3)
    a = gb.draw_replicate(config, 7)
    b = gb.draw_replicate(config, 7)
    np.testing.assert_array_equal(a.sample.X, b.sample.X)
    np.testing.assert_array_equal(a.sample.A, b.sample.A)
    np.testing.assert_array_equal(a.sample.Y, b.sample.Y)
    np.testing.assert_array_equal(a.target_means, b.target_means)
    c = gb.draw_replicate(config, 8)
    assert not np.array_equal(a.sample.X, c.sample.X)


def test_target_summary_is_mean_of_held_out_rows():
    config = gb.builtin_scenario("P2", "T2", "M2", seed=4)
    draw = gb.draw_replicate(config, 0)
    spec = config.basis()
    recomputed = spec.evaluate_h(draw.target_rows).mean(axis=0)
    np.testing.assert_array_equal(draw.target_means, recomputed)
    assert draw.target_means[0] == 1.0
    assert draw.n_t == draw.target_rows.shape[0]


def test_realized_source_size_distribution():
    # E[n_s] = n/2 exactly by the symmetry of the participation model
    config = gb.builtin_scenario("P1", "T1", "M1", seed=5)
    sizes = [gb.draw_replicate(config, r).sample.n_s for r in range(400)]
    sizes = np.array(sizes)
    assert sizes.min() >= 320 and sizes.max() <= 450
    assert 370 <= sizes.mean() <= 430


def test_outcome_model_uses_centered_treatment_contrast():
    config = gb.builtin_scenario("P1", "T1", "M1", seed=6, noise_sd=0.0)
    draw = gb.draw_replicate(config, 0)
    s = draw.sample
    expected = config.baseline(s.X) + (s.A - 0.5) * config.cate(s.X)
    np.testing.assert_allclose(s.Y, expected, atol=1e-12)


def test_estimators_never_read_target_rows():
    config = gb.builtin_scenario("P1", "T1", "M1", seed=7)
    draw = gb.draw_replicate(config, 0)
    spec = config.basis()
    before = gb.estimate_extended(draw.sample, spec, draw.target_means).tau_hat
    draw.target_rows.setflags(write=True)
    draw.target_rows[:] = 1e9  # corrupt the holdout
    after = gb.estimate_extended(draw.sample, spec, draw.target_means).tau_hat
    assert before == after


def test_rmse_identity():
    config = gb.builtin_scenario("P1", "T1", "M1", replicates=50, seed=8)
    result = gb.run_grid([config], ["ebal", "extended"])
    for method in ("ebal", "extended"):
        agg = result.cell("P1-T1-M1", method)
        assert agg.rmse ** 2 == pytest.approx(agg.bias ** 2 + agg.sd ** 2, rel=1e-10)


def test_grid_deterministic_under_parallelism():
    config = gb.builtin_scenario("P2", "T1", "M1", n=300, replicates=24, seed=9)
    opts = gb.SolverOptions(tol=1e-9)
    res_serial = gb.run_grid([config], ["ebal", "extended"], jobs=1, options=opts)
    res_parallel = gb.run_grid([config], ["ebal", "extended"], jobs=4, options=opts)
    assert res_serial.to_json() == res_parallel.to_json()


def test_grid_rejects_empty_or_unknown_methods():
    config = gb.builtin_scenario("P1", "T1", "M1", replicates=2)
    with pytest.raises(ValidationError):
        gb.run_grid([config], [])
    with pytest.raises(ValidationError):
        gb.run_grid([config], ["nope"])


def test_failures_excluded_and_counted():
    # an impossible tolerance forces balancing solves to fail while ipw runs
    config = gb.builtin_scenario("P1", "T1", "M1", replicates=5, seed=10)
    result = gb.run_grid(
        [config], ["ipw", "ebal"], options=gb.SolverOptions(tol=1e-10, max_iter=1)
    )
    ebal = result.cell("P1-T1-M1", "ebal")
    assert ebal.failures == 5
    assert len(ebal.errors) == 0
    assert np.isnan(ebal.bias)
    ipw = result.cell("P1-T1-M1", "ipw")
    assert ipw.failures == 0 and len(ipw.errors) == 5


def test_scenario_round_trips_through_json():
    config = gb.builtin_scenario("P3", "T2", "M2", n=500, replicates=17, seed=11)
    rebuilt = gb.ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config


def test_scenario_from_dict_accepts_tags():
    config = gb.ScenarioConfig.from_dict(
        {"name": "cell", "propensity": "P2", "cate": "T1", "baseline": "M1"}
    )
    assert config.propensity_logit == gb.PROPENSITY_MODELS["P2"]
    with pytest.raises(ValidationError):
        gb.ScenarioConfig.from_dict(
            {"name": "bad", "propensity": "P9", "cate": "T1", "baseline": "M1"}
        )


def test_builtin_grid_has_twelve_cells():
    grid = gb.builtin_grid(replicates=1)
    assert len(grid) == 12
    assert [c.name for c in grid][:3] == ["P1-T1-M1", "P1-T1-M2", "P1-T2-M1"]


def test_boxplot_record_fields():
    errors = np.array([-5.0, -0.2, -0.1, 0.0, 0.1, 0.2, 6.0])
    from genbal.simulation import _boxplot_record

    rec = _boxplot_record(errors)
    assert rec["min"] == -5.0 and rec["max"] == 6.0
    assert rec["q1"] <= rec["median"] <= rec["q3"]
    assert rec["outliers"] == [-5.0, 6.0]
    assert rec["whisker_low"] == -0.2 and rec["whisker_high"] == 0.2


def test_built_in_model_values():
    # spot-check each scenario family at a fixed point
    x = np.array([[0.5, -1.0, 2.0, 1.5, -0.5]])
    assert gb.PROPENSITY_MODELS["P1"](x)[0] == pytest.approx(0.7 * -1.0 + 0.5 * 2.0)
    assert gb.PROPENSITY_MODELS["P2"](x)[0] == pytest.approx(
        0.35 * -1.0 + 0.25 * 2.0 + 0.2 * 1.5 - 0.7 * -0.5
    )
    assert gb.PROPENSITY_MODELS["P3"](x)[0] == pytest.approx(
        0.35 * -1.0 - 0.4 * max(2.0, 1.5) - 0.7 * -0.5
    )
    assert gb.CATE_MODELS["T1"](x)[0] == pytest.approx(0.5 - 0.6 * -1.0 - 0.4 * 2.0)
    assert gb.CATE_MODELS["T2"](x)[0] == pytest.approx(0.5 - 0.5 * np.exp(-1.0 - 0.5 * 2.0))
    assert gb.BASELINE_MODELS["M1"](x)[0] == pytest.approx(
        0.5 * 0.5 + 0.3 * -1.0 + 0.3 * 2.0 - 0.4 * 1.5 - 0.5 * -0.5
    )
    assert gb.BASELINE_MODELS["M2"](x)[0] == pytest.approx(
        0.5 * 0.5 + 0.3 * 1.0 + 0.2 * np.exp(2.0 - 1.5 - 1.0) - 0.5 * -0.5
    )
    assert gb.PARTICIPATION_LOGIT(x)[0] == pytest.approx(0.4 * 0.5 + 0.3 * -1.0 - 0.2 * 1.5)


def test_rank_deficient_replicates_count_as_failures_not_abort():
    # at n=20 some replicates keep fewer source rows than [H|G] has columns
    config = gb.builtin_scenario("P1", "T1", "M1", n=20, replicates=40)
    serial = gb.run_grid([config], jobs=1)
    assert sum(agg.failures for agg in serial.scenarios[0].methods.values()) > 0
    assert serial.cell("P1-T1-M1", "extended").failures > 0
    assert serial.to_json() == gb.run_grid([config], jobs=2).to_json()


def test_run_grid_evaluates_basis_and_fits_logit_once_per_replicate(monkeypatch):
    calls = {"evaluate_basis": 0, "fit_logistic_irls": 0}
    for name in calls:
        real = getattr(estimators, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(estimators, name, counting)
    config = gb.builtin_scenario("P2", "T1", "M1", n=300, replicates=6, seed=26)
    result = gb.run_grid([config], jobs=1)
    assert calls == {"evaluate_basis": 6, "fit_logistic_irls": 6}
    assert all(agg.failures == 0 for agg in result.scenarios[0].methods.values())
