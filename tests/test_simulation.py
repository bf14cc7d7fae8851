"""Scenario configs, replicate draws, grid runner, determinism."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbal as gb
import genbal.estimators as estimators
import genbal.simulation as simulation
from genbal.errors import ValidationError
from genbal.mathutil import sigmoid
from genbal.models import CovariateFunction, FunctionTerm

from helpers import reference_draw

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


def _custom_cell():
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
    return gb.ScenarioConfig(
        name="custom",
        propensity_logit=gb.PROPENSITY_MODELS["P1"],
        cate=cate,
        baseline=gb.BASELINE_MODELS["M1"],
        participation_logit=participation,
        p=6,
        low=-1.5,
        high=2.5,
    )


def test_true_ate_matches_full_tensor_grid_custom_cell():
    config = _custom_cell()
    assert config.participation_logit.indices() == {0, 1, 4}
    assert config.cate.indices() == {0, 2, 4}
    assert abs(gb.true_target_ate(config, nodes=8) - _full_tensor_tau_star(config, 8)) <= 1e-13


def _used_axes_tau_star(config, nodes):
    # the same ratio over the used-axes grid's materialized points, padded
    # with zero columns for the unread covariates
    used = sorted(config.participation_logit.indices() | config.cate.indices())
    grid = gb.gauss_legendre_box(len(used), config.low, config.high, nodes)
    points = np.zeros((grid.size, config.p))
    points[:, used] = grid.points
    wt = grid.weights * (1.0 - sigmoid(config.participation_logit(points)))
    return float(wt @ config.cate(points) / wt.sum())


@pytest.mark.parametrize("nodes", [8, 20])
@pytest.mark.parametrize("config", gb.builtin_grid() + (_custom_cell(),), ids=lambda c: c.name)
def test_true_ate_over_row_blocks_equals_materialized_points_exactly(config, nodes):
    assert gb.true_target_ate(config, nodes) == _used_axes_tau_star(config, nodes)


def test_true_ate_never_builds_the_grids_points(monkeypatch):
    grids = []

    def recording(*args):
        grids.append(gb.gauss_legendre_box(*args))
        return grids[-1]

    monkeypatch.setattr(simulation, "gauss_legendre_box", recording)
    gb.true_target_ate(gb.builtin_scenario("P2", "T2", "M1"), 12)
    assert len(grids) == 1 and "_arrays" not in grids[0].__dict__


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
    result = gb.run_grid(configs, ["ipw"])
    # T1 and T2 on the default box, plus T1 on the narrower box
    assert len(calls) == 3
    by_key = {}
    for config, scen in zip(configs, result.scenarios):
        key = (config.cate, config.low, config.high)
        by_key.setdefault(key, set()).add(scen.tau_star)
    assert len(by_key) == 3
    assert all(len(values) == 1 for values in by_key.values())
    assert result.scenarios[0].tau_star == real(configs[0])


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cell=st.sampled_from([c.name for c in gb.builtin_grid()]), seed=st.integers(0, 2**16),
       n=st.one_of(st.integers(2, 60), st.sampled_from([200, 800])), start=st.integers(0, 40),
       size=st.integers(1, 8))
def test_a_batch_draw_is_each_replicate_drawn_alone(cell, seed, n, start, size):
    # small n forces redraws, and n=2 (never a target row beside 2 source
    # rows) exhausts them; the batch then fails as its first such member
    # fails alone
    config = gb.builtin_scenario(*cell.split("-"), n=n, seed=seed)
    reps = range(start, start + size)
    alone = [reference_draw(config, rep) for rep in reps]
    failed = [(rep, reason) for rep, reason in zip(reps, alone) if isinstance(reason, str)]
    if failed:
        rep, reason = failed[0]
        message = (f"scenario {cell!r}: could not draw a non-degenerate replicate {rep} after 100 tries; "
                   f"the last had {reason}")
        for draw in (lambda: simulation._draw_batch(config, reps), lambda: gb.draw_replicate(config, rep)):
            with pytest.raises(ValidationError) as info:
                draw()
            assert str(info.value) == message
        return
    for draw, (Xs, A, Y, Xt, means, redraws) in zip(simulation._draw_batch(config, reps), alone):
        pairs = ((draw.sample.X, Xs), (draw.sample.A, A), (draw.sample.Y, Y), (draw.target_rows, Xt),
                 (draw.target_means, means))
        for got, want in pairs:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert (draw.n_t, draw.redraws) == (len(Xt), redraws)
        assert not (draw.sample.X.flags.writeable or draw.sample.A.flags.writeable or draw.sample.Y.flags.writeable)


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


def test_grid_deterministic_under_parallelism_with_unsorted_slopes():
    # a config built in Python keeps its expaffine slopes in the given order
    # in every worker, so the exp argument sums in the same order as jobs=1
    term = FunctionTerm("expaffine", 0.4, offset=0.1, slopes=((2, 0.7), (0, 0.3), (1, -0.5)))
    cate = CovariateFunction(gb.CATE_MODELS["T1"].terms + (term,))
    config = gb.ScenarioConfig(
        "unsorted-slopes", gb.PROPENSITY_MODELS["P2"], cate, gb.BASELINE_MODELS["M1"],
        n=400, replicates=8, seed=5,
    )
    assert gb.run_grid([config], jobs=1).to_json() == gb.run_grid([config], jobs=2).to_json()


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
    # both batched calls count each sample they are given
    calls = {"_design_batch": 0, "_fit_logistic": 0}
    for name, samples_at in (("_design_batch", 1), ("_fit_logistic", 0)):
        real = getattr(estimators, name)

        def counting(*args, _real=real, _name=name, _at=samples_at, **kwargs):
            calls[_name] += len(args[_at])
            return _real(*args, **kwargs)

        monkeypatch.setattr(estimators, name, counting)
    config = gb.builtin_scenario("P2", "T1", "M1", n=300, replicates=6, seed=26)
    result = gb.run_grid([config], jobs=1)
    assert calls == {"_design_batch": 6, "_fit_logistic": 6}
    assert all(agg.failures == 0 for agg in result.scenarios[0].methods.values())


def test_run_grid_runs_no_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    config = gb.builtin_scenario("P1", "T1", "M1", n=300, replicates=4, seed=27)
    gb.run_grid([config], jobs=1)
    assert calls == []


def test_package_error_on_one_replicate_fails_that_method_only(monkeypatch):
    config = gb.builtin_scenario("P2", "T1", "M1", n=300, replicates=4, seed=28)
    methods = ["ipw", "ebal", "extended"]
    baseline = gb.run_grid([config], methods, jobs=1)
    real = estimators.ESTIMATORS["ebal"]

    def fails_on_second_replicate(shared, options):
        outcomes = real(shared, options)
        outcomes[1] = ValidationError("weights must be strictly positive and finite")
        return outcomes

    monkeypatch.setitem(estimators.ESTIMATORS, "ebal", fails_on_second_replicate)
    result = gb.run_grid([config], methods, jobs=1)
    before, after = baseline.cell("P2-T1-M1", "ebal"), result.cell("P2-T1-M1", "ebal")
    assert (before.failures, after.failures) == (0, 1)
    assert after.errors == before.errors[:1] + before.errors[2:]
    for method in ("ipw", "extended"):
        assert result.cell("P2-T1-M1", method) == baseline.cell("P2-T1-M1", method)


def test_config_that_cannot_be_drawn_still_fails_the_grid():
    # no row joins the source, so no draw has a source sample
    config = gb.ScenarioConfig(
        name="no-source",
        propensity_logit=gb.PROPENSITY_MODELS["P1"],
        cate=gb.CATE_MODELS["T1"],
        baseline=gb.BASELINE_MODELS["M1"],
        participation_logit=_const_cate(-50.0),
        n=10,
        replicates=2,
    )
    with pytest.raises(ValidationError, match="non-degenerate replicate"):
        gb.run_grid([config], ["ipw"], jobs=1)


def _small_grid(replicates=(1, 5, 9), ns=(60, 90, 120)):
    tags = (("P1", "T1", "M1"), ("P2", "T2", "M1"), ("P3", "T1", "M2"))
    return [
        gb.builtin_scenario(*tag, n=n, replicates=r, seed=30 + i)
        for i, (tag, r, n) in enumerate(zip(tags, replicates, ns))
    ]


class _InProcessExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2", None])
def test_run_grid_rejects_invalid_jobs(jobs):
    config = gb.builtin_scenario("P1", "T1", "M1", n=50, replicates=2)
    with pytest.raises(ValidationError, match="jobs must be an int >= 1"):
        gb.run_grid([config], ["ipw"], jobs=jobs)


@pytest.mark.parametrize(
    "replicates, jobs, pools",
    [((1, 5, 9), 2, [2]), ((1, 1, 1), 5, [3]), ((2,), 8, [1]), ((1, 5, 9), 16, [3]), ((), 2, [])],
)
def test_pool_starts_at_most_one_worker_per_task(monkeypatch, replicates, jobs, pools):
    import concurrent.futures

    seen = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: _InProcessExecutor(seen, max_workers),
    )
    configs = _small_grid(replicates)
    result = gb.run_grid(configs, ["ipw", "ebal"], jobs=jobs)
    assert seen == pools
    assert result.to_json() == gb.run_grid(configs, ["ipw", "ebal"], jobs=1).to_json()


def test_multi_cell_grid_json_identical_across_jobs():
    # unequal replicate counts and sizes exercise the per-config regrouping
    payloads = {jobs: gb.run_grid(_small_grid(), jobs=jobs).to_json() for jobs in (1, 2, 3)}
    assert payloads[1] == payloads[2] == payloads[3]


@pytest.mark.parametrize("n, replicates, sizes", [
    (800, 20, [20]), (4000, 9, [4, 4, 1]), (20000, 3, [1, 1, 1]), (16001, 2, [1, 1]),
    (2, 8001, [8000, 1]), (300, 53, [53]), (300, 54, [53, 1]),
])
def test_batches_cover_the_replicates_once_in_order(n, replicates, sizes):
    config = gb.builtin_scenario("P1", "T1", "M1", n=n, replicates=replicates)
    batches = simulation._batches(config)
    assert [len(b) for b in batches] == sizes
    assert [rep for b in batches for rep in b] == list(range(replicates))


def test_multi_batch_config_json_identical_across_jobs():
    # n=4000 x 9 replicates runs as batches of 4, 4 and 1
    config = gb.builtin_scenario("P2", "T1", "M1", n=4000, replicates=9, seed=31)
    assert [len(b) for b in simulation._batches(config)] == [4, 4, 1]
    payloads = {jobs: gb.run_grid([config], jobs=jobs).to_json() for jobs in (1, 2, 3)}
    assert payloads[1] == payloads[2] == payloads[3]


def test_failure_census_of_a_tiny_cell_is_the_unbatched_one():
    # pinned from the solver that ran each replicate alone: the 40
    # replicates of this cell are one batch, and each keeps its failure class;
    # the 3 ipw failures are replicates with 5 source rows, too few for the 6
    # logistic regressors [1 | X]
    config = gb.builtin_scenario("P1", "T1", "M1", n=20, replicates=40, seed=0)
    census = {}
    for reps in simulation._batches(config):
        for row in simulation._replicates(config, gb.ESTIMATOR_NAMES, None, reps):
            for failure in row["failures"].items():
                census[failure] = census.get(failure, 0) + 1
    assert census == {
        ("ebal", "NonConvergenceError"): 18, ("ebal", "RankDeficiencyError"): 22,
        ("extended", "NonConvergenceError"): 16, ("extended", "RankDeficiencyError"): 24,
        ("ipw", "RankDeficiencyError"): 3, ("ipw_et", "NonConvergenceError"): 19,
    }


def test_diverging_joint_solve_leaks_no_overflow_warning():
    # replicate 1's joint dual diverges, so its scores overflow when the
    # solver counts underflowed rows; pytest turns a leaked RuntimeWarning
    # into an error
    config = gb.builtin_scenario("P3", "T1", "M1", n=20, replicates=2, seed=7)
    result = gb.run_grid([config])
    assert result.cell("P3-T1-M1", "ebal").failures == 2
    assert result.cell("P3-T1-M1", "extended").failures == 2


@pytest.mark.parametrize("name", ["P1-T1-M1", "P1-T2-M1", "P2-T1-M1"])
def test_tiny_cell_replicates_fail_in_a_batch_as_they_fail_alone(name):
    # at n=20 some replicates draw fewer source rows than logistic
    # regressors; their singular fits must end as they do alone
    (config,) = [c for c in gb.builtin_grid(n=20, replicates=40, seed=3) if c.name == name]
    (batch,) = simulation._batches(config)
    batched = simulation._replicates(config, gb.ESTIMATOR_NAMES, None, batch)
    for rep, row in zip(batch, batched):
        (alone,) = simulation._replicates(config, gb.ESTIMATOR_NAMES, None, [rep])
        assert row["failures"] == alone["failures"], rep


def test_run_grid_opens_one_pool_per_call(monkeypatch):
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    built = []

    class Counting(real):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    gb.run_grid(_small_grid((2, 2, 2)), ["ipw"], jobs=2)
    assert len(built) == 1


def test_undrawable_config_fails_the_grid_through_the_shared_pool():
    # the "no-source" config: no row joins the source, so no draw succeeds
    configs = _small_grid((2, 2, 2))
    configs[1] = dataclasses.replace(
        configs[1], name="no-source", participation_logit=_const_cate(-50.0), n=10
    )
    for jobs in (1, 2):
        with pytest.raises(ValidationError, match="non-degenerate replicate"):
            gb.run_grid(configs, ["ipw"], jobs=jobs)


def test_method_failures_counted_per_replicate_through_the_shared_pool():
    configs = _small_grid((3, 4, 2), ns=(300, 300, 300))
    opts = gb.SolverOptions(tol=1e-10, max_iter=1)
    serial = gb.run_grid(configs, ["ipw", "ebal"], jobs=1, options=opts)
    parallel = gb.run_grid(configs, ["ipw", "ebal"], jobs=2, options=opts)
    assert parallel.to_json() == serial.to_json()
    for config, scen in zip(configs, parallel.scenarios):
        assert scen.methods["ebal"].failures == config.replicates
        assert scen.methods["ipw"].failures == 0


def test_scenario_config_parses_its_basis_once(monkeypatch):
    config = gb.builtin_scenario("P2", "T1", "M1", n=200, replicates=3, seed=31)
    spec = config.basis()
    assert spec == gb.BasisSpec.from_names(config.h_names, config.g_names)
    calls = []
    real = gb.BasisSpec.from_names.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(gb.BasisSpec, "from_names", classmethod(counting))
    gb.run_grid([config], jobs=1)
    assert calls == [] and config.basis() is spec


def test_parsed_basis_leaves_config_identity_unchanged():
    import pickle

    config = gb.builtin_scenario("P3", "T2", "M2", n=500, replicates=17, seed=11)
    twin = gb.builtin_scenario("P3", "T2", "M2", n=500, replicates=17, seed=11)
    assert config == twin and hash(config) == hash(twin)
    assert "_basis" not in config.to_dict() and "_basis" not in repr(config)
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and hash(copy) == hash(config)
    assert copy.basis() == config.basis()
    assert dataclasses.replace(config, h_names=("const", "x1")).basis().h_names == ("const", "x1")
