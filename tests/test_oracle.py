"""Theory oracle: limiting tilt, projections, variance decomposition."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal import oracle, quadrature
from genbal.errors import (
    HypothesisViolationError,
    NonConvergenceError,
    RankDeficiencyError,
    ValidationError,
)
from genbal.mathutil import sigmoid
from genbal.models import CATE_MODELS, PROPENSITY_MODELS, CovariateFunction, FunctionTerm


def _linear(*pairs):
    return CovariateFunction(tuple(FunctionTerm("linear", c, index=i) for i, c in pairs))


def _const(c):
    return CovariateFunction((FunctionTerm("const", c),))


_SPEC5 = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])


@pytest.fixture(scope="module")
def grid5():
    return gb.gauss_legendre_box(5, -2.0, 2.0, 10)


@pytest.fixture(scope="module")
def p2_truth():
    config = gb.builtin_scenario("P2", "T1", "M1")
    return gb.TruthFunctions.from_scenario(config)


def test_symmetric_null_tilt_is_one():
    # constant participation, constant propensity 1/2, H = (1)
    spec = gb.BasisSpec.from_names(["const"])
    config = gb.ScenarioConfig(
        name="null",
        propensity_logit=_const(0.0),
        cate=_linear((0, 1.0)),
        baseline=_linear((0, 0.5)),
        participation_logit=_const(0.0),
        p=1,
        h_names=("const",),
        g_names=(),
    )
    truth = gb.TruthFunctions.from_scenario(config, spec)
    grid = gb.gauss_legendre_box(1, -2.0, 2.0, 24)
    lam0 = gb.solve_limiting_dual(truth, spec, grid)
    r = gb.tilde_r(truth, spec, lam0)
    np.testing.assert_allclose(r(grid.points), 1.0, atol=1e-10)


def test_limiting_dual_requires_logistic_structure(grid5):
    config = gb.builtin_scenario("P3", "T1", "M1")  # max term breaks linearity
    truth = gb.TruthFunctions.from_scenario(config)
    assert truth.lambda_pi is None
    with pytest.raises(HypothesisViolationError):
        gb.solve_limiting_dual(truth, _SPEC5, gb.gauss_legendre_box(5, -2, 2, 6))


def test_limiting_dual_rejects_h_term_degenerate_on_grid():
    # no Gauss-Legendre node has x1 == 5, so that indicator column is all zero
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3", "x1=5"], ["x4", "x5"])
    truth = gb.TruthFunctions.from_scenario(gb.builtin_scenario("P2", "T1", "M1"), spec)
    with pytest.raises(RankDeficiencyError, match="rank 4 < 5 columns"):
        gb.solve_limiting_dual(truth, spec, gb.gauss_legendre_box(5, -2.0, 2.0, 6))


def test_tilt_integrates_to_one_over_source(grid5, p2_truth):
    lam0 = gb.solve_limiting_dual(p2_truth, _SPEC5, grid5)
    r = gb.tilde_r(p2_truth, _SPEC5, lam0)
    rho = p2_truth.participation(grid5.points)
    ws = grid5.weights * rho
    ws = ws / ws.sum()
    assert abs(float(ws @ r(grid5.points)) - 1.0) <= 1e-6


def test_finite_sample_duals_approach_limits_p1():
    # P1 truth at n_s ~ 50000: fitted raw-coordinate duals near the limits
    config = gb.builtin_scenario("P1", "T1", "M1", n=100_000, seed=9)
    spec = config.basis()
    truth = gb.TruthFunctions.from_scenario(config)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 10)
    lam0 = gb.solve_limiting_dual(truth, spec, grid)
    limits = np.concatenate([lam0 - truth.lambda_pi, lam0, -truth.gamma_pi / 2.0])
    draw = gb.draw_replicate(config, 0)
    assert abs(draw.sample.n_s - 50_000) < 2_000
    design = gb.evaluate_basis(spec, draw.sample)
    target = gb.align_target_summary(spec, draw.target_means, design, n_t=draw.n_t)
    sol, _ = gb.solve_extended(design, target, draw.sample.treated)
    l1, l0, g = sol.unstandardized(design)
    fitted = np.concatenate([l1, l0, g])
    assert np.abs(fitted - limits).max() <= 0.05


def test_treated_weight_function_converges_to_tilted_inverse_propensity():
    # the fitted treated tilting function approaches r(x) / pi(x); the sup
    # deviation over the support decays with n_s (parameter noise gets
    # exponentiated at the boundary, so this needs a larger draw than the
    # dual-parameter check above)
    config = gb.builtin_scenario("P2", "T1", "M1", n=400_000, seed=5)
    spec = config.basis()
    truth = gb.TruthFunctions.from_scenario(config)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 10)
    lam0 = gb.solve_limiting_dual(truth, spec, grid)
    draw = gb.draw_replicate(config, 0)
    design = gb.evaluate_basis(spec, draw.sample)
    target = gb.align_target_summary(spec, draw.target_means, design, n_t=draw.n_t)
    sol, _ = gb.solve_extended(design, target, draw.sample.treated)
    l1, l0, g = sol.unstandardized(design)
    r = gb.tilde_r(truth, spec, lam0)
    check = np.random.default_rng(1).uniform(-2, 2, (200, 5))
    w_fn = np.exp(spec.evaluate_h(check) @ l1 + spec.evaluate_g(check) @ g)
    ratio = w_fn * truth.propensity(check) / r(check)
    assert np.abs(ratio - 1.0).max() < 0.05


def test_projection_idempotent_on_span_members(grid5, p2_truth):
    f = _linear((0, 1.0), (1, -0.6), (2, -0.4))  # inside span{H}
    proj = gb.project_h(f, p2_truth, _SPEC5, grid5)
    np.testing.assert_allclose(proj(grid5.points), f(grid5.points), atol=1e-8)
    np.testing.assert_allclose(proj.coefficients, [0.0, 1.0, -0.6, -0.4], atol=1e-8)


def test_projection_annihilates_orthogonal_functions(grid5, p2_truth):
    f = _linear((3, 1.0))  # x4
    proj = gb.project_h(f, p2_truth, _SPEC5, grid5)

    def resid(X):
        return f(X) - proj(X)

    # the residual is orthogonal to H, so projecting it again gives ~0
    proj2 = gb.project_h(resid, p2_truth, _SPEC5, grid5)
    np.testing.assert_allclose(proj2.coefficients, 0.0, atol=1e-8)


def test_g_perp_projection_of_h_terms_is_zero(grid5, p2_truth):
    for k, pairs in enumerate([((0, 1.0),), ((1, 1.0),), ((2, 1.0),)]):
        proj = gb.project_g_perp(_linear(*pairs), p2_truth, _SPEC5, grid5)
        np.testing.assert_allclose(proj.coefficients, 0.0, atol=1e-8)


def test_projection_contracts_weighted_norm(grid5, p2_truth):
    lam0 = gb.solve_limiting_dual(p2_truth, _SPEC5, grid5)
    r = gb.tilde_r(p2_truth, _SPEC5, lam0)
    rv = r(grid5.points)
    rho = p2_truth.participation(grid5.points)
    ws = grid5.weights * rho
    ws = ws / ws.sum()
    rng = np.random.default_rng(0)
    for _ in range(4):
        coefs = rng.normal(size=5)
        f = _linear(*((i, float(c)) for i, c in enumerate(coefs)))
        fv = f(grid5.points)
        proj = gb.project_h(f, p2_truth, _SPEC5, grid5)(grid5.points)
        lhs = float(ws @ (rv * (fv - proj) ** 2))
        rhs = float(ws @ (rv * fv ** 2))
        assert lhs <= rhs + 1e-12


def test_variance_report_p2_t1_m1(grid5, p2_truth):
    report = gb.asymptotic_variance(p2_truth, _SPEC5, grid5, asserted_conditions=("c",))
    assert report.v1 > 0 and report.v2 > 0
    assert report.v3 >= -1e-10
    # baseline is linear in span{H, G}, so the projection residual vanishes
    assert report.v3 == pytest.approx(0.0, abs=1e-12)
    assert report.total == pytest.approx(report.v1 + report.v2 + report.v3)
    assert report.rho_marginal == pytest.approx(0.5, abs=1e-12)
    assert report.conditions["tau_in_span_h"] is True


def test_v3_nonnegative_across_scenarios(grid5):
    for p_tag in ("P1", "P2"):
        for t_tag in ("T1", "T2"):
            for m_tag in ("M1", "M2"):
                truth = gb.TruthFunctions.from_scenario(
                    gb.builtin_scenario(p_tag, t_tag, m_tag)
                )
                report = gb.asymptotic_variance(truth, _SPEC5, grid5)
                assert report.v3 >= -1e-10


def test_outcome_relevant_g_term_reduces_v3(grid5):
    # under P1 the tilt does not depend on G, so dropping x5 from G only
    # changes the projection span; M1 loads on x5, so v3 must rise
    full = gb.TruthFunctions.from_scenario(gb.builtin_scenario("P1", "T1", "M1"))
    spec_full = _SPEC5
    spec_small = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4"])
    truth_small = gb.TruthFunctions.from_scenario(
        gb.builtin_scenario("P1", "T1", "M1"), spec_small
    )
    rep_full = gb.asymptotic_variance(full, spec_full, grid5)
    rep_small = gb.asymptotic_variance(truth_small, spec_small, grid5)
    assert rep_full.v3 < rep_small.v3 - 1e-6
    assert rep_full.total < rep_small.total


def test_monotone_refinement_of_projection_span(grid5, p2_truth):
    # mean residual under the joint span is no larger than under H alone
    lam0 = gb.solve_limiting_dual(p2_truth, _SPEC5, grid5)
    r = gb.tilde_r(p2_truth, _SPEC5, lam0)
    rv = r(grid5.points)
    rho = p2_truth.participation(grid5.points)
    ws = grid5.weights * rho
    ws = ws / ws.sum()
    mu1 = p2_truth.mu1(grid5.points)
    pi_h = gb.project_h(p2_truth.mu1, p2_truth, _SPEC5, grid5)(grid5.points)
    pi_gp = gb.project_g_perp(p2_truth.mu1, p2_truth, _SPEC5, grid5)(grid5.points)
    res_hg = float(ws @ (rv * (mu1 - pi_h - pi_gp) ** 2))
    res_h = float(ws @ (rv * (mu1 - pi_h) ** 2))
    assert res_hg <= res_h + 1e-12


def test_condition_abc_scenario_attains_bound():
    spec = _SPEC5
    lambda_pi = np.array([0.0, 0.0, 0.35, 0.25])
    gamma_pi = np.array([0.2, -0.7])
    lam = np.array([0.0, 0.4, 0.3, 0.0])
    rho = gb.condition_b_participation(spec, lambda_pi, gamma_pi, lam)
    pi_logit = PROPENSITY_MODELS["P2"]
    cate = CATE_MODELS["T1"]
    base_h = _linear((0, 0.5), (1, 0.3), (2, 0.3))
    truth = gb.TruthFunctions(
        propensity=lambda X: sigmoid(pi_logit(X)),
        participation=rho,
        mu1=lambda X: base_h(X) + 0.5 * cate(X),
        mu0=lambda X: base_h(X) - 0.5 * cate(X),
        sigma2_1=lambda X: np.ones(np.atleast_2d(X).shape[0]),
        sigma2_0=lambda X: np.ones(np.atleast_2d(X).shape[0]),
        lambda_pi=lambda_pi,
        gamma_pi=gamma_pi,
        tau_in_span_h=True,
        mu_in_span_h=True,
        condition_b="holds",
    )
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 10)
    report = gb.asymptotic_variance(truth, spec, grid, asserted_conditions=("a", "b", "c"))
    assert report.v3 == pytest.approx(0.0, abs=1e-12)
    assert abs(report.total / report.efficiency_bound - 1.0) <= 0.01
    # under the constructed participation, the tilt equals the closed-form
    # density ratio between target and source
    rv = report.r_tilde(grid.points)
    rho_v = truth.participation(grid.points)
    closed = report.rho_marginal * (1 - rho_v) / ((1 - report.rho_marginal) * rho_v)
    np.testing.assert_allclose(rv, closed, atol=1e-9)


def test_limiting_dual_iteration_cap_raises_with_residuals(p2_truth):
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 6)
    with pytest.raises(NonConvergenceError) as err:
        gb.solve_limiting_dual(p2_truth, _SPEC5, grid, max_iter=1)
    residuals = np.asarray(err.value.residuals)
    assert residuals.shape == (len(_SPEC5.h_terms),)
    assert np.abs(residuals).max() > 1e-8


def test_projection_failure_names_the_g_perp_span_and_the_term():
    # no Gauss-Legendre node has x4 == 5, so that G column is all zero
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5", "x4=5"])
    truth = gb.TruthFunctions.from_scenario(gb.builtin_scenario("P2", "T1", "M1"), spec)
    with pytest.raises(RankDeficiencyError, match=r"G⊥.*x4=5"):
        gb.asymptotic_variance(truth, spec, gb.gauss_legendre_box(5, -2.0, 2.0, 6))


_REPORT_KEYS = ("v1", "v2", "v3", "total", "efficiency_bound", "gap", "tau_star", "rho_marginal")

# AsymptoticReport.to_dict() on the 8-node grid, computed by the
# projection-by-projection implementation this module replaced:
# (lambda0_star, values in _REPORT_KEYS order) per cell
_PINNED_REPORTS = {
    "P1-T1-M1": (
        [0.7975980309076446, -0.39503423083021905, 0.04440811754908466, 0.2356311438134021],
        [13.417796863033187, 4.015352774563044, 2.5965484866724818e-27, 17.43314963759623,
         18.96492768165414, -1.5317780440579085, -0.13780522263384987, 0.5],
    ),
    "P1-T1-M2": (
        [0.7975980309076446, -0.39503423083021905, 0.04440811754908466, 0.2356311438134021],
        [13.417796863033187, 4.015352774563045, 2.9913034388921145, 20.424453076488344,
         18.96492768165414, 1.4595253948342055, -0.1378052226338498, 0.5],
    ),
    "P1-T2-M1": (
        [0.7975980309076446, -0.39503423083021905, 0.04440811754908466, 0.2356311438134021],
        [13.417796863033187, 4.884254557057227, 1.4175426282171466, 19.71959404830756,
         20.895591069585354, -1.1759970212777944, -1.1556264835945183, 0.5],
    ),
    "P1-T2-M2": (
        [0.7975980309076446, -0.39503423083021905, 0.04440811754908466, 0.2356311438134021],
        [13.417796863033187, 4.884254557057226, 4.226397283047989, 22.5284487031384,
         20.895591069585354, 1.6328576335530478, -1.1556264835945183, 0.5],
    ),
    "P2-T1-M1": (
        [0.7957997051865938, -0.395106341590886, -0.12483798246430498, 0.12078398545425392],
        [13.279914120708995, 4.015352774562973, 7.845821100486874e-28, 17.29526689527197,
         18.605918218609425, -1.3106513233374564, -0.13780522263384987, 0.5],
    ),
    "P2-T1-M2": (
        [0.7957997051865938, -0.395106341590886, -0.12483798246430498, 0.12078398545425392],
        [13.279914120708995, 4.015352774562973, 2.9792495860314867, 20.274516481303454,
         18.605918218609425, 1.6685982626940294, -0.1378052226338498, 0.5],
    ),
    "P2-T2-M1": (
        [0.7957997051865938, -0.395106341590886, -0.12483798246430498, 0.12078398545425392],
        [13.279914120708995, 4.8472672598208915, 1.4012057057907388, 19.528387086320627,
         20.536581606540643, -1.008194520220016, -1.1556264835945183, 0.5],
    ),
    "P2-T2-M2": (
        [0.7957997051865938, -0.395106341590886, -0.12483798246430498, 0.12078398545425392],
        [13.279914120708995, 4.8472672598208915, 4.222912783784844, 22.350094164314733,
         20.536581606540643, 1.8135125577740894, -1.1556264835945183, 0.5],
    ),
    # H = [const, x1, x2, x3] with no G terms, on the P1-T1-M1 truth
    "P1-T1-M1 H-only": (
        [0.7975980309076446, -0.39503423083021905, 0.04440811754908466, 0.2356311438134021],
        [13.417796863033187, 4.015352774563044, 7.287547121462314, 24.720696759058544,
         18.96492768165414, 5.7557690774044055, -0.13780522263384987, 0.5],
    ),
}


def _assert_pinned(report, cell):
    lam0, values = _PINNED_REPORTS[cell]
    d = report.to_dict()
    got = np.array(d["lambda0_star"] + [d[k] for k in _REPORT_KEYS])
    want = np.array(lam0 + values)
    # absolute floor: v3 is ~1e-27 on M1 cells, pure round-off
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.maximum(1.0, np.abs(want)))
    assert d["conditions"] == {
        "asserted": [],
        "logit_in_span": True,
        "tau_in_span_h": "T1" in cell,
        "mu_in_span_h": False,
        "condition_b": "unverified",
    }


@pytest.mark.parametrize("cell", [c for c in _PINNED_REPORTS if "H-only" not in c])
def test_report_matches_pinned_values(cell):
    config = gb.builtin_scenario(*cell.split("-"))
    grid = gb.gauss_legendre_box(config.p, config.low, config.high, 8)
    report = gb.asymptotic_variance(gb.TruthFunctions.from_scenario(config), config.basis(), grid)
    _assert_pinned(report, cell)


def test_h_only_spec_report_matches_pinned_values():
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"])
    truth = gb.TruthFunctions.from_scenario(gb.builtin_scenario("P1", "T1", "M1"), spec)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 8)
    _assert_pinned(gb.asymptotic_variance(truth, spec, grid), "P1-T1-M1 H-only")
    # with no G terms the G-perp projection is empty and evaluates to zero
    proj = gb.project_g_perp(truth.m, truth, spec, grid)
    assert proj.coefficients.shape == (0,)
    np.testing.assert_array_equal(proj(grid.points), 0.0)


def _counting(fn, rows, name):
    def counted(*args, **kwargs):
        rows[name] += len(args[-1])
        return fn(*args, **kwargs)

    return counted


def test_variance_evaluates_each_grid_function_once_per_pass_that_reads_it(
    monkeypatch, grid5, p2_truth
):
    # pass 1 (the dual) reads H, G and rho; pass 2 (the projections) also
    # mu1 and mu0; pass 3 (the variance sums) every function. The passes
    # stack H and G term by term, so each basis term is counted.
    terms = [t.name for t in _SPEC5.terms]
    truths = ("participation", "propensity", "mu1", "mu0", "sigma2_1", "sigma2_0")
    rows = dict.fromkeys([*terms, *truths], 0)
    evaluate = gb.BasisTerm.evaluate

    def counted(term, X):
        rows[term.name] += len(X)
        return evaluate(term, X)

    monkeypatch.setattr(gb.BasisTerm, "evaluate", counted)
    truth = dataclasses.replace(
        p2_truth, **{n: _counting(getattr(p2_truth, n), rows, n) for n in truths}
    )
    gb.asymptotic_variance(truth, _SPEC5, grid5)
    passes = {**dict.fromkeys(terms, 3), "participation": 3, "mu1": 2, "mu0": 2}
    assert rows == {name: passes.get(name, 1) * grid5.size for name in rows}


def test_variance_peak_memory_stays_within_2_grid_vectors(p2_truth):
    # the passes read the grid in row blocks built on request, so a call,
    # grid build included, holds no grid-length array and its peak does
    # not grow with nodes**5 (18**5 points are 7.6 times 12**5)
    gb.asymptotic_variance(p2_truth, _SPEC5, gb.gauss_legendre_box(5, -2.0, 2.0, 4))  # warm caches
    peaks = {}
    for nodes in (12, 18):
        tracemalloc.start()
        try:
            gb.asymptotic_variance(p2_truth, _SPEC5, gb.gauss_legendre_box(5, -2.0, 2.0, nodes))
            peaks[nodes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] <= 2 * 12 ** 5 * 8
    assert peaks[18] <= 1.25 * peaks[12]


@pytest.mark.parametrize("project", [gb.project_h, gb.project_g_perp])
def test_projection_peak_memory_stays_within_2_grid_vectors(p2_truth, project):
    # the projections share the report's streamed second pass, so at 16
    # nodes, grid build included, they hold no grid-length array
    # (16**5 points alone take 42 MB)
    project(p2_truth.m, p2_truth, _SPEC5, gb.gauss_legendre_box(5, -2.0, 2.0, 4))  # warm caches
    tracemalloc.start()
    try:
        project(p2_truth.m, p2_truth, _SPEC5, gb.gauss_legendre_box(5, -2.0, 2.0, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 12 ** 5 * 8


# every oracle entry point, called on a truth and a grid
_each_entry_point = pytest.mark.parametrize(
    "entry",
    [
        lambda truth, grid: gb.asymptotic_variance(truth, _SPEC5, grid),
        lambda truth, grid: gb.solve_limiting_dual(truth, _SPEC5, grid),
        lambda truth, grid: gb.project_h(truth.m, truth, _SPEC5, grid),
        lambda truth, grid: gb.project_g_perp(truth.m, truth, _SPEC5, grid),
    ],
    ids=["asymptotic_variance", "solve_limiting_dual", "project_h", "project_g_perp"],
)


@_each_entry_point
def test_oracle_entry_points_never_build_the_grids_points(p2_truth, entry):
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 6)
    entry(p2_truth, grid)
    assert "_arrays" not in grid.__dict__


def _values(report):
    d = report.to_dict()
    return np.array(d["lambda0_star"] + [d[k] for k in _REPORT_KEYS])


def _assert_close(got, want):
    # absolute floor: v3 is ~1e-27 on M1 cells, pure round-off
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("shaped", [True, False], ids=["shaped", "shapeless"])
@pytest.mark.parametrize(
    "chunk", [lambda n: n + 1, lambda n: n, lambda n: n - 1, lambda n: 7],
    ids=["chunk-1-points", "chunk-points", "chunk+1-points", "chunk-7"],
)
def test_chunked_passes_give_the_one_chunk_report(monkeypatch, p2_truth, shaped, chunk):
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 4)
    if not shaped:
        grid = gb.QuadratureGrid(grid.points, grid.weights)
    monkeypatch.setattr(quadrature, "_CHUNK_ROWS", grid.size)
    whole = gb.asymptotic_variance(p2_truth, _SPEC5, grid)
    monkeypatch.setattr(quadrature, "_CHUNK_ROWS", chunk(grid.size))
    report = gb.asymptotic_variance(p2_truth, _SPEC5, grid)
    _assert_close(_values(report), _values(whole))
    # one code path: the public dual is the report's, bit for bit
    lam0 = gb.solve_limiting_dual(p2_truth, _SPEC5, grid)
    np.testing.assert_array_equal(lam0, report.lambda0_star)


@pytest.mark.parametrize("shaped", [True, False], ids=["shaped", "shapeless"])
def test_one_point_grid_gives_a_finite_report(monkeypatch, shaped):
    spec = gb.BasisSpec.from_names(["const"])
    config = gb.ScenarioConfig(
        name="point", propensity_logit=_const(0.3), cate=_linear((0, 1.0)),
        baseline=_linear((0, 0.5)), participation_logit=_const(-0.2), p=1,
        h_names=("const",), g_names=(),
    )
    truth = gb.TruthFunctions.from_scenario(config, spec)
    grid = gb.gauss_legendre_box(1, -2.0, 2.0, 1)
    if not shaped:
        grid = gb.QuadratureGrid(grid.points, grid.weights)
    whole = gb.asymptotic_variance(truth, spec, grid)
    monkeypatch.setattr(quadrature, "_CHUNK_ROWS", 1)
    report = gb.asymptotic_variance(truth, spec, grid)
    assert np.isfinite(_values(report)).all()
    _assert_close(_values(report), _values(whole))
    np.testing.assert_array_equal(gb.solve_limiting_dual(truth, spec, grid), report.lambda0_star)


def _oracle_cli_vmhwm_kb(tmp_path, nodes):
    # the child reads its own high-water mark: a child's rusage would
    # inherit the test process's
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "scenarios": [{"name": "P2-T1-M1", "propensity": "P2", "cate": "T1", "baseline": "M1"}]
    }))
    code = (
        "import sys, genbal.cli\n"
        "code = genbal.cli.main(sys.argv[1:])\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
        "print(code, int(hwm[0].split()[1]))\n"
    )
    args = ["oracle", "--scenario", str(scen), "--cell", "P2-T1-M1", "--nodes", str(nodes),
            "--format", "json", "--out", str(tmp_path / "oracle.json")]
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gb.__file__))},
    )
    status, hwm_kb = map(int, out.stdout.split())
    assert status == 0, out.stderr[-2000:]
    return hwm_kb


# The grid's points are never built whole, so the mark stays near that of
# the interpreter with NumPy loaded (≈36 MB) at any node count; building
# 16**5 or 20**5 points up front put it at 84 or 192 MB.
def test_oracle_cli_at_16_nodes_keeps_its_peak_rss_small(tmp_path):
    assert _oracle_cli_vmhwm_kb(tmp_path, 16) <= 60 * 1024


def test_oracle_cli_at_20_nodes_keeps_its_peak_rss_small(tmp_path):
    assert _oracle_cli_vmhwm_kb(tmp_path, 20) <= 60 * 1024


@pytest.mark.parametrize(
    "h, g, read",
    [
        (("const", "x1", "x2", "x3"), ("x4", "x5"), 3),
        (("const", "x2"), ("x3", "x4", "x5"), 1),
        (("const", "x1", "x2", "x3", "x4:x5"), ("x4", "x5"), 5),
    ],
)
def test_limiting_dual_solves_over_the_sub_grid_of_the_axes_h_reads(monkeypatch, h, g, read):
    rows = []
    solve_dual = oracle._solve_dual

    def spy(problem, *args):
        rows.append(problem.E.shape[2])
        return solve_dual(problem, *args)

    monkeypatch.setattr(oracle, "_solve_dual", spy)
    spec = gb.BasisSpec.from_names(h, g)
    truth = gb.TruthFunctions.from_scenario(gb.builtin_scenario("P2", "T1", "M1"), spec)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 6)
    gb.asymptotic_variance(truth, spec, grid)
    gb.solve_limiting_dual(truth, spec, gb.QuadratureGrid(grid.points, grid.weights))
    assert rows == [6 ** read, 6 ** 5]


@pytest.mark.parametrize("cell", [c for c in _PINNED_REPORTS if "H-only" not in c])
def test_grid_without_a_shape_gives_the_shaped_grids_report(cell):
    config = gb.builtin_scenario(*cell.split("-"))
    truth = gb.TruthFunctions.from_scenario(config)
    grid = gb.gauss_legendre_box(config.p, config.low, config.high, 8)
    shaped = gb.asymptotic_variance(truth, config.basis(), grid).to_dict()
    flat = gb.asymptotic_variance(
        truth, config.basis(), gb.QuadratureGrid(grid.points, grid.weights)
    ).to_dict()
    want = np.array(shaped["lambda0_star"] + [shaped[k] for k in _REPORT_KEYS])
    got = np.array(flat["lambda0_star"] + [flat[k] for k in _REPORT_KEYS])
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * np.maximum(1.0, np.abs(want)))
    assert flat["conditions"] == shaped["conditions"]


_H_CANDIDATES = ("x1", "x2", "x3", "x4", "x1:x2", "x1:x4", "x2:x3", "x3:x4", "x2^2")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    h=st.lists(st.sampled_from(_H_CANDIDATES), unique=True, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_sub_grid_dual_matches_the_dual_over_every_row(h, seed):
    # G and the participation read every axis, so only H is constant along
    # the axes it does not read
    rng = np.random.default_rng(seed)
    spec = gb.BasisSpec.from_names(["const", *h], ["x4^2", "x1:x3"])
    slope = rng.normal(scale=0.4, size=4)
    unused = lambda X: np.zeros(len(X))  # noqa: E731
    truth = gb.TruthFunctions(
        propensity=unused,
        participation=lambda X: sigmoid(X @ slope + 0.1),
        mu1=unused,
        mu0=unused,
        sigma2_1=unused,
        sigma2_0=unused,
        lambda_pi=rng.normal(scale=0.3, size=len(spec.h_terms)),
        gamma_pi=rng.normal(scale=0.3, size=2),
    )
    grid = gb.gauss_legendre_box(4, -1.5, 2.0, 5)
    sub = gb.solve_limiting_dual(truth, spec, grid)
    full = gb.solve_limiting_dual(truth, spec, gb.QuadratureGrid(grid.points, grid.weights))
    np.testing.assert_allclose(sub, full, rtol=1e-10, atol=1e-10)


@_each_entry_point
def test_oracle_rejects_a_basis_reading_past_the_grids_dimension(p2_truth, entry):
    with pytest.raises(ValidationError, match="x5 but the grid has p=3") as info:
        entry(p2_truth, gb.gauss_legendre_box(3, -2.0, 2.0, 4))
    assert info.value.code == "INDEX_OUT_OF_RANGE"


def _hot(value):
    # value on the rows with x1 > 1.5, 0.5 elsewhere
    return lambda X: np.where(X[:, 0] > 1.5, value, 0.5)


@pytest.mark.parametrize(
    "field, value, entry",
    [
        ("mu1", np.inf, "asymptotic_variance"),
        ("mu0", np.nan, "asymptotic_variance"),
        ("propensity", np.nan, "asymptotic_variance"),
        ("participation", np.nan, "asymptotic_variance"),
        ("participation", np.nan, "solve_limiting_dual"),
        ("sigma2_1", np.inf, "asymptotic_variance"),
        ("sigma2_0", np.nan, "asymptotic_variance"),
        ("f", np.nan, "project_h"),
        ("f", -np.inf, "project_g_perp"),
    ],
)
def test_non_finite_truth_value_names_the_function_and_a_grid_point(p2_truth, field, value, entry):
    truth = p2_truth if field == "f" else dataclasses.replace(p2_truth, **{field: _hot(value)})
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 4)
    args = (_hot(value), truth) if entry.startswith("project") else (truth,)
    with pytest.raises(ValidationError, match=rf"^{field} is {value} at the grid point \(x1=1\.7\d+, ") as info:
        getattr(gb, entry)(*args, _SPEC5, grid)
    assert info.value.code == "NON_FINITE_CELL"


@pytest.mark.parametrize("field, value", [("mu1", np.nan), ("propensity", 1.0), ("participation", 0.0),
                                          ("sigma2_1", np.inf)])
def test_truth_value_on_a_zero_weight_row_is_not_read(p2_truth, field, value):
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 4)
    weights = np.where(grid.points[:, 0] > 1.5, 0.0, grid.weights)
    zeroed = gb.QuadratureGrid(grid.points, weights / weights.sum())
    want = gb.asymptotic_variance(dataclasses.replace(p2_truth, **{field: _hot(0.5)}), _SPEC5, zeroed)
    report = gb.asymptotic_variance(dataclasses.replace(p2_truth, **{field: _hot(value)}), _SPEC5, zeroed)
    np.testing.assert_array_equal(_values(report), _values(want))


@pytest.mark.parametrize("field, value", [("propensity", 1.0), ("propensity", 0.0), ("participation", 0.0)])
def test_saturated_propensity_or_participation_fails_typed(p2_truth, field, value):
    truth = dataclasses.replace(p2_truth, **{field: _hot(value)})
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 4)
    with pytest.raises(HypothesisViolationError, match=rf"^{field} reaches {value:g} at the grid point \(x1=1\.7"):
        gb.asymptotic_variance(truth, _SPEC5, grid)


@pytest.mark.parametrize("points, weights", [(np.zeros((0, 5)), np.zeros(0)), (np.zeros((3, 5)), np.zeros(3))],
                         ids=["no-rows", "zero-weights"])
def test_variance_on_a_grid_without_mass_is_a_validation_error(p2_truth, points, weights):
    with pytest.raises(ValidationError, match="grid weights must have a positive sum"):
        gb.asymptotic_variance(p2_truth, _SPEC5, gb.QuadratureGrid(points, weights))


def test_noise_sd_whose_square_overflows_fails_typed():
    config = gb.builtin_scenario("P2", "T1", "M1", noise_sd=1e200)
    truth = gb.TruthFunctions.from_scenario(config)
    with pytest.raises(ValidationError, match=r"^sigma2_1 is inf at the grid point \(x1=") as info:
        gb.asymptotic_variance(truth, config.basis(), gb.gauss_legendre_box(config.p, config.low, config.high, 4))
    assert info.value.code == "NON_FINITE_CELL"
