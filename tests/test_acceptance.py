"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavier criteria (pattern reproduction, Monte Carlo variance) use
fixed master seeds, so every run is bit-identical.
"""

import json
import time

import numpy as np
import pytest

import genbal as gb
from genbal.cli import main
from genbal.fileio import ColumnSchema, load_source_csv, write_source_csv
from genbal.mathutil import sigmoid
from genbal.models import CATE_MODELS, PROPENSITY_MODELS, CovariateFunction, FunctionTerm
from genbal.solver import _JointDual

from helpers import (
    finite_difference_gradient,
    finite_difference_hessian,
    primal_joint_weights,
    random_instance,
)

MASTER_SEED = 20260809


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_sized_instance(rng):
    n_s = int(rng.integers(50, 501))
    k_h = int(rng.integers(1, 5))
    k_g = int(rng.integers(0, 4))
    return random_instance(rng, n_s=n_s, k_h=k_h, k_g=k_g, ensure_feasible=False)


def test_criterion_1_dual_primal_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    solved = 0
    regenerated = 0
    worst_residual = 0.0
    worst_gap = 0.0
    while solved < 100:
        sample, spec, design, target, _ = _random_sized_instance(rng)
        try:
            sol, ws = gb.solve_extended(design, target, sample.treated)
        except gb.NonConvergenceError:
            regenerated += 1
            assert regenerated < 20, "too many infeasible draws"
            continue
        solved += 1
        res = gb.balance_residuals(design, target, sample.treated, ws.w)
        worst_residual = max(worst_residual, res.sup_norm)
        _, grad, _ = gb.dual_objective(
            sol.lambda1, sol.lambda0, sol.gamma, design, target, sample.treated
        )
        worst_gap = max(worst_gap, float(np.abs(grad - res.stacked()).max()))
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-8 and worst_gap <= 1e-12 and elapsed < 10.0
    _report(
        "criterion 1 (dual-primal equivalence)",
        ok,
        f"100 solves, max residual {worst_residual:.2e}, max grad-residual gap "
        f"{worst_gap:.2e}, {elapsed:.1f}s (regenerated {regenerated})",
    )


def test_criterion_2_one_step_two_step_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    solved = 0
    while solved < 100:
        sample, spec, design, target, _ = _random_sized_instance(rng)
        try:
            _, ws_one = gb.solve_ebal(design, target, sample.treated)
            ws_two = gb.solve_two_step(design, target, sample.treated)
        except gb.NonConvergenceError:
            continue
        solved += 1
        worst = max(worst, float(np.abs(ws_one.w - ws_two.w).max()))
    ok = worst <= 1e-6
    _report(
        "criterion 2 (one-step/two-step equivalence)",
        ok,
        f"100 instances, max sup-norm weight difference {worst:.2e}",
    )


def test_criterion_3_primal_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for _ in range(20):
        n_s = int(rng.integers(12, 31))
        k_h = int(rng.integers(1, 3))
        k_g = int(rng.integers(0, 2))
        sample, spec, design, target, _ = random_instance(
            rng, n_s=n_s, k_h=k_h, k_g=k_g, ensure_feasible=True
        )
        _, ws = gb.solve_extended(design, target, sample.treated)
        oracle = primal_joint_weights(design, target, sample.treated)
        worst = max(worst, float(np.abs(ws.w - oracle).max()))
    ok = worst <= 1e-5
    _report(
        "criterion 3 (primal-oracle equivalence)",
        ok,
        f"20 instances (n_s <= 30), max sup-norm difference {worst:.2e}",
    )


def test_criterion_4_gradient_hessian_finite_differences():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(10):
        sample, spec, design, target, _ = random_instance(
            rng, n_s=25, k_h=2, k_g=1, ensure_feasible=False
        )
        problem = _JointDual([design], [target], [sample.treated], score_cap=30.0)
        theta = 0.3 * rng.standard_normal(problem.dim)
        _, (grad,), (hess,) = problem.value_grad_hess(theta[None])
        fd_g = finite_difference_gradient(
            lambda th: problem.value_grad_hess(th[None], with_hess=False)[0][0], theta
        )
        fd_h = finite_difference_hessian(
            lambda th: problem.value_grad_hess(th[None], with_hess=False)[1][0], theta
        )
        worst_g = max(worst_g, float(np.abs(grad - fd_g).max()))
        worst_h = max(worst_h, float(np.abs(hess - fd_h).max()))
    ok = worst_g <= 1e-6 and worst_h <= 1e-6
    _report(
        "criterion 4 (gradient/Hessian vs finite differences)",
        ok,
        f"max gradient deviation {worst_g:.2e}, max Hessian deviation {worst_h:.2e}",
    )


@pytest.fixture(scope="module")
def m1_grid_result():
    cells = [(p, t) for p in ("P1", "P2", "P3") for t in ("T1", "T2")]
    configs = [gb.builtin_scenario(p, t, "M1", seed=MASTER_SEED) for p, t in cells]
    start = time.perf_counter()
    result = gb.run_grid(configs, ["ipw", "ipw_et", "ebal", "extended"], jobs=4)
    return result, time.perf_counter() - start


def test_criterion_5i_p1_cell_pattern(m1_grid_result):
    result, elapsed = m1_grid_result
    cell = {m: result.cell("P1-T1-M1", m) for m in ("ipw", "ebal", "extended")}
    ok = (
        abs(cell["ebal"].bias) <= 0.03
        and abs(cell["extended"].bias) <= 0.03
        and abs(cell["ipw"].bias) >= 0.05
        and cell["extended"].sd < cell["ebal"].sd
        and elapsed < 900.0
    )
    _report(
        "criterion 5i (P1-T1-M1 pattern)",
        ok,
        f"bias ebal {cell['ebal'].bias:+.4f}, extended {cell['extended'].bias:+.4f}, "
        f"ipw {cell['ipw'].bias:+.4f}; sd extended {cell['extended'].sd:.4f} < "
        f"ebal {cell['ebal'].sd:.4f}; grid took {elapsed:.0f}s",
    )


def test_criterion_5ii_missing_confounder_cells(m1_grid_result):
    result, _ = m1_grid_result
    details = []
    ok = True
    for name in ("P2-T1-M1", "P3-T1-M1"):
        ext = result.cell(name, "extended")
        ebal = result.cell(name, "ebal")
        cell_ok = abs(ext.bias) <= 0.04 and abs(ebal.bias) >= 2.0 * abs(ext.bias)
        ok = ok and cell_ok
        details.append(f"{name}: extended {ext.bias:+.4f}, ebal {ebal.bias:+.4f}")
    _report("criterion 5ii (H misses confounders)", ok, "; ".join(details))


def test_criterion_5iii_rmse_dominates_ipw_et(m1_grid_result):
    result, _ = m1_grid_result
    ok = True
    worst = ""
    for s in result.scenarios:
        ext = s.methods["extended"].rmse
        et = s.methods["ipw_et"].rmse
        if not ext <= et:
            ok = False
        worst += f"{s.name}: {ext:.4f} vs {et:.4f}; "
    _report(
        "criterion 5iii (RMSE extended <= IPW+ET in six M1 cells)", ok, worst.rstrip("; ")
    )


def test_criterion_6_limiting_dual_convergence():
    config = gb.builtin_scenario("P2", "T1", "M1", n=100_000, seed=MASTER_SEED)
    spec = config.basis()
    truth = gb.TruthFunctions.from_scenario(config)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 10)
    lam0 = gb.solve_limiting_dual(truth, spec, grid)
    limits = np.concatenate([lam0 - truth.lambda_pi, lam0, -truth.gamma_pi / 2.0])
    draw = gb.draw_replicate(config, 0)
    design = gb.evaluate_basis(spec, draw.sample)
    target = gb.align_target_summary(spec, draw.target_means, design, n_t=draw.n_t)
    sol, _ = gb.solve_extended(design, target, draw.sample.treated)
    l1, l0, g = sol.unstandardized(design)
    fitted = np.concatenate([l1, l0, g])
    dev = float(np.abs(fitted - limits).max())
    ok = dev <= 0.05
    _report(
        "criterion 6 (limiting dual convergence)",
        ok,
        f"n_s = {draw.sample.n_s}, sup-norm deviation from limits {dev:.4f}",
    )


def test_criterion_7a_variance_formula_matches_monte_carlo():
    config = gb.builtin_scenario("P2", "T1", "M1")
    truth = gb.TruthFunctions.from_scenario(config)
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 12)
    report = gb.asymptotic_variance(truth, config.basis(), grid, asserted_conditions=("c",))
    mc_config = gb.builtin_scenario(
        "P2", "T1", "M1", n=20_000, replicates=2_000, seed=MASTER_SEED
    )
    result = gb.run_grid([mc_config], ["extended"], jobs=4)
    agg = result.cell("P2-T1-M1", "extended")
    errors = np.array(agg.errors)
    mc_var = float(mc_config.n * errors.var(ddof=1))
    rel = abs(mc_var / report.total - 1.0)
    ok = rel <= 0.15 and agg.failures == 0
    _report(
        "criterion 7a (variance formula vs Monte Carlo)",
        ok,
        f"formula n*Var = {report.total:.3f}, Monte Carlo {mc_var:.3f} "
        f"({len(errors)} replicates, rel err {rel:.3f})",
    )


def test_criterion_7b_efficiency_bound_attained():
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])
    lambda_pi = np.array([0.0, 0.0, 0.35, 0.25])
    gamma_pi = np.array([0.2, -0.7])
    lam = np.array([0.0, 0.4, 0.3, 0.0])
    rho = gb.condition_b_participation(spec, lambda_pi, gamma_pi, lam)
    pi_logit = PROPENSITY_MODELS["P2"]
    cate = CATE_MODELS["T1"]
    base_h = CovariateFunction((
        FunctionTerm("linear", 0.5, index=0),
        FunctionTerm("linear", 0.3, index=1),
        FunctionTerm("linear", 0.3, index=2),
    ))
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
    grid = gb.gauss_legendre_box(5, -2.0, 2.0, 12)
    report = gb.asymptotic_variance(truth, spec, grid, asserted_conditions=("a", "b", "c"))
    rel = abs(report.total / report.efficiency_bound - 1.0)
    ok = abs(report.v3) <= 1e-10 and rel <= 0.01
    _report(
        "criterion 7b (efficiency bound attained)",
        ok,
        f"v3 = {report.v3:.2e}, total {report.total:.6f} vs bound "
        f"{report.efficiency_bound:.6f} (rel {rel:.2e})",
    )


def test_criterion_8a_grid_determinism_across_jobs():
    payloads = []
    for jobs in (1, 4, 16):
        config = gb.builtin_scenario(
            "P2", "T1", "M1", n=400, replicates=32, seed=MASTER_SEED
        )
        result = gb.run_grid([config], ["ipw", "ebal", "extended"], jobs=jobs)
        payloads.append(result.to_json().encode())
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(
        "criterion 8a (bit-identical aggregates for jobs in {1,4,16})",
        ok,
        f"{len(payloads[0])} bytes each",
    )


def test_criterion_8b_csv_round_trip(tmp_path):
    rng = np.random.default_rng(MASTER_SEED)
    X = rng.uniform(-2, 2, (150, 5))
    A = np.array([1, 0] * 75)
    Y = rng.standard_normal(150)
    sample = gb.SourceSample(X, A, Y)
    schema = ColumnSchema("a", "y", ("x1", "x2", "x3", "x4", "x5"))
    path = tmp_path / "round.csv"
    write_source_csv(path, sample, schema)
    loaded, _ = load_source_csv(path, schema)
    ok = (
        np.array_equal(loaded.X, sample.X)
        and np.array_equal(loaded.A, sample.A)
        and np.array_equal(loaded.Y, sample.Y)
    )
    _report("criterion 8b (CSV round-trip identity)", ok, "150 rows, exact value match")


def test_criterion_8c_cli_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(MASTER_SEED)
    X = rng.uniform(-2, 2, (200, 5))
    pi = sigmoid(0.7 * X[:, 1] + 0.5 * X[:, 2])
    A = (rng.random(200) < pi).astype(int)
    Y = rng.standard_normal(200)
    write_source_csv(
        tmp_path / "s.csv", gb.SourceSample(X, A, Y),
        ColumnSchema("a", "y", ("x1", "x2", "x3", "x4", "x5")),
    )
    (tmp_path / "b.json").write_text(
        json.dumps({"h": ["const", "x1", "x2", "x3"], "g": ["x4", "x5"]})
    )
    (tmp_path / "t.json").write_text(
        json.dumps({"const": 1, "x1": 0.1, "x2": 0.0, "x3": 0.0})
    )
    (tmp_path / "t_missing.json").write_text(json.dumps({"const": 1, "x1": 0.1}))
    (tmp_path / "t_far.json").write_text(
        json.dumps({"const": 1, "x1": 9.0, "x2": 0.0, "x3": 0.0})
    )
    base = ["estimate", "--source", str(tmp_path / "s.csv"), "--basis", str(tmp_path / "b.json")]
    codes = (
        main(base + ["--target-summary", str(tmp_path / "t.json")]),
        main(base + ["--target-summary", str(tmp_path / "t_missing.json")]),
        main(base + ["--target-summary", str(tmp_path / "t_far.json"), "--methods", "ebal"]),
        main(["estimate", "--source", str(tmp_path / "missing.csv"), "--basis",
              str(tmp_path / "b.json"), "--target-summary", str(tmp_path / "t.json")]),
    )
    capsys.readouterr()
    ok = codes == (0, 2, 3, 4)
    _report(
        "criterion 8c (CLI exit codes 0/2/3/4)", ok, f"observed {codes}"
    )
