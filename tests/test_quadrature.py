"""Tensor Gauss-Legendre grids: shape, exactness, guards; import footprint."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import genbal as gb
import genbal.quadrature as quadrature
from genbal.errors import ValidationError
from genbal.oracle import _check_dimension
from genbal.quadrature import MAX_POINTS


def test_grid_shape_order_and_weights():
    grid = gb.gauss_legendre_box(3, -1.0, 3.0, 4)
    assert grid.points.shape == (64, 3)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # first axis varies slowest
    np.testing.assert_array_equal(grid.points[:16, 0], grid.points[0, 0])
    # integrates a polynomial of degree <= 2 * nodes - 1 per axis exactly
    x = grid.points
    exact = 1.0 * (7.0 / 3.0) * 5.0  # E[X1] E[X2^2] E[X3^3] on U(-1, 3)
    assert grid.weights @ (x[:, 0] * x[:, 1] ** 2 * x[:, 2] ** 3) == pytest.approx(exact, rel=1e-13)


def test_zero_dimensional_grid_is_the_empty_product():
    grid = gb.gauss_legendre_box(0, nodes=16)
    assert grid.points.shape == (1, 0)
    np.testing.assert_array_equal(grid.weights, [1.0])


@pytest.mark.parametrize(
    "p, nodes, message",
    [
        (-1, 16, "p=-1 must be >= 0"),
        (2, 0, "nodes=0"),
        (7, 16, f"p=7, nodes=16 has {16 ** 7} points, over the budget of {MAX_POINTS}"),
        (25, 2, f"p=25, nodes=2 has {2 ** 25} points"),
    ],
)
def test_grid_guards(p, nodes, message):
    with pytest.raises(ValidationError) as info:
        gb.gauss_legendre_box(p, nodes=nodes)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"p": 2, "nodes": 2.5}, "nodes=2.5 must be an integer"),
        ({"p": 2, "nodes": True}, "nodes=True must be an integer"),
        ({"p": 2.0, "nodes": 3}, "p=2.0 must be an integer"),
        ({"p": False, "nodes": 3}, "p=False must be an integer"),
        ({"p": 2, "low": 2.0, "high": -2.0}, "low < high, got low=2.0, high=-2.0"),
        ({"p": 2, "low": 1.0, "high": 1.0}, "low < high, got low=1.0, high=1.0"),
        ({"p": 2, "low": float("nan")}, "low=nan must be a finite number"),
        ({"p": 2, "high": float("inf")}, "high=inf must be a finite number"),
        ({"p": 2, "high": "2"}, "high='2' must be a finite number"),
    ],
)
def test_grid_rejects_arguments_that_would_mirror_or_poison_it(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        gb.gauss_legendre_box(**kwargs)


def test_grid_records_its_tensor_shape():
    assert gb.gauss_legendre_box(3, nodes=np.int64(4)).shape == (4, 4, 4)
    assert gb.gauss_legendre_box(0).shape == ()
    grid = gb.gauss_legendre_box(2, nodes=3)
    assert gb.QuadratureGrid(grid.points, grid.weights).shape is None


def test_hand_built_grid_is_coerced_and_read_only():
    grid = gb.QuadratureGrid([[0.0, 1.0], [1.0, 1.0]], [0.25, 0.75])
    assert grid.points.dtype == float and grid.weights.dtype == float
    assert grid.shape is None
    assert not grid.points.flags.writeable and not grid.weights.flags.writeable
    assert grid.weights @ [4.0, 8.0] == 7.0


# the all-None third column keeps each case's id stable
@pytest.mark.parametrize(
    "points, weights, _none, message",
    [
        ([0.0, 1.0, 2.0], [0.5, 0.25, 0.25], None, "2-d .* got ndim=1"),
        ([[0.0], [np.nan]], [0.5, 0.5], None, "points must be finite"),
        ([[0.0], [1.0, 2.0]], [0.5, 0.5], None, "must be numeric arrays"),
        ([[0.0], [1.0]], ["a", 0.5], None, "must be numeric arrays"),
        (np.zeros((4, 2)), np.full(3, 1 / 3), None, r"1-d array of 4 entries, .* got shape \(3,\)"),
        (np.zeros((2, 1)), [[0.5, 0.5]], None, r"got shape \(1, 2\)"),
        (np.zeros((2, 1)), [1.5, -0.5], None, "finite and non-negative"),
        (np.zeros((2, 1)), [np.nan, 1.0], None, "finite and non-negative"),
        (np.zeros((0, 2)), np.zeros(0), None, "positive sum, got 0 over 0 points"),
        (np.zeros((2, 1)), [0.0, 0.0], None, "positive sum, got 0 over 2 points"),
    ],
)
def test_grid_construction_rejects_inconsistent_parts(points, weights, _none, message):
    with pytest.raises(ValidationError, match=message):
        gb.QuadratureGrid(points, weights)


def test_over_budget_grid_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            gb.gauss_legendre_box(9, nodes=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == "QUADRATURE_BUDGET"
    assert peak < 1 << 20


def _whole_grid(p, nodes, low=-2.0, high=2.0):
    # every point at once: coordinates broadcast from the nodes, each
    # weight the left-to-right product of its axes' weights
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = low + (high - low) * (x + 1.0) / 2.0
    w = w / w.sum()
    points = np.empty((nodes ** p, p))
    axes = points.reshape((nodes,) * p + (p,))
    for j in range(p):
        axes[..., j] = x.reshape((nodes,) + (1,) * (p - 1 - j))
    weights = np.ones(1)
    for _ in range(p):
        weights = np.multiply.outer(weights, w).ravel()
    return points, weights


@pytest.mark.parametrize("chunk", ["7", "size-1", "size", "size+1", "default"])
@pytest.mark.parametrize("p, nodes", [(0, 16), (1, 1), (1, 9), (3, 4), (5, 6), (5, 7)])
def test_row_blocks_are_the_whole_grids_rows_bit_for_bit(monkeypatch, p, nodes, chunk):
    size = nodes ** p
    rows = {"7": 7, "size-1": max(size - 1, 1), "size": size, "size+1": size + 1,
            "default": quadrature._CHUNK_ROWS}[chunk]
    monkeypatch.setattr(quadrature, "_CHUNK_ROWS", rows)
    points, weights = _whole_grid(p, nodes)
    tensor = gb.gauss_legendre_box(p, nodes=nodes)
    # blocks of `rows` rows in order, the last one shorter
    bounds = [(a, min(a + rows, size)) for a in range(0, size, rows)]
    for grid in (tensor, gb.QuadratureGrid(points, weights)):
        got = list(grid.blocks())
        assert [(a, b) for a, b, _, _ in got] == bounds
        for a, b, X, w in got:
            assert np.array_equal(X, points[a:b]) and np.array_equal(w, weights[a:b]), (a, b)
    # built whole on first access, with the same bits, C order, read-only
    assert np.array_equal(tensor.points, points) and np.array_equal(tensor.weights, weights)
    assert tensor.points.flags.c_contiguous
    assert not tensor.points.flags.writeable and not tensor.weights.flags.writeable
    assert tensor.points is tensor.points


@pytest.mark.parametrize("chunk", ["1", "7", "size-1", "size", "size+1", "default"])
@pytest.mark.parametrize("shape", [(3, 4, 5), (12,) * 5, (5, 1, 2), (1,), (), None],
                         ids=["3x4x5", "12^5", "5x1x2", "one-point", "p=0", "shapeless"])
def test_sub_grid_nodes_are_the_read_axes_digits_of_each_row(monkeypatch, shape, chunk):
    if shape is None:
        grid, axes = gb.QuadratureGrid(np.zeros((11, 2)), np.full(11, 1 / 11)), (11,)
    else:
        grid, axes = quadrature.QuadratureGrid._tensor(tuple((np.arange(n), np.ones(n)) for n in shape)), shape
    size = grid.size
    rows = {"1": 1, "7": 7, "size-1": max(size - 1, 1), "size": size, "size+1": size + 1,
            "default": quadrature._CHUNK_ROWS}[chunk]
    monkeypatch.setattr(quadrature, "_CHUNK_ROWS", rows)
    lengths = [b - a for a, b, _, _ in itertools.islice(grid.blocks(), 300)]
    for k in range(len(axes) + 1):
        for read in itertools.combinations(range(len(axes)), k):
            # the first 300 blocks: all of them but for 12^5 in blocks of 1 or 7 rows
            got = list(itertools.islice(grid._nodes(set(read)), 300))
            assert [len(n) for n in got] == lengths
            i = np.arange(sum(lengths))
            want = np.zeros_like(i)
            if read:
                digits = np.unravel_index(i, axes)
                want = np.ravel_multi_index([digits[j] for j in read], [axes[j] for j in read])
            assert np.array_equal(np.concatenate(got), want), read


def test_one_grid_reads_the_same_rows_as_the_block_size_changes(monkeypatch):
    points, weights = _whole_grid(5, 4)
    grid = gb.gauss_legendre_box(5, nodes=4)
    for rows in (7, 1024, 3, 5000):
        monkeypatch.setattr(quadrature, "_CHUNK_ROWS", rows)
        got = list(grid.blocks())
        assert np.array_equal(np.vstack([X for _, _, X, _ in got]), points), rows
        assert np.array_equal(np.concatenate([w for _, _, _, w in got]), weights), rows


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_grid_builds_no_rows_until_read():
    # 16**5 points take 50 MB as points plus weights
    assert _traced_peak(lambda: gb.gauss_legendre_box(5, nodes=16)) < 1 << 20


def test_size_shape_dimension_and_dimension_check_build_no_rows():
    grid = gb.gauss_legendre_box(5, nodes=16)
    spec = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])

    def read():
        assert (grid.size, grid.shape, grid.dim) == (16 ** 5, (16,) * 5, 5)
        _check_dimension(spec, grid)

    assert _traced_peak(read) < 1 << 20


def test_import_genbal_leaves_scipy_unloaded():
    code = "import sys, genbal; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gb.__file__))},
    )
    assert out.stdout.strip() == "False"


def test_import_genbal_leaves_process_pool_unloaded():
    # only run_grid(jobs > 1) starts a pool, and it imports one there
    code = (
        "import sys, genbal, genbal.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gb.__file__))},
    )
    assert out.stdout.strip() == "[]"


LAZY_MODULES = ("models", "oracle", "quadrature", "simulation")

# every public name in dir(genbal), by the module it comes from
PUBLIC_NAMES = {
    "basis": ("BasisSpec", "BasisTerm", "DesignMatrices", "RankReport", "SourceSample", "TargetSummary",
              "align_target_summary", "check_design_rank", "evaluate_basis", "parse_term"),
    "errors": ("GenbalError", "HypothesisViolationError", "NonConvergenceError", "RankDeficiencyError",
               "SeparationError", "ValidationError", "WeightUnderflowError"),
    "estimators": ("ESTIMATOR_NAMES", "EstimateReport", "LogisticModel", "estimate_ebal", "estimate_extended",
                   "estimate_ipw", "estimate_ipw_et", "estimate_weighted_ate", "fit_logistic_irls"),
    "mathutil": (),
    "models": ("BASELINE_MODELS", "CATE_MODELS", "PARTICIPATION_LOGIT", "PROPENSITY_MODELS",
               "CovariateFunction", "FunctionTerm"),
    "oracle": ("AsymptoticReport", "TruthFunctions", "asymptotic_variance", "condition_b_participation",
               "project_g_perp", "project_h", "solve_limiting_dual", "tilde_r"),
    "quadrature": ("QuadratureGrid", "gauss_legendre_box"),
    "simulation": ("GridResult", "ScenarioConfig", "draw_replicate", "builtin_grid", "builtin_scenario",
                   "run_grid", "true_target_ate"),
    "solver": ("BalanceReport", "CalibrationSolution", "DualSolution", "Method", "SolverOptions", "WeightSet",
               "balance_residuals", "dual_objective", "solve_att", "solve_ebal", "solve_et_calibration",
               "solve_extended", "solve_two_step"),
}


def test_import_genbal_cli_leaves_simulation_and_oracle_unloaded():
    # estimate and weights never run them; simulate and oracle import them
    code = (
        "import sys, genbal.cli; "
        f"print(sorted(m for m in {LAZY_MODULES!r} if 'genbal.' + m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gb.__file__))},
    )
    assert out.stdout.strip() == "[]"


def test_every_public_name_resolves_to_its_module_binding():
    import importlib

    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"genbal.{module_name}")
        assert getattr(gb, module_name) is module
        for name in names:
            assert getattr(gb, name) is getattr(module, name), name
    assert {*PUBLIC_NAMES, *(n for names in PUBLIC_NAMES.values() for n in names)} <= set(dir(gb))


@pytest.mark.parametrize("module_name, name", [("simulation", "run_grid"), ("models", "CATE_MODELS"),
                                               ("oracle", "asymptotic_variance")])
def test_lazy_name_reads_the_current_module_binding(monkeypatch, module_name, name):
    # tracers rebind functions in the submodule and undo it; nothing is cached in genbal
    module = getattr(gb, module_name)
    original, stand_in = getattr(module, name), object()
    monkeypatch.setattr(module, name, stand_in)
    assert getattr(gb, name) is stand_in
    monkeypatch.undo()
    assert getattr(gb, name) is original


def test_unknown_genbal_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'genbal' has no attribute 'no_such_name'"):
        gb.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from genbal import no_such_name  # noqa: F401
