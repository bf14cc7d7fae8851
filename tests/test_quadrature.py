"""Tensor Gauss-Legendre grids: shape, exactness, guards; import footprint."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import genbal as gb
from genbal.errors import ValidationError
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
    assert grid.expect(x[:, 0] * x[:, 1] ** 2 * x[:, 2] ** 3) == pytest.approx(exact, rel=1e-13)


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
