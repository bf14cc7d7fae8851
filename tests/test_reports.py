"""Report rendering: golden bytes of every kind and format, CSV quoting,
and the import graph that keeps ``fileio`` free of oracle and simulation."""

import ast
import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

import genbal as gb
from genbal.fileio import emit_report, load_scenarios_json
from genbal.simulation import GridResult, ScenarioResult, _aggregate

GOLDEN = Path(__file__).parent / "golden"


def _estimates():
    return [
        gb.EstimateReport("extended", 0.1 + 0.2, 0.5, 4.0, 80.25, 90.0,
                          {"iterations": 7, "grad_norm": 1e-12}),
        gb.EstimateReport("ipw", -1.0 / 3.0, 0.012345678, 12345.678, 9.87654, 1234.5,
                          {"logit_score_norm": 2.5e-9}),
    ]


def _grid():
    def cell(name, tau_star, methods):
        return ScenarioResult(name, tau_star, 200, 4, 180, 196, 188.5, 1,
                              {m: _aggregate(m, e, f) for m, e, f in methods})

    # the second cell's ebal failed on every replicate: its aggregates are NaN
    return GridResult((
        cell("P1-T1-M1", 0.25, [("ebal", [0.1, -0.05, 0.02, 0.3], 0),
                                ("extended", [0.01, 0.02, -0.03], 1)]),
        cell("P2-T2-M2", -1.5, [("ebal", [], 4),
                                ("extended", [1.0 / 3.0, -2.0 / 3.0, 0.125, 0.5], 0)]),
    ))


def _oracle():
    # the 8-node P1-T1-M2 report (values pinned in test_oracle.py)
    return gb.AsymptoticReport(
        lambda0_star=np.array([0.7975980309076446, -0.39503423083021905,
                               0.04440811754908466, 0.2356311438134021]),
        r_tilde=None, v1=13.417796863033187, v2=4.015352774563045, v3=2.9913034388921145,
        total=20.424453076488344, efficiency_bound=18.96492768165414, gap=1.4595253948342055,
        tau_star=-0.1378052226338498, rho_marginal=0.5,
        conditions={"asserted": [], "logit_in_span": True, "tau_in_span_h": True,
                    "mu_in_span_h": False, "condition_b": "unverified"},
    )


# (golden file, report, format, scale_100); JSON ignores scale_100
GOLDEN_CASES = [
    ("estimates.txt", _estimates, "human", False),
    ("estimates.csv", _estimates, "csv", False),
    ("estimates.json", _estimates, "json", False),
    ("grid.txt", _grid, "human", False),
    ("grid_scale100.txt", _grid, "human", True),
    ("grid.csv", _grid, "csv", False),
    ("grid_scale100.csv", _grid, "csv", True),
    ("grid.json", _grid, "json", False),
    ("grid.json", _grid, "json", True),
    ("oracle.txt", _oracle, "human", False),
    ("oracle.csv", _oracle, "csv", False),
    ("oracle.json", _oracle, "json", False),
]


@pytest.mark.parametrize(
    "name,report,fmt,scale_100", GOLDEN_CASES,
    ids=[f"{c[0]}-scale{int(c[3])}" for c in GOLDEN_CASES],
)
def test_report_bytes_match_golden(tmp_path, name, report, fmt, scale_100):
    want = (GOLDEN / name).read_bytes().decode("utf-8")
    assert emit_report(report(), fmt=fmt, scale_100=scale_100) == want
    out = tmp_path / name
    emit_report(report(), fmt=fmt, path=out, scale_100=scale_100)
    assert out.read_bytes().decode("utf-8") == want


def test_grid_csv_quotes_a_scenario_name_with_commas_and_quotes():
    name = 'cell "A", high shift'
    config = dataclasses.replace(gb.builtin_scenario("P1", "T1", "M1", n=200, replicates=2, seed=5),
                                 name=name)
    text = emit_report(gb.run_grid([config], ["ebal"]), fmt="csv")
    header, row = csv.reader(io.StringIO(text))
    assert len(header) == 6 and len(row) == 6
    assert row[:2] == [name, "ebal"]


def _module_level_imports(tree):
    """Import nodes of a module outside any function body."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_fileio_imports_neither_oracle_nor_simulation_at_module_level(tmp_path):
    source = Path(gb.fileio.__file__).read_text()
    banned = []
    for node in _module_level_imports(ast.parse(source)):
        # `from .oracle import x`, `from . import oracle`, `import genbal.oracle`
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        names += [a.name for a in node.names]
        banned += [n for n in names if n.split(".")[-1] in ("oracle", "simulation")]
    assert banned == []
    # the scenario loader imports simulation when it runs
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"builtin_grid": {"n": 300, "replicates": 2}}))
    configs = load_scenarios_json(path)
    assert [c.name for c in configs] == [c.name for c in gb.builtin_grid()]
    assert {(c.n, c.replicates) for c in configs} == {(300, 2)}
