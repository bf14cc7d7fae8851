"""File ingestion, report emission, CLI exit codes and round trips."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import genbal as gb
from genbal.cli import main
from genbal.errors import ValidationError
from genbal.fileio import (
    ColumnSchema,
    emit_report,
    load_basis_json,
    load_scenarios_json,
    load_source_csv,
    load_target_summary,
    write_source_csv,
    write_weights_csv,
)
from genbal.mathutil import sigmoid
from genbal.simulation import MAX_DRAW_CELLS, MAX_REPLICATES

SPEC = gb.BasisSpec.from_names(["const", "x1", "x2", "x3"], ["x4", "x5"])


def _write_inputs(tmp_path, n=250, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 5))
    pi = sigmoid(0.7 * X[:, 1] + 0.5 * X[:, 2])
    A = (rng.random(n) < pi).astype(int)
    Y = 0.5 * X[:, 0] + (A - 0.5) * (X[:, 0] - 0.6 * X[:, 1]) + rng.standard_normal(n)
    sample = gb.SourceSample(X, A, Y)
    schema = ColumnSchema("a", "y", ("x1", "x2", "x3", "x4", "x5"))
    source = tmp_path / "source.csv"
    write_source_csv(source, sample, schema)
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"h": ["const", "x1", "x2", "x3"], "g": ["x4", "x5"]}))
    target = tmp_path / "target.json"
    target.write_text(
        json.dumps({"const": 1, "x1": 0.12, "x2": -0.03, "x3": 0.05, "n_t": 460})
    )
    return sample, schema, source, basis, target


def test_source_csv_round_trip_identity(tmp_path):
    sample, schema, source, _, _ = _write_inputs(tmp_path)
    loaded, meta = load_source_csv(source, schema)
    np.testing.assert_array_equal(loaded.X, sample.X)
    np.testing.assert_array_equal(loaded.A, sample.A)
    np.testing.assert_array_equal(loaded.Y, sample.Y)
    assert meta["columns"] == list(schema.covariates)


def test_source_csv_three_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,y,x1\n1,0.5,2.0\n0,1.5,-1.0\n1,2.5,0.0\n")
    sample, _ = load_source_csv(path, ColumnSchema("a", "y", ("x1",)))
    assert sample.n_s == 3
    np.testing.assert_array_equal(sample.A, [1, 0, 1])


def test_source_csv_rejects_nonbinary_treatment(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y,x1\n1,0.5,2.0\n2,1.5,-1.0\n")
    with pytest.raises(ValidationError) as err:
        load_source_csv(path, ColumnSchema("a", "y", ("x1",)))
    assert err.value.code == "NON_BINARY_TREATMENT"
    assert "line 3" in str(err.value)


def test_source_csv_rejects_empty_outcome(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y,x1\n1,0.5,2.0\n0,,-1.0\n")
    with pytest.raises(ValidationError) as err:
        load_source_csv(path, ColumnSchema("a", "y", ("x1",)))
    assert err.value.code == "NON_FINITE_CELL"
    assert "line 3" in str(err.value) and "'y'" in str(err.value)


def test_source_csv_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1,0.5\n0,1.5\n")
    with pytest.raises(ValidationError) as err:
        load_source_csv(path, ColumnSchema("a", "y", ("x1",)))
    assert err.value.code == "MISSING_COLUMN"


def test_source_csv_categorical_encoding(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("a,y,site\n1,0.5,boston\n0,1.5,chicago\n1,2.5,boston\n0,0.1,ann-arbor\n")
    sample, meta = load_source_csv(
        path, ColumnSchema("a", "y", ("site",), categorical=("site",))
    )
    assert meta["category_codes"]["site"] == {"ann-arbor": 0.0, "boston": 1.0, "chicago": 2.0}
    np.testing.assert_array_equal(sample.X[:, 0], [1.0, 2.0, 1.0, 0.0])


def test_target_summary_alignment_and_errors(tmp_path):
    good = tmp_path / "t.json"
    good.write_text(json.dumps({"x2": -0.03, "const": 1, "x3": 0.05, "x1": 0.12, "n_t": 460}))
    values, n_t = load_target_summary(good, SPEC)
    np.testing.assert_array_equal(values, [1.0, 0.12, -0.03, 0.05])
    assert n_t == 460

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"const": 1, "x1": 0.1, "x3": 0.0}))
    with pytest.raises(ValidationError) as err:
        load_target_summary(missing, SPEC)
    assert err.value.code == "MISSING_TERM" and "x2" in str(err.value)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"const": 1, "x1": 0.1, "x2": 0.0, "x3": 0.0, "x9": 1.0}))
    with pytest.raises(ValidationError) as err:
        load_target_summary(unknown, SPEC)
    assert err.value.code == "UNKNOWN_TERM" and "x9" in str(err.value)

    bad_const = tmp_path / "badconst.json"
    bad_const.write_text(json.dumps({"const": 0.9, "x1": 0.1, "x2": 0.0, "x3": 0.0}))
    with pytest.raises(ValidationError) as err:
        load_target_summary(bad_const, SPEC)
    assert err.value.code == "BAD_CONSTANT"


def test_basis_json_loader(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"h": ["const", "x1", "x2^2"], "g": ["log1p(x3)"]}))
    spec = load_basis_json(path)
    assert spec.h_names == ("const", "x1", "x2^2")
    assert spec.g_names == ("log1p(x3)",)


@pytest.mark.parametrize(
    "content",
    [{"h": ["const", 1]}, {"h": ["const", "x1"], "g": None}, {"h": "const"}],
    ids=["non-string-term", "null-g", "h-not-a-list"],
)
def test_cli_malformed_basis_json_is_validation_error(tmp_path, capsys, content):
    _, _, source, basis, target = _write_inputs(tmp_path)
    basis.write_text(json.dumps(content))
    with pytest.raises(ValidationError):
        load_basis_json(basis)
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target),
    ])
    assert code == 2
    assert "must be a list of term names" in capsys.readouterr().err


def test_unknown_method_same_message_in_run_grid_and_cli(tmp_path, capsys):
    config = gb.builtin_scenario("P1", "T1", "M1", replicates=2)
    with pytest.raises(ValidationError) as err:
        gb.run_grid([config], ["ipw", "bogus"])
    _, _, source, basis, target = _write_inputs(tmp_path)
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target), "--methods", "ipw,bogus",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"genbal: validation error: {err.value}\n"


@pytest.mark.parametrize("writer", ["source", "weights", "report"])
def test_failed_write_keeps_destination_and_leaves_no_temp_file(tmp_path, monkeypatch, writer):
    sample, schema, _, _, _ = _write_inputs(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    dest = out_dir / "dest.txt"
    dest.write_text("previous contents\n")
    weights = gb.WeightSet(np.ones(sample.n_s), gb.Method.IPW, normalized=False)
    report = gb.estimate_weighted_ate(sample, weights)
    write = {
        "source": lambda: write_source_csv(dest, sample, schema),
        "weights": lambda: write_weights_csv(dest, sample, weights),
        "report": lambda: emit_report([report], fmt="json", path=dest),
    }[writer]

    def failing_replace(src, dst):
        raise OSError("simulated failure while replacing the destination")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated failure"):
        write()
    assert dest.read_text() == "previous contents\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["dest.txt"]
    monkeypatch.undo()
    write()
    assert dest.read_text() != "previous contents\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["dest.txt"]


def test_scenarios_loader_builtin_grid(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"builtin_grid": {"replicates": 3, "seed": 2}}))
    configs = load_scenarios_json(path)
    assert len(configs) == 12 and configs[0].replicates == 3


def test_emit_report_empty_rejected():
    with pytest.raises(ValidationError):
        emit_report([])


def test_emit_report_estimate_row(tmp_path):
    report = gb.EstimateReport("extended", 0.25, 0.5, 4.0, 80.0, 90.0, {})
    text = emit_report([report], fmt="human")
    assert "extended" in text and "0.250000" in text
    out = tmp_path / "r.json"
    emit_report([report], fmt="json", path=out)
    payload = json.loads(out.read_text())
    assert payload["schema"] == "genbal/report/1"
    assert payload["estimates"][0]["tau_hat"] == 0.25


def test_emit_report_deterministic_bytes(tmp_path):
    config = gb.builtin_scenario("P1", "T1", "M1", n=300, replicates=6, seed=12)
    result = gb.run_grid([config], ["ebal"])
    a = emit_report(result, fmt="json")
    b = emit_report(result, fmt="json")
    assert a == b
    c = emit_report(result, fmt="csv", scale_100=True)
    assert "P1-T1-M1,ebal" in c


def test_cli_estimate_and_exit_codes(tmp_path, capsys):
    _, _, source, basis, target = _write_inputs(tmp_path)

    out = tmp_path / "est.json"
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target), "--methods", "ebal,extended",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {e["method"] for e in payload["estimates"]} == {"ebal", "extended"}

    # validation error: malformed target summary
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"const": 1, "x1": 0.1}))
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(bad),
    ])
    assert code == 2

    # solver failure: target far outside the support
    infeasible = tmp_path / "inf.json"
    infeasible.write_text(json.dumps({"const": 1, "x1": 9.0, "x2": 0.0, "x3": 0.0}))
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(infeasible), "--methods", "ebal",
    ])
    assert code == 3

    # i/o error: missing input file
    code = main([
        "estimate", "--source", str(tmp_path / "nope.csv"), "--basis", str(basis),
        "--target-summary", str(target),
    ])
    assert code == 4
    capsys.readouterr()


def test_cli_weights_writes_csv(tmp_path):
    sample, _, source, basis, target = _write_inputs(tmp_path)
    out = tmp_path / "w.csv"
    code = main([
        "weights", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target), "--method", "extended", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "row,treatment,weight,method"
    assert len(lines) == sample.n_s + 1
    weights = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert (weights > 0).all()
    t = sample.treated
    assert weights[t].sum() == pytest.approx(sample.n_s)
    assert weights[~t].sum() == pytest.approx(sample.n_s)


def test_cli_weights_with_underflowed_weights_is_a_solver_failure(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.uniform(-50, 50, size=(200, 3))
    sample = gb.SourceSample(X, (rng.random(200) < 0.5).astype(int), rng.normal(size=200))
    source = tmp_path / "source.csv"
    write_source_csv(source, sample, ColumnSchema("a", "y", ("x1", "x2", "x3")))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"h": ["const", "expclip(x1)"], "g": []}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"const": 1, "expclip(x1)": 1e5}))
    code = main([
        "weights", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target), "--method", "extended", "--out", str(tmp_path / "w.csv"),
    ])
    assert code == 3
    assert "rows of the treated arm" in capsys.readouterr().err


@pytest.mark.parametrize("term, message", [
    ("x1=e", "cannot parse basis term 'x1=e'"),
    ("x1=.", "cannot parse basis term 'x1=.'"),
    ("x1=1e", "cannot parse basis term 'x1=1e'"),
    ("x1=+-1", "cannot parse basis term 'x1=+-1'"),
    ("x1=1e999", "indicator term on x1 needs a finite category"),
])
def test_cli_indicator_category_that_is_not_a_finite_number_is_validation_error(tmp_path, capsys, term, message):
    _, _, source, basis, _ = _write_inputs(tmp_path)
    basis.write_text(json.dumps({"h": ["const", term], "g": []}))
    code = main(["weights", "--source", str(source), "--basis", str(basis),
                 "--method", "att", "--out", str(tmp_path / "w.csv")])
    assert code == 2
    assert message in _validation_error(capsys)
    with pytest.raises(ValidationError) as info:
        load_basis_json(basis)
    assert info.value.code == "UNKNOWN_TERM"


def test_cli_weights_att_needs_no_target(tmp_path):
    _, _, source, basis, _ = _write_inputs(tmp_path)
    out = tmp_path / "w.csv"
    code = main([
        "weights", "--source", str(source), "--basis", str(basis),
        "--method", "att", "--out", str(out),
    ])
    assert code == 0
    code = main([
        "weights", "--source", str(source), "--basis", str(basis),
        "--method", "ebal", "--out", str(out),
    ])
    assert code == 2  # target summary required


def test_cli_simulate_deterministic_json(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "scenarios": [{
            "name": "P1-T1-M1", "propensity": "P1", "cate": "T1",
            "baseline": "M1", "n": 300, "replicates": 8, "seed": 3,
        }]
    }))
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"sim{jobs}.json"
        code = main([
            "simulate", "--scenario", str(scen), "--methods", "ebal,extended",
            "--jobs", jobs, "--format", "json", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_oracle_report(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "scenarios": [{
            "name": "P2-T1-M1", "propensity": "P2", "cate": "T1", "baseline": "M1",
        }]
    }))
    out = tmp_path / "oracle.json"
    code = main([
        "oracle", "--scenario", str(scen), "--nodes", "8",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "oracle"
    assert payload["v3"] == pytest.approx(0.0, abs=1e-10)
    assert payload["total"] > 0

    # oracle on a scenario without logistic structure is a validation error
    scen_bad = tmp_path / "p3.json"
    scen_bad.write_text(json.dumps({
        "scenarios": [{
            "name": "P3-T1-M1", "propensity": "P3", "cate": "T1", "baseline": "M1",
        }]
    }))
    code = main(["oracle", "--scenario", str(scen_bad), "--nodes", "6"])
    assert code == 2


def test_cli_oracle_over_quadrature_budget_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "p9.json"
    scen.write_text(json.dumps({
        "scenarios": [{
            "name": "P2-T1-M1", "propensity": "P2", "cate": "T1", "baseline": "M1",
            "p": 9,
        }]
    }))
    code = main(["oracle", "--scenario", str(scen), "--nodes", "16"])
    assert code == 2
    assert "p=9, nodes=16" in capsys.readouterr().err


def test_cli_oracle_on_a_non_finite_outcome_mean_fails_as_simulate_does(tmp_path, capsys):
    scen = tmp_path / "hot.json"
    hot = {"terms": [{"kind": "expaffine", "coef": 1.0, "slopes": {"x1": 400.0}}]}
    scen.write_text(json.dumps({"scenarios": [{**CELL, "baseline": hot}]}))
    assert main(["oracle", "--scenario", str(scen), "--nodes", "6"]) == 2
    assert "mu1 is inf at the grid point (x1=1.8" in _validation_error(capsys)
    config, = load_scenarios_json(scen)
    with pytest.raises(ValidationError) as info:
        gb.asymptotic_variance(gb.TruthFunctions.from_scenario(config), config.basis(),
                               gb.gauss_legendre_box(config.p, config.low, config.high, 6))
    assert info.value.code == "NON_FINITE_CELL"
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert "scenario 'cell': the baseline model gives a non-finite value" in _validation_error(capsys)


def test_cli_oracle_on_a_noise_sd_whose_square_overflows_fails_typed(tmp_path, capsys):
    scen = tmp_path / "loud.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "propensity": "P2", "noise_sd": 1e200}]}))
    assert main(["oracle", "--scenario", str(scen), "--nodes", "6"]) == 2
    assert "sigma2_1 is inf at the grid point (x1=" in _validation_error(capsys)


def test_cli_oracle_on_a_saturated_propensity_writes_no_infinity(tmp_path, capsys):
    scen, out = tmp_path / "wide.json", tmp_path / "oracle.json"
    cell = {"name": "wide", "propensity": "P2", "cate": "T1", "baseline": "M1"}
    scen.write_text(json.dumps({"scenarios": [{**cell, "low": -50, "high": 50}]}))
    args = ["--nodes", "8", "--format", "json", "--out", str(out)]
    assert main(["oracle", "--scenario", str(scen), *args]) == 2
    assert "propensity reaches 1 at the grid point (x1=" in _validation_error(capsys)
    assert not out.exists()
    # the ±20 box stays finite: a strict JSON reader takes its report
    scen.write_text(json.dumps({"scenarios": [{**cell, "low": -20, "high": 20}]}))
    assert main(["oracle", "--scenario", str(scen), *args]) == 0

    def no_constant(name):
        raise AssertionError(f"{name} in the oracle report")

    report = json.loads(out.read_text(), parse_constant=no_constant)
    assert all(np.isfinite(report[k]) for k in ("v1", "v2", "v3", "total", "efficiency_bound", "gap"))


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "nan"), ("--max-iter", "-3")])
def test_cli_invalid_solver_option_is_validation_error(tmp_path, capsys, flag, value):
    _, _, source, basis, target = _write_inputs(tmp_path)
    code = main([
        "estimate", "--source", str(source), "--basis", str(basis),
        "--target-summary", str(target), "--methods", "ebal", flag, value,
    ])
    assert code == 2
    assert f"SolverOptions.{flag[2:].replace('-', '_')}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_simulate_nonpositive_jobs_is_validation_error(tmp_path, capsys, jobs):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "scenarios": [{"name": "cell", "propensity": "P1", "cate": "T1", "baseline": "M1",
                       "n": 50, "replicates": 2}]
    }))
    code = main(["simulate", "--scenario", str(scen), "--methods", "ipw", "--jobs", jobs])
    assert code == 2
    assert f"jobs must be an int >= 1, got {jobs}" in capsys.readouterr().err


def _validation_error(capsys):
    """The one stderr line of a command that exited 2."""
    err = capsys.readouterr().err
    assert err.startswith("genbal: validation error: ") and err.count("\n") == 1, err
    return err


def test_cli_empty_source_csv_is_validation_error(tmp_path, capsys):
    _, _, _, basis, target = _write_inputs(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["estimate", "--source", str(empty), "--basis", str(basis),
                 "--target-summary", str(target)])
    assert code == 2
    assert _validation_error(capsys) == f"genbal: validation error: {empty}: empty file\n"


@pytest.mark.parametrize("command, flag", [
    ("estimate", "--target-summary"), ("weights", "--basis"),
    ("simulate", "--scenario"), ("oracle", "--scenario"),
])
def test_cli_malformed_json_is_validation_error(tmp_path, capsys, command, flag):
    _, _, source, basis, target = _write_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    if command in ("estimate", "weights"):
        paths = {"--basis": basis, "--target-summary": target, flag: bad}
        args = ["--source", str(source), *(a for k, v in paths.items() for a in (k, str(v)))]
        args += ["--out", str(tmp_path / "w.csv")] if command == "weights" else []
    else:
        args = [flag, str(bad)]
    assert main([command, *args]) == 2
    assert f"{bad}: malformed JSON at line 1, column 2" in _validation_error(capsys)


@pytest.mark.parametrize("n_t", ["many", 1.5, True, 0, -3])
def test_cli_bad_target_size_is_validation_error(tmp_path, capsys, n_t):
    _, _, source, basis, target = _write_inputs(tmp_path)
    target.write_text(json.dumps({"const": 1, "x1": 0.12, "x2": -0.03, "x3": 0.05, "n_t": n_t}))
    code = main(["estimate", "--source", str(source), "--basis", str(basis),
                 "--target-summary", str(target), "--methods", "ebal"])
    assert code == 2
    assert f"n_t must be a positive whole number, got {n_t!r}" in _validation_error(capsys)


def test_target_size_loads_whole_floats_as_ints(tmp_path):
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"const": 1, "x1": 0.12, "x2": -0.03, "x3": 0.05, "n_t": 460.0}))
    _, n_t = load_target_summary(target, SPEC)
    assert n_t == 460 and isinstance(n_t, int)


CELL = {"name": "cell", "propensity": "P1", "cate": "T1", "baseline": "M1", "n": 50, "replicates": 2}


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("payload, message", [
    ({"scenarios": [{**CELL, "n": "x"}]}, "scenario 'cell': n must be an integer, got 'x'"),
    ({"scenarios": [{**CELL, "seed": None}]}, "scenario 'cell': seed must be an integer, got None"),
    ({"scenarios": [{**CELL, "low": [1]}]}, "scenario 'cell': low must be a number, got [1]"),
    ({"builtin_grid": {"n": "x"}}, "builtin_grid: n must be an integer, got 'x'"),
    ({"builtin_grid": [800]}, "'builtin_grid' must be a JSON object"),
    ({"builtin_grid": {"n": 800.7}}, "builtin_grid: n must be an integer, got 800.7"),
    ({"scenarios": [{**CELL, "replicates": 2.5}]}, "scenario 'cell': replicates must be an integer, got 2.5"),
    ({"scenarios": [{**CELL, "seed": True}]}, "scenario 'cell': seed must be an integer, got True"),
    ({"scenarios": [{k: v for k, v in CELL.items() if k != "propensity"}]},
     "scenario 'cell': propensity: expected a model tag or an object with a 'terms' list, got None"),
    ({"scenarios": [{k: v for k, v in CELL.items() if k != "baseline"}]}, "scenario 'cell': baseline: expected"),
    ({"scenarios": [5]}, "a scenario must be a JSON object with a 'name', got 5"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"kind": "linear", "coef": 1.0, "index": "2"}]}}]},
     "scenario 'cell': cate: model term index must be an integer >= 1, got '2'"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"coef": 1.0, "index": 2}]}}]},
     "scenario 'cell': cate: a model term must be an object with 'kind' and 'coef'"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"kind": "linear", "index": 2}]}}]},
     "scenario 'cell': cate: a model term must be an object with 'kind' and 'coef'"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"kind": "linear", "coef": "1", "index": 2}]}}]},
     "scenario 'cell': cate: model term coef must be a number, got '1'"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"kind": "expaffine", "coef": 1.0, "slopes": {"y2": 1.0}}]}}]},
     "scenario 'cell': cate: model term slopes must map names like 'x3' to numbers"),
    ({"scenarios": [{**CELL, "h": 5}]}, "scenario 'cell': h must be a list of term names, got 5"),
    ({"scenarios": [{**CELL, "h": ["const", 3]}]},
     "scenario 'cell': h must be a list of term names, got ['const', 3]"),
    ({"scenarios": [{**CELL, "g": "x4"}]}, "scenario 'cell': g must be a list of term names, got 'x4'"),
    ({"builtin_grid": {"noise_sd": "2"}}, "builtin_grid: noise_sd must be a number, got '2'"),
    ({"builtin_grid": {"noise_sd": True}}, "builtin_grid: noise_sd must be a number, got True"),
    ({"scenarios": [{**CELL, "low": "-1"}]}, "scenario 'cell': low must be a number, got '-1'"),
    ({"scenarios": [{**CELL, "high": float("inf")}]}, "scenario 'cell': high=inf must be finite"),
    ({"scenarios": [{**CELL, "low": float("-inf")}]}, "scenario 'cell': low=-inf must be finite"),
    ({"builtin_grid": {"noise_sd": float("inf")}}, "scenario 'P1-T1-M1': noise_sd=inf must be finite"),
    ({"scenarios": [{**CELL, "seed": -1}]}, "scenario 'cell': seed=-1 must be >= 0"),
    ({"builtin_grid": {"seed": -1}}, "scenario 'P1-T1-M1': seed=-1 must be >= 0"),
    ({"scenarios": [{**CELL, "name": [1]}]}, "scenario [1]: name=[1] must be a string"),
    ({"scenarios": [{**CELL, "name": 7}]}, "scenario 7: name=7 must be a string"),
    ({"scenarios": [{**CELL, "cate": {"terms": [{"kind": "linear", "coef": float("nan"), "index": 2}]}}]},
     "scenario 'cell': cate: model term coef must be finite, got nan"),
    ({"scenarios": [{**CELL, "propensity": {"terms": [{"kind": "const", "coef": float("inf")}]}}]},
     "scenario 'cell': propensity: model term coef must be finite, got inf"),
    ({"scenarios": [{**CELL, "baseline": {"terms": [
        {"kind": "expaffine", "coef": 1.0, "offset": float("-inf"), "slopes": {"x2": 1.0}}]}}]},
     "scenario 'cell': baseline: model term offset must be finite, got -inf"),
    ({"scenarios": [{**CELL, "cate": {"terms": [
        {"kind": "expaffine", "coef": 1.0, "slopes": {"x1": 0.5, "x3": float("nan")}}]}}]},
     "scenario 'cell': cate: model term x3 must be finite, got nan"),
], ids=["n", "seed", "low", "builtin-n", "builtin-list", "builtin-fractional-n", "fractional-replicates",
        "bool-seed", "no-propensity", "no-baseline", "cell-not-object", "string-index", "no-kind", "no-coef",
        "string-coef", "bad-slope-key", "h-not-list", "h-non-string-term", "g-string", "builtin-string-noise-sd",
        "builtin-bool-noise-sd", "string-low", "infinite-high", "infinite-low", "builtin-infinite-noise-sd",
        "negative-seed", "builtin-negative-seed", "list-name", "number-name", "nan-coef", "infinite-coef",
        "infinite-offset", "nan-slope"])
def test_cli_bad_scenario_number_is_validation_error(tmp_path, capsys, command, payload, message):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(payload))
    assert main([command, "--scenario", str(scen)]) == 2
    assert message in _validation_error(capsys)


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_cli_scenario_over_the_draw_budget_fails_before_allocating(tmp_path, capsys, command):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "n": 1_000_000_000}]}))
    tracemalloc.start()
    try:
        code = main([command, "--scenario", str(scen)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "scenario 'cell': n=1000000000 rows of p=5 covariates are 5000000000 cells, over the budget of " \
        f"{MAX_DRAW_CELLS}" in _validation_error(capsys)
    with pytest.raises(ValidationError) as info:
        load_scenarios_json(scen)
    assert info.value.code == "DRAW_BUDGET"


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_cli_scenario_over_the_replicate_budget_fails_before_allocating(tmp_path, capsys, command):
    # at n >= 16,000 each replicate is its own batch: 10**9 of them would
    # take ≈120 GB of batch ranges before the first draw
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "n": 16_000, "replicates": 1_000_000_000}]}))
    tracemalloc.start()
    try:
        code = main([command, "--scenario", str(scen)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "scenario 'cell': replicates=1000000000 is over the budget of " \
        f"{MAX_REPLICATES}" in _validation_error(capsys)
    with pytest.raises(ValidationError) as info:
        load_scenarios_json(scen)
    assert info.value.code == "REPLICATE_BUDGET"
    # the budget itself is allowed
    assert gb.builtin_scenario("P1", "T1", "M1", replicates=MAX_REPLICATES).replicates == MAX_REPLICATES


def _squares(*pairs):
    return {"terms": [{"kind": "square", "coef": coef, "index": index} for index, coef in pairs]}


UNDRAWABLE = "scenario 'cell': could not draw a non-degenerate replicate 0 after 100 tries; the last had "


@pytest.mark.parametrize("cell, message", [
    ({"low": -1.7e308, "high": 1.7e308}, "scenario 'cell': high - low=inf must be finite"),
    ({"low": 1e308, "high": 1.7e308}, UNDRAWABLE + "no target rows"),
    ({"participation": {"terms": [{"kind": "const", "coef": -1e308}]}}, UNDRAWABLE + "fewer than 2 source rows"),
    ({"propensity": {"terms": [{"kind": "const", "coef": -1e308}]}}, UNDRAWABLE + "an empty arm"),
    ({"participation": _squares((1, 1e308), (2, -1e308))}, "scenario 'cell': the participation model gives a NaN logit"),
    ({"propensity": _squares((2, 1e308), (3, -1e308))}, "scenario 'cell': the propensity model gives a NaN logit"),
    ({"baseline": {"terms": [{"kind": "expaffine", "coef": 1.0, "slopes": {"x1": 1000.0}}]}},
     "scenario 'cell': the baseline model gives a non-finite value"),
    ({"cate": _squares((1, 1e308))}, "scenario 'cell': the cate model gives a non-finite value"),
], ids=["box-too-wide", "no-target-rows", "no-source-rows", "empty-arm", "nan-participation", "nan-propensity",
        "infinite-baseline", "infinite-cate"])
def test_cli_scenario_that_cannot_be_drawn_is_one_validation_error(tmp_path, capsys, cell, message):
    # every model is read with its overflow silenced; pytest turns a leaked RuntimeWarning into an error
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "n": 200, **cell}]}))
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert message in _validation_error(capsys)
    if "model gives" in message:
        with pytest.raises(ValidationError) as info:
            gb.run_grid(load_scenarios_json(scen))
        assert info.value.code == "NON_FINITE_CELL"


@pytest.mark.parametrize("cell, cause", [
    ({"noise_sd": 1e308}, "with noise_sd=1e+308"),
    ({"baseline": {"terms": [{"kind": "const", "coef": 1.5e308}]},
      "cate": {"terms": [{"kind": "const", "coef": 1e308}]}}, "in baseline + (A-0.5)*cate"),
], ids=["noise", "baseline-plus-cate"])
def test_cli_scenario_whose_outcomes_overflow_names_the_cause(tmp_path, capsys, cell, cause):
    # the treated rows' 1.5e308 + 0.5 * 1e308 overflows although each model and noise_sd=1 are finite
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "n": 200, **cell}]}))
    assert main(["simulate", "--scenario", str(scen)]) == 2
    assert f"scenario 'cell': the outcomes overflow {cause}" in _validation_error(capsys)
    with pytest.raises(ValidationError) as info:
        gb.run_grid(load_scenarios_json(scen))
    assert info.value.code == "NON_FINITE_CELL"


@pytest.mark.parametrize("args", [["simulate", "--format", "json"], ["oracle", "--nodes", "4"]],
                         ids=["simulate", "oracle"])
def test_fresh_cli_process_imports_what_its_command_runs(tmp_path, capsys, args):
    # in this process every module is already imported, so only a fresh one
    # shows that a command imports the modules genbal.cli defers
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "propensity": "P2", "n": 200, "replicates": 2}]}))
    argv = [args[0], "--scenario", str(scen), *args[1:]]
    proc = subprocess.run(
        [sys.executable, "-m", "genbal.cli", *argv], capture_output=True, check=False,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gb.__file__))},
    )
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_cli_simulate_with_saturated_propensity_logits_leaks_no_warning(tmp_path, capsys):
    # most logits overflow to +-inf, which sigmoid saturates exactly; the
    # treatment this separates fails the estimators, not the run
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [{**CELL, "propensity": {"terms": [
        {"kind": "linear", "coef": 1e308, "index": 2}]}}]}))
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "grid.json")]) == 0
    assert capsys.readouterr().err == ""


def test_true_target_ate_of_a_nan_participation_logit_is_a_validation_error():
    config = gb.ScenarioConfig.from_dict({**CELL, "participation": _squares((1, 1e308), (2, -1e308))})
    with pytest.raises(ValidationError, match="the participation model gives a NaN logit") as info:
        gb.true_target_ate(config)
    assert info.value.code == "NON_FINITE_CELL"


def test_scenario_whole_float_sizes_load_as_ints(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"scenarios": [{**CELL, "n": 50.0, "replicates": 2.0}]}))
    (config,) = load_scenarios_json(path)
    assert (config.n, config.replicates) == (50, 2)
    assert isinstance(config.n, int) and isinstance(config.replicates, int)


@pytest.mark.parametrize("command", ["weights", "estimate"])
@pytest.mark.parametrize("roles, column", [
    (["--covariates", "y,x1"], "y"),
    (["--covariates", "x1,a"], "a"),
    (["--covariates", "x1,x2,x1"], "x1"),
    (["--treatment", "y", "--covariates", "x1"], "y"),
], ids=["outcome-as-covariate", "treatment-as-covariate", "covariate-twice", "treatment-is-outcome"])
def test_cli_column_in_two_roles_is_validation_error(tmp_path, capsys, command, roles, column):
    _, _, source, basis, target = _write_inputs(tmp_path)
    code = main([command, "--source", str(source), "--basis", str(basis), "--target-summary", str(target),
                 "--out", str(tmp_path / "out"), *roles] + (["--method", "et"] if command == "weights" else []))
    assert code == 2
    assert _validation_error(capsys) == (
        f"genbal: validation error: column {column!r} is listed more than once among the "
        "treatment, outcome and covariates\n"
    )
    with pytest.raises(ValidationError) as info:
        ColumnSchema("a", "y", ("x1", "x1"))
    assert info.value.code == "DUPLICATE_COLUMN"


@pytest.mark.parametrize("command", ["weights", "estimate"])
def test_cli_used_column_twice_in_the_header_is_validation_error(tmp_path, capsys, command):
    _, _, _, _, target = _write_inputs(tmp_path)
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"h": ["const", "x1"]}))
    target.write_text(json.dumps({"const": 1, "x1": 2.0}))
    rows = [(1, 0.5, 1), (0, 0.2, 3), (1, 0.1, 3), (0, 0.3, 1), (1, 0.4, 2), (0, 0.6, 2), (1, 0.7, 4), (0, 0.8, 1)]
    source = tmp_path / "dup.csv"
    source.write_text("a,y,x1,x1,z,z\n" + "".join(f"{a},{y},{x},{x},0,0\n" for a, y, x in rows))
    args = [command, "--source", str(source), "--basis", str(basis), "--target-summary", str(target),
            "--out", str(tmp_path / "out"), "--covariates", "x1"]
    assert main(args) == 2
    assert _validation_error(capsys) == (
        f"genbal: validation error: column 'x1' is in the header of {source} more than once\n"
    )
    # an unused column may repeat
    source.write_text("a,y,x1,z,z\n" + "".join(f"{a},{y},{x},0,0\n" for a, y, x in rows))
    assert main(args) == 0


@pytest.mark.parametrize("command", ["weights", "estimate"])
def test_cli_repeated_header_column_with_default_covariates_names_the_file(tmp_path, capsys, command):
    _, _, _, _, target = _write_inputs(tmp_path)
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"h": ["const", "x1"]}))
    target.write_text(json.dumps({"const": 1, "x1": 2.0}))
    rows = [(1, 0.5, 1), (0, 0.2, 3), (1, 0.1, 3), (0, 0.3, 1), (1, 0.4, 2), (0, 0.6, 2)]
    source = tmp_path / "dup.csv"
    source.write_text("a,y,x1,x1\n" + "".join(f"{a},{y},{x},{x}\n" for a, y, x in rows))
    assert main([command, "--source", str(source), "--basis", str(basis), "--target-summary", str(target),
                 "--out", str(tmp_path / "out")]) == 2
    assert _validation_error(capsys) == (
        f"genbal: validation error: column 'x1' is in the header of {source} more than once\n"
    )


def test_cli_negative_seed_flag_is_validation_error(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"scenarios": [CELL]}))
    assert main(["simulate", "--scenario", str(scen), "--seed", "-1"]) == 2
    assert "scenario 'cell': seed=-1 must be >= 0" in _validation_error(capsys)


def test_cli_estimate_with_a_covariate_far_from_zero_fits_the_treatment_logit(tmp_path):
    # x5 + 2,000, as a calendar year sits: a location, not a separated
    # treatment; x5 is a G term, so the target's H means do not move
    draw = gb.draw_replicate(gb.builtin_scenario("P2", "T1", "M1", n=800, seed=3), 0)
    schema = ColumnSchema("a", "y", ("x1", "x2", "x3", "x4", "x5"))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"h": ["const", "x1", "x2", "x3"], "g": ["x4", "x5"]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"const": 1, **dict(zip(("x1", "x2", "x3"), draw.target_means[1:].tolist()))}))
    tau = {}
    for shift in (0.0, 2000.0):
        X = draw.sample.X + np.array([0, 0, 0, 0, shift])
        source, out = tmp_path / f"source{shift:g}.csv", tmp_path / f"est{shift:g}.json"
        write_source_csv(source, gb.SourceSample(X, draw.sample.A, draw.sample.Y), schema)
        assert main(["estimate", "--source", str(source), "--basis", str(basis), "--target-summary", str(target),
                     "--methods", "ipw,extended", "--format", "json", "--out", str(out)]) == 0
        tau[shift] = {e["method"]: e["tau_hat"] for e in json.loads(out.read_text())["estimates"]}
    assert set(tau[2000.0]) == {"ipw", "extended"}
    assert tau[2000.0]["ipw"] == pytest.approx(tau[0.0]["ipw"], rel=1e-9, abs=0)
