"""Smoke test of the benchmark itself: short runs of every workload.

    python3 perfbench/smoke_test.py        (about two minutes on two cores)

For each workload an untraced and a traced run must pass every
correctness check and print exactly the metrics BENCHMARK.json declares
(end-to-end, then per-layer; a per-layer metric whose layer the workload
does not reach reads 0 and is listed as not applicable in the run record).
layer_map.json must cover every per-layer metric, and the benchmark must
refuse to run, without printing a result, in a tree that lacks the genbal
sources. The default seed also checks the grids against reference.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def _check_workload(workload):
    untraced = _result(_run(ROOT, workload, 0))
    declared = [m["name"] for m in SPEC["end_to_end"]]
    assert list(untraced["metrics"]) == declared, untraced["metrics"]
    for m in SPEC["end_to_end"]:
        got = untraced["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, (m, got)

    traced = _result(_run(ROOT, workload, 1))
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    record = json.loads((HERE / "results" / f"{workload}-seed0-trace1.json").read_text())
    not_applicable = set(record["not_applicable"])
    for name, got in traced["metrics"].items():
        if name in not_applicable:
            assert got["value"] == 0, (name, got)
    applicable = set(traced["metrics"]) - not_applicable
    assert "trace.overhead_s" in applicable and "cli.import_s" in applicable


def test_workloads():
    for w in SPEC["workloads"]:
        _check_workload(w["name"])


def test_layer_map_covers_per_layer_metrics():
    layers = json.loads((HERE / "layer_map.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layers.values():
        for target in entry["moves"] + entry["no_change"]:
            assert target.split("/")[0] in workloads, target


def test_refuses_without_sources():
    bare = HERE / "results" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_layer_map_covers_per_layer_metrics()
    test_refuses_without_sources()
    test_workloads()
    print("perfbench smoke test passed")
