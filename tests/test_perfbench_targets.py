"""The benchmark's tracer wraps genbal functions by module and attribute
path, and stops a traced run when one is gone; every one must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(module_name, attr_path):
    owner = importlib.import_module(f"genbal.{module_name}")
    for part in attr_path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the file, write nothing beside it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"genbal.{m}.{a}" for m, a, _ in tracing.TARGETS if not callable(_resolve(m, a))]
    assert missing == []
