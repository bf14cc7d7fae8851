"""Every demo script runs to completion against the installed sources."""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=_ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
