"""Regenerate reference.json: per-cell bias, sd and rmse of one jobs=1
pass of each simulation workload at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the estimates; the benchmark
compares every default-seed run against this file.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import genbal as gb  # noqa: E402

import workloads  # noqa: E402


def main():
    ref = {}
    for cls in (workloads.GridN800, workloads.CellN20k):
        wl = cls(workloads.DEFAULT_SEED, None)
        ref[cls.name] = workloads.grid_stats(gb.run_grid(wl.configs, workloads.METHODS, jobs=1))
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
