"""Golden bytes of ``genbal weights`` for every method, with and without
``--normalize``, on a small fixed source sample: pins the solves behind
the weights CSV, not only its writer."""

from pathlib import Path

import pytest

from genbal.cli import main

GOLDEN = Path(__file__).parent / "golden"
METHODS = ("extended", "ebal", "two_step", "et", "att")


@pytest.mark.parametrize("normalize", ["normalize", "no-normalize"])
@pytest.mark.parametrize("method", METHODS)
def test_weights_csv_bytes_match_golden(tmp_path, method, normalize):
    out = tmp_path / "w.csv"
    code = main([
        "weights", "--source", str(GOLDEN / "weights_source.csv"),
        "--basis", str(GOLDEN / "weights_basis.json"),
        "--target-summary", str(GOLDEN / "weights_target.json"),
        "--method", method, f"--{normalize}", "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"weights_{method}_{normalize}.csv").read_bytes()
