"""Small numeric helpers."""

import numpy as np

from genbal.mathutil import sigmoid


def _two_branch_sigmoid(s):
    # reference: 1 / (1 + exp(-s)) on s >= 0, exp(s) / (1 + exp(s)) elsewhere
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_sigmoid_is_bitwise_the_two_branch_formula():
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                     1e-300, -1e-300, 36.0, -36.0, 709.0, -745.0])
    draws = np.random.default_rng(0).normal(scale=20.0, size=10_000)
    for s in (edge, draws, draws.reshape(100, 100)):
        got = sigmoid(s)
        assert got.shape == s.shape
        np.testing.assert_array_equal(_bits(got), _bits(_two_branch_sigmoid(s)))


def test_sigmoid_of_a_scalar():
    assert float(sigmoid(0.0)) == 0.5
    assert _bits(sigmoid(-3.0)) == _bits(_two_branch_sigmoid(np.array(-3.0)))
