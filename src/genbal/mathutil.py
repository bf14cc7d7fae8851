"""Small numeric helpers used by several modules."""

import numpy as np


def sigmoid(s):
    """Numerically stable logistic function 1 / (1 + exp(-s)).

    With e = exp(-|s|) <= 1 this is 1 / (1 + e) for s >= 0 and e / (1 + e)
    otherwise, so exp never overflows. -|s| is taken as min(s, -s), which
    keeps the sign bit of a NaN input, and the steps run in place, so the
    call holds two float arrays the size of ``s``.
    """
    s = np.asarray(s, dtype=float)
    e = np.negative(s, out=np.empty_like(s))
    np.minimum(s, e, out=e)
    np.exp(e, out=e)
    out = np.where(s >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def effective_sample_size(w):
    """Kish effective sample size (sum w)^2 / sum w^2."""
    w = np.asarray(w, dtype=float)
    return float(w.sum() ** 2 / (w ** 2).sum())
