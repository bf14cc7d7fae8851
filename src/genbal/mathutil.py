"""Small numeric helpers used by several modules."""

import contextlib

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


def solve_each(a, b):
    """Solutions of the systems a[r] x = b[r] from one batched solve. If
    that fails, each is solved alone, so only the singular ones get NaN."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for r in range(len(b)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[r] = np.linalg.solve(a[r], b[r])
        return x
