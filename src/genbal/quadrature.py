"""Deterministic expectation grids over box-uniform covariate laws.

A grid is points and probability weights. A tensor grid also records its
``shape``, the node count per covariate axis with the first axis varying
slowest, so a sum over the grid of a function that reads only some axes
can first sum the weights over the others: the oracle's limiting dual
runs on the sub-grid of the axes its H terms read.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .errors import ValidationError

__all__ = ["QuadratureGrid", "gauss_legendre_box", "MAX_POINTS"]

# Largest tensor grid gauss_legendre_box builds; 2**24 points in 6
# dimensions already take 0.8 GB.
MAX_POINTS = 2 ** 24


@dataclasses.dataclass(frozen=True)
class QuadratureGrid:
    """Points and probability weights: E[f(X)] ~= weights @ f(points).

    ``shape`` is None for a grid of arbitrary points. When given, it
    declares the points the tensor product of one node set per axis,
    ``shape[j]`` nodes on axis j, the first axis varying slowest.
    Construction checks the shape against the number and dimension of
    the points, not point by point, so a hand-given shape is the caller's
    promise: sums that regroup the grid by axis rely on it.
    """

    points: np.ndarray
    weights: np.ndarray
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        try:
            points = np.asarray(self.points, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"grid points and weights must be numeric arrays: {exc}") from None
        if points.ndim != 2:
            raise ValidationError(f"grid points must be a 2-d (size, p) array, got ndim={points.ndim}")
        if not np.isfinite(points).all():
            raise ValidationError("grid points must be finite")
        if weights.shape != (points.shape[0],):
            raise ValidationError(
                f"grid weights must be a 1-d array of {points.shape[0]} entries, one per point, "
                f"got shape {weights.shape}"
            )
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValidationError("grid weights must be finite and non-negative")
        if self.shape is not None:
            object.__setattr__(self, "shape", _checked_shape(points, self.shape))
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def expect(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def _checked_shape(points, shape):
    """shape as a tuple of ints, checked against the points: one positive
    node count per axis, their product the point count."""
    n, p = points.shape
    if (
        not isinstance(shape, (tuple, list))
        or len(shape) != p
        or not all(_is_int(s) and s >= 1 for s in shape)
        or math.prod(shape) != n
    ):
        raise ValidationError(
            f"grid shape {shape!r} must give a positive integer node count for each of "
            f"the p={p} axes, with product equal to the {n} points"
        )
    return tuple(int(s) for s in shape)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def gauss_legendre_box(p: int, low: float = -2.0, high: float = 2.0, nodes: int = 16) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid for a uniform law on [low, high]^p.

    Weights are normalized to sum to one, so sums against them are
    expectations under the uniform law. The grid has nodes**p points, the
    first axis varying slowest, and shape (nodes,) * p; p=0 gives the
    empty product, one point with weight 1. Raises ValidationError naming
    the argument, before allocating anything, for a p or nodes that is
    not an integer (bools included), p < 0, nodes < 1, bounds that are
    not finite or not increasing, or a grid larger than MAX_POINTS.
    """
    for name, value in (("p", p), ("nodes", nodes)):
        if not _is_int(value):
            raise ValidationError(f"quadrature {name}={value!r} must be an integer")
    if p < 0:
        raise ValidationError(f"quadrature dimension p={p} must be >= 0")
    if nodes < 1:
        raise ValidationError(f"quadrature needs nodes >= 1, got nodes={nodes}")
    for name, value in (("low", low), ("high", high)):
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValidationError(f"quadrature bound {name}={value!r} must be a finite number")
    if not low < high:
        raise ValidationError(f"quadrature bounds need low < high, got low={low}, high={high}")
    p, nodes = int(p), int(nodes)
    n_points = nodes ** p
    if n_points > MAX_POINTS:
        raise ValidationError(
            f"quadrature grid with p={p}, nodes={nodes} has {n_points} points, "
            f"over the budget of {MAX_POINTS}",
            code="QUADRATURE_BUDGET",
        )
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = low + (high - low) * (x + 1.0) / 2.0
    w = w / w.sum()
    points = np.empty((n_points, p))
    axes = points.reshape((nodes,) * p + (p,))
    for j in range(p):
        axes[..., j] = x.reshape((nodes,) + (1,) * (p - 1 - j))
    weights = np.ones(1)
    for _ in range(p):
        weights = np.multiply.outer(weights, w).ravel()
    return QuadratureGrid(points, weights, (nodes,) * p)
