"""Deterministic expectation grids over box-uniform covariate laws."""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ValidationError

__all__ = ["QuadratureGrid", "gauss_legendre_box", "MAX_POINTS"]

# Largest tensor grid gauss_legendre_box builds; 2**24 points in 6
# dimensions already take 0.8 GB.
MAX_POINTS = 2 ** 24


@dataclasses.dataclass(frozen=True)
class QuadratureGrid:
    """Points and probability weights: E[f(X)] ~= weights @ f(points)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def expect(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def gauss_legendre_box(p: int, low: float = -2.0, high: float = 2.0, nodes: int = 16) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid for a uniform law on [low, high]^p.

    Weights are normalized to sum to one, so sums against them are
    expectations under the uniform law. The grid has nodes**p points, the
    first axis varying slowest; p=0 gives the empty product, one point
    with weight 1. Raises ValidationError for p < 0, nodes < 1 or a grid
    larger than MAX_POINTS, before allocating anything.
    """
    if p < 0:
        raise ValidationError(f"quadrature dimension p={p} must be >= 0")
    if nodes < 1:
        raise ValidationError(f"quadrature needs nodes >= 1, got nodes={nodes}")
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
    return QuadratureGrid(points, weights)
