"""Deterministic expectation grids over box-uniform covariate laws.

A grid is points and probability weights. A ``gauss_legendre_box`` grid
also records its ``shape``, the node count per axis with the first axis
varying slowest, so a sum of a function that reads only some axes can
first sum the weights over the others, as the oracle's limiting dual
does. ``grid.blocks()`` is the only row reader: one ``(start, stop, X,
w)`` per block of ``_CHUNK_ROWS`` rows, which a tensor grid builds from
its per-axis nodes and weights; it builds ``points`` only when read.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import ValidationError

__all__ = ["QuadratureGrid", "gauss_legendre_box", "MAX_POINTS"]

# Largest tensor grid gauss_legendre_box accepts. Rows are built block by
# block, so it bounds the work of a pass, not memory; only reading
# ``points`` whole would take 0.8 GB at 2**24 points in 6 dimensions.
MAX_POINTS = 2 ** 24
# grid rows read at once: a pass over a grid holds a few arrays this long
_CHUNK_ROWS = 8_192


class QuadratureGrid:
    """Points and probability weights: E[f(X)] ~= weights @ f(points).

    ``shape`` is None for a grid built from its points. A grid from
    ``gauss_legendre_box`` is the tensor product of one node set per axis,
    ``shape[j]`` nodes on axis j, the first axis varying slowest, and its
    ``size``, ``dim`` and ``shape`` never build its rows.
    """

    def __init__(self, points, weights):
        try:
            points = np.asarray(points, dtype=float)
            weights = np.asarray(weights, dtype=float)
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
        if not weights.sum() > 0.0:
            raise ValidationError(f"grid weights must have a positive sum, got 0 over {len(weights)} points")
        self.shape, (self.size, self.dim) = None, points.shape
        self._axes, self._arrays = None, (points, weights)
        for a in self._arrays:
            a.setflags(write=False)

    @classmethod
    def _tensor(cls, axes):
        """Tensor grid of one (nodes, weights) pair of 1-d arrays per axis."""
        grid = cls.__new__(cls)
        grid._axes, grid.shape = axes, tuple(len(x) for x, _ in axes)
        grid.size, grid.dim = math.prod(grid.shape), len(axes)
        return grid

    @functools.cached_property
    def _arrays(self):
        """(points, weights): set by __init__, or built here for a tensor grid."""
        X, w = np.empty((self.size, self.dim)), np.empty(self.size)
        for start, stop, X_block, w_block in self.blocks():
            X[start:stop], w[start:stop] = X_block, w_block
        X.setflags(write=False)
        w.setflags(write=False)
        return X, w

    points = property(lambda self: self._arrays[0], doc="(size, dim) points, read-only")
    weights = property(lambda self: self._arrays[1], doc="(size,) weights, read-only")

    def _tile(self, chunk):
        """(t, block, tile): t the first axis whose trailing node product
        ``block`` is at most ``chunk``; tile[0] and tile[1] the nodes and
        weights of axes t.. over chunk // block + 2 blocks of rows, so any
        ``chunk`` rows from any offset lie inside the tile."""
        shape, p = self.shape, self.dim
        t = next(j for j in range(p + 1) if math.prod(shape[j:]) <= chunk)
        block = math.prod(shape[t:])
        tiled = (chunk // block + 2,) + shape[t:]
        tile = np.empty((2, p - t) + tiled)
        for j in range(t, p):
            along = (-1,) + (1,) * (p - 1 - j)
            tile[0, j - t] = self._axes[j][0].reshape(along)
            tile[1, j - t] = self._axes[j][1].reshape(along)
        return t, block, tile.reshape(2, p - t, math.prod(tiled))

    def _nodes(self, read):
        """For each block of blocks(), each row's node on the sub-grid of the
        axes in ``read``, the first slowest (a grid without a shape is one
        axis). Built as blocks() builds X: one tile of the nodes of the rows
        of _tile's trailing axes, and per block one repeat of its runs' nodes."""
        chunk, shape = _CHUNK_ROWS, (self.size,) if self.shape is None else self.shape
        block = next(b for j in range(len(shape) + 1) if (b := math.prod(shape[j:])) <= chunk)
        axes = range(len(shape))
        div, radix = (np.array(v, dtype=np.intp) for v in ([math.prod(shape[j + 1:]) for j in axes], shape))
        stride = np.array([math.prod(shape[i] for i in read if i > j) * (j in read) for j in axes], dtype=np.intp)

        def nodes(rows):  # each row's digit on each axis, weighted by its stride on the sub-grid
            return (rows[:, None] // div % radix) @ stride

        tile = np.tile(nodes(np.arange(block)), chunk // block + 2)
        for start in range(0, self.size, chunk):
            stop = min(start + chunk, self.size)
            lead, runs = _runs(start, stop, block)
            yield np.repeat(nodes(lead * block), runs) + tile[start % block:start % block + stop - start]

    def blocks(self):
        """(start, stop, X, w) for each block of _CHUNK_ROWS rows in order,
        the last one shorter, (X, w) equal bit for bit to
        ``points[start:stop]`` and ``weights[start:stop]``. A tensor grid
        builds them, X column by column (so in Fortran order): coordinates
        are copied from the axis nodes and each weight is the product
        w_0 w_1 ... of its axes' weights, taken left to right."""
        chunk = _CHUNK_ROWS
        tiled = None if self._axes is None else self._tile(chunk)
        for start in range(0, self.size, chunk):
            stop = min(start + chunk, self.size)
            if tiled is None:
                yield start, stop, self.points[start:stop], self.weights[start:stop]
                continue
            t, block, tile = tiled
            XT, o = np.empty((self.dim, stop - start)), start % block
            XT[t:] = tile[0, :, o:o + stop - start]
            lead, runs = _runs(start, stop, block)
            lead_w = np.ones(len(lead))
            for j in range(t):
                digit = lead // math.prod(self.shape[j + 1:t]) % self.shape[j]
                XT[j] = np.repeat(self._axes[j][0][digit], runs)
                lead_w *= self._axes[j][1][digit]
            w = np.repeat(lead_w, runs)
            for w_axis in tile[1]:
                w *= w_axis[o:o + stop - start]
            yield start, stop, XT.T, w


def _runs(start, stop, block):
    """Index and length of each run of rows start..stop-1 that share their nodes on the axes before ``block``."""
    lead = np.arange(start // block, (stop - 1) // block + 1)
    return lead, np.minimum(lead * block + block, stop) - np.maximum(lead * block, start)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def gauss_legendre_box(p: int, low: float = -2.0, high: float = 2.0, nodes: int = 16) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid for a uniform law on [low, high]^p.

    Weights are normalized to sum to one, so sums against them are
    expectations under the uniform law. The grid has nodes**p points, the
    first axis varying slowest, and shape (nodes,) * p; p=0 gives the
    empty product, one point with weight 1. The grid keeps one axis's
    nodes and weights and builds rows on request. Raises ValidationError
    naming the argument, before allocating anything, for a p or nodes
    that is not an integer (bools included), p < 0, nodes < 1, bounds
    that are not finite or not increasing, or a grid over MAX_POINTS.
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
    return QuadratureGrid._tensor(((x, w),) * p)
