"""Spectral bookkeeping for -Laplacian + |x|^2 on R^n.

An eigenspace is labeled by its level N >= 0: the eigenvalue is
lambda^2 = 2N + n with multiplicity binom(N+n-1, n-1), and a product
basis is indexed by the multi-indices alpha with |alpha| = N.  This
module enumerates those indices, evaluates coefficient combinations over
one eigenspace on tensor grids (one evaluator, :class:`Eigenfunction`,
whose every tile is one matrix product), and provides the exact
finite-sum form of the spectral projection kernel used as the reference
for the oscillatory-integral evaluator.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ._blas import one_thread
from .hermite import hermite_batch, hermite_batch_grid, hermite_on_grids


def multiplicity(level: int, dim: int) -> int:
    if level < 0 or dim < 1:
        raise ValueError("need level >= 0 and dim >= 1")
    return math.comb(level + dim - 1, dim - 1)


def _index_array(level: int, dim: int) -> np.ndarray:
    """All multi-indices alpha >= 0 with |alpha| = level: the rows of a
    (multiplicity, dim) array, lexicographically decreasing.

    Built one axis at a time: every row with ``rest`` left to spend is
    repeated rest + 1 times, taking rest, rest - 1, ..., 0 on the new
    axis, which keeps the rows lexicographically decreasing.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    rest = np.array([level], dtype=np.intp)
    for _ in range(dim - 1):
        counts = rest + 1
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0),
                                np.repeat(rest, counts) - offset])
        rest = offset
    return np.column_stack([rows, rest])


_INDEX_CAP = 2_000_000  # most indices the exact sum takes from dim 3 on


def projection_kernel_sum(level: int, dim: int, x, y) -> float:
    """Spectral projection kernel at (x, y) as the exact eigenbasis sum.

    Cost is O(level) in one and two dimensions and O(multiplicity * dim)
    otherwise; ``_INDEX_CAP`` guards the general path, before anything is
    allocated.  For dim >= 3 the per-index products are gathered from one
    Hermite table over the whole index array, axis by axis left to right,
    and the terms are summed strictly left to right in
    :func:`_index_array` order (a cumulative sum, not numpy's pairwise
    ``sum``), so the result is the scalar loop's bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (dim,) or y.shape != (dim,):
        raise ValueError("points must have shape (dim,)")
    h = _kernel_table(level, dim, np.concatenate([x, y]))
    return _kernel_from_table(h, level, dim)


def projection_kernel_sums(level: int, dim: int, x, y) -> list:
    """:func:`projection_kernel_sum` of every pair (x[i], y[i]), bit for
    bit, from one Hermite table over all their points.  ``x`` and ``y``
    have shape (count, dim)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim or y.shape != x.shape:
        raise ValueError("points must have shape (count, dim)")
    h = _kernel_table(level, dim, np.concatenate([x, y], axis=1).ravel())
    return [_kernel_from_table(h[:, 2 * dim * i:2 * dim * (i + 1)], level, dim)
            for i in range(len(x))]


def _kernel_table(level: int, dim: int, points: np.ndarray) -> np.ndarray:
    """The Hermite table :func:`_kernel_from_table` reads on ``points``:
    order ``level`` alone in one dimension, orders 0..level otherwise.
    From dim 3 on, a level above ``_INDEX_CAP`` indices raises first."""
    if dim == 1:
        return hermite_batch([level], points)
    if dim >= 3 and multiplicity(level, dim) > _INDEX_CAP:
        raise ValueError("eigenspace too large for direct summation")
    return hermite_batch_grid(level, points)


def _kernel_from_table(h: np.ndarray, level: int, dim: int):
    """The eigenbasis sum of :func:`projection_kernel_sum` from its Hermite
    table, whose columns are x_0..x_{dim-1}, y_0..y_{dim-1} and whose last
    row is order ``level`` (all rows 0..level from dim 2 on).  Columns of a
    table over many pairs' points give each pair's sum bit for bit."""
    if dim == 1:
        return float(h[-1, 0] * h[-1, 1])
    if dim == 2:
        # sum_a f_a(x1) f_{N-a}(x2) f_a(y1) f_{N-a}(y2)
        return float(np.dot(h[:, 0] * h[:, 2], (h[:, 1] * h[:, 3])[::-1]))
    alpha = _index_array(level, dim)
    px = h[alpha[:, 0], 0]
    py = h[alpha[:, 0], dim]
    for axis in range(1, dim):
        px = px * h[alpha[:, axis], axis]
        py = py * h[alpha[:, axis], dim + axis]
    return np.cumsum(np.concatenate([[0.0], px * py]))[-1]


# Tile products of fewer terms than this run with OpenBLAS held to one
# thread: the 2-9-term tube tiles gain nothing from a second thread, which
# spins on after each product (it raised sweep-tube CPU time by 30-55%).
# The random draws' products, 201 terms and more, keep OpenBLAS's own
# threads; their last bits depend on the thread count (ROADMAP item 2).
_ONE_THREAD_TERMS = 64


class Eigenfunction:
    """Coefficient combination over one eigenspace, on tensor axes.

    ``e(x_0, ..., x_{n-1})`` is the tile sum_alpha c_alpha
    prod_k f_{alpha_k}(x_k[i_k]), shape (len(x_0), ..., len(x_{n-1})).
    It is the axes integrand of ``normquad.local_lp_norm``: called with a
    ``lead`` slice of the first axis, it returns the tile on
    ``x_0[lead] x x_1 x ...``.

    Each axis has one Hermite table with a row per term, in term order,
    and all of them come from one recurrence (a repeated order is stepped
    once and copied to each term that uses it).  The tables of the last
    grid are kept, its nodes compared by value, so all lead blocks of a
    grid, or repeated calls on it, share that one recurrence; assigning
    new ``coefficients`` runs none either.  A tile is one matrix product:
    the (points of the first axes x terms) matrix of each coefficient
    times its first-axes factors, times the last axis's table.
    """

    _kept = None  # (node arrays of all axes, their tables)

    def __init__(self, dim: int, level: int, indices, coefficients):
        self.dim = int(dim)
        self.level = int(level)
        self.indices = tuple(tuple(int(a) for a in alpha) for alpha in indices)
        if not self.indices:
            raise ValueError("eigenfunction needs at least one term")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate multi-index")
        for alpha in self.indices:
            if len(alpha) != self.dim:
                raise ValueError(f"index {alpha} has wrong dimension")
            if sum(alpha) != self.level or min(alpha) < 0:
                raise ValueError(f"index {alpha} is not in level {self.level}")
        self.coefficients = coefficients
        self._axis_orders = list(zip(*self.indices))

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients

    @coefficients.setter
    def coefficients(self, values) -> None:
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (len(self.indices),):
            raise ValueError("need one coefficient per index")
        self._coefficients = values

    @property
    def eigenvalue(self) -> float:
        return math.sqrt(2 * self.level + self.dim)

    def global_l2_norm(self) -> float:
        """Exact L^2(R^n) norm: the product basis is orthonormal."""
        c = self._coefficients
        return math.sqrt(math.fsum(c * c))

    @staticmethod
    def tabulate(pairs) -> None:
        """Build the axis tables of every (evaluator, axes) pair from one
        Hermite recurrence over all their axes, and keep each as its
        evaluator's last grid, as a first call on those axes would.

        A later call on the same axes then runs no recurrence.  Every
        table is bit for bit the one the evaluator would build itself.
        """
        pairs = [(e, [np.array(a, dtype=float) for a in axes])
                 for e, axes in pairs]
        if any(len(axes) != e.dim for e, axes in pairs):
            raise ValueError("need one axis per dimension")
        tables = hermite_on_grids(
            [orders for e, _ in pairs for orders in e._axis_orders],
            [a for _, axes in pairs for a in axes])
        start = 0
        for e, axes in pairs:
            e._kept = (axes, tables[start:start + e.dim])
            start += e.dim

    def _axis_tables(self, axes) -> list:
        kept = self._kept
        if kept is None or not all(map(np.array_equal, kept[0], axes)):
            self._kept = None  # free the old tables before building new ones
            kept = ([a.copy() for a in axes],
                    hermite_on_grids(self._axis_orders, axes))
            self._kept = kept
        return kept[1]

    def __call__(self, *axes, lead=slice(None)) -> np.ndarray:
        if len(axes) != self.dim:
            raise ValueError(f"expected {self.dim} axes, got {len(axes)}")
        axes = [np.asarray(a, dtype=float) for a in axes]
        if any(a.ndim != 1 for a in axes):
            raise ValueError("axes must be 1-D node arrays")
        tables = list(self._axis_tables(axes))
        tables[0] = tables[0][:, lead]
        *first, last = tables
        head = self._coefficients[:, None]
        for table in first:
            head = (head[:, :, None] * table[:, None]).reshape(len(head), -1)
        if 1 in (head.shape[1], last.shape[1]):
            # a one-row or one-column tile is a vector product, which numpy
            # runs through BLAS only on positive strides; a reversed view
            # keeps numpy's own loop, which adds the terms one by one from
            # zero, as the shipped outputs were computed
            last = last[::-1].copy()[::-1]
        few = len(head) < _ONE_THREAD_TERMS
        with one_thread() if few else contextlib.nullcontext():
            tile = head.T @ last
        return tile.reshape([t.shape[1] for t in tables])


class DenseEigenfunction2D(Eigenfunction):
    """The combination over a whole 2-D eigenspace: coefficient a is the
    term (a, N - a), so ``dense(xs, ys)`` is the (len(xs), len(ys)) tile
    sum_a c_a f_a(x_i) f_{N-a}(y_j), one product of N + 1 terms."""

    def __init__(self, level: int, coefficients):
        level = int(level)
        super().__init__(2, level, [(a, level - a) for a in range(level + 1)],
                         coefficients)

    # bound here too: benchmark tracing counts this class's own __call__
    __call__ = Eigenfunction.__call__
