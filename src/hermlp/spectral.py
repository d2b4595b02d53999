"""Spectral bookkeeping for -Laplacian + |x|^2 on R^n.

An eigenspace is labeled by its level N >= 0: the eigenvalue is
lambda^2 = 2N + n with multiplicity binom(N+n-1, n-1), and a product
basis is indexed by the multi-indices alpha with |alpha| = N.  This
module enumerates those indices, evaluates eigenfunctions (single basis
elements and dense coefficient combinations on tensor grids), and
provides the exact finite-sum form of the spectral projection kernel
used as the reference for the oscillatory-integral evaluator.
"""

from __future__ import annotations

import math

import numpy as np

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


class _AxesEvaluator:
    """Axes integrand for ``normquad.local_lp_norm``: called with one 1-D
    node array per axis and a ``lead`` slice of the first, it returns the
    tile on ``axes[0][lead] x axes[1] x ...``.  The tables of all axes
    come from one recurrence over the orders ``_axis_orders`` lists per
    axis, and the last grid's are kept, its nodes compared by value, so
    all lead blocks of a grid, or repeated calls on it, share that one
    recurrence.
    """

    _kept = None  # (node arrays of all axes, their tables)

    def _node_axes(self, axes) -> list:
        if len(axes) != self.dim:
            raise ValueError(f"expected {self.dim} axes, got {len(axes)}")
        axes = [np.asarray(a, dtype=float) for a in axes]
        if any(a.ndim != 1 for a in axes):
            raise ValueError("axes must be 1-D node arrays")
        return axes

    def global_l2_norm(self) -> float:
        """Exact L^2(R^n) norm: the product basis is orthonormal."""
        c = np.asarray(self.coefficients, dtype=float)
        return math.sqrt(math.fsum(c * c))

    def _axis_tables(self, axes) -> list:
        kept = self._kept
        if kept is None or not all(map(np.array_equal, kept[0], axes)):
            self._kept = None  # free the old tables before building new ones
            kept = ([a.copy() for a in axes],
                    hermite_on_grids(self._axis_orders, axes))
            self._kept = kept
        return kept[1]


# Eigenfunction tiles are built in chunks of lead rows of about this many
# elements, so each term's product and its sum into the tile stay in cache.
# On the tiles of a sweep-tube pass, 2^15 and 2^16 were the fastest
# (about 0.37 s against 0.69 s for whole-tile terms); 2^13 and 2^18 were
# about 0.1 s slower.
_TILE_CHUNK = 1 << 15


class Eigenfunction(_AxesEvaluator):
    """Sparse coefficient combination over one eigenspace, on tensor axes.

    ``e(x_0, ..., x_{n-1})`` is the tile sum_alpha c_alpha
    prod_k f_{alpha_k}(x_k[i_k]), shape (len(x_0), ..., len(x_{n-1})),
    from one Hermite table per axis over the orders its indices use.
    """

    def __init__(self, dim: int, level: int, indices, coefficients):
        self.dim = int(dim)
        self.level = int(level)
        self.indices = tuple(tuple(int(a) for a in alpha) for alpha in indices)
        self.coefficients = tuple(float(c) for c in coefficients)
        if len(self.indices) != len(self.coefficients):
            raise ValueError("indices and coefficients differ in length")
        if not self.indices:
            raise ValueError("eigenfunction needs at least one term")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate multi-index")
        for alpha in self.indices:
            if len(alpha) != self.dim:
                raise ValueError(f"index {alpha} has wrong dimension")
            if sum(alpha) != self.level or min(alpha) < 0:
                raise ValueError(f"index {alpha} is not in level {self.level}")
        self._axis_orders = [sorted({a[k] for a in self.indices})
                             for k in range(self.dim)]
        self._rows = [tuple(orders.index(a) for a, orders
                            in zip(alpha, self._axis_orders))
                      for alpha in self.indices]

    @property
    def eigenvalue(self) -> float:
        return math.sqrt(2 * self.level + self.dim)

    def __call__(self, *axes, lead=slice(None)) -> np.ndarray:
        axes = self._node_axes(axes)
        tables = list(self._axis_tables(axes))
        tables[0] = tables[0][:, lead]
        acc = np.zeros((tables[0].shape[1],) + tuple(a.size for a in axes[1:]))
        step = max(1, _TILE_CHUNK // max(1, math.prod(acc.shape[1:])))
        buf = np.empty((min(step, len(acc)),) + acc.shape[1:])
        for start in range(0, len(acc), step):
            part = acc[start:start + step]
            term = buf[:len(part)]
            first = tables[0][:, start:start + step]
            for rows, c in zip(self._rows, self.coefficients):
                if self.dim == 1:
                    np.multiply(c, first[rows[0]], out=term)
                else:
                    head = c * first[rows[0]]
                    for table, row in zip(tables[1:-1], rows[1:-1]):
                        head = head[..., None] * table[row]
                    np.multiply(head[..., None], tables[-1][rows[-1]], out=term)
                part += term
        return acc


class DenseEigenfunction2D(_AxesEvaluator):
    """Full 2-D eigenspace combination, evaluated on tensor grids.

    Coefficient a pairs f_a on the first axis with f_{N-a} on the second,
    so ``dense(xs, ys)`` is the (len(xs), len(ys)) tile
    sum_a c_a f_a(x_i) f_{N-a}(y_j): a Hermite table per axis, both from
    one recurrence, and one matrix product, which is what makes dense
    combinations at level a few thousand affordable.  The second axis's
    table is built in the order the product reads it, row a holding
    f_{N-a}, so the product gets a contiguous operand and no reversed
    copy is made per call.  Assigning new ``coefficients`` and
    evaluating on the same grid again runs no recurrence: many
    combinations over one level share their tables.
    """

    def __init__(self, level: int, coefficients):
        self.dim = 2
        self.level = int(level)
        self.coefficients = coefficients
        self._axis_orders = [range(self.level + 1),
                             range(self.level, -1, -1)]

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients

    @coefficients.setter
    def coefficients(self, values) -> None:
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (self.level + 1,):
            raise ValueError("coefficient vector must have length level + 1")
        self._coefficients = values

    @property
    def eigenvalue(self) -> float:
        return math.sqrt(2 * self.level + 2)

    def __call__(self, xs, ys, *, lead=slice(None)) -> np.ndarray:
        h1, h2 = self._axis_tables(self._node_axes((xs, ys)))
        # f_a on x pairs with row a of h2, f_{N-a} on y
        a = (self.coefficients[:, None] * h1[:, lead]).T
        if 1 in (len(a), h2.shape[1]):
            # a one-row or one-column tile is a vector product, which numpy
            # runs through BLAS only on positive strides; a reversed view
            # keeps its loop, and its bits, as they were before h2 came in
            # product order
            h2 = h2[::-1].copy()[::-1]
        return a @ h2
