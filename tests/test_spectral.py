import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hermlp import spectral as sp
from hermlp.hermite import hermite_batch, hermite_batch_grid


def _product_eigenfunction(alpha, pts):
    """Product eigenfunction for multi-index alpha at points of shape (m, n)."""
    vals = np.ones(pts.shape[0])
    for axis, k in enumerate(alpha):
        vals = vals * hermite_batch([k], pts[:, axis])[0]
    return vals


def hermite_value(k, x):
    return hermite_batch([k], [x])[0, 0]


class TestLevels:
    def test_multiplicity(self):
        assert sp.multiplicity(0, 5) == 1
        assert sp.multiplicity(100, 2) == 101
        assert sp.multiplicity(5, 4) == math.comb(8, 3)
        assert sp.multiplicity(7, 1) == 1


def _scalar_indices(level, dim):
    """Multi-indices of |alpha| = level, lexicographically decreasing, one
    at a time: the rightmost nonzero entry before the last donates one."""
    a = [level] + [0] * (dim - 1)
    while True:
        yield tuple(a)
        i = dim - 2
        while i >= 0 and a[i] == 0:
            i -= 1
        if i < 0:
            return
        a[i] -= 1
        tail = sum(a[i + 1:]) + 1
        for j in range(i + 1, dim):
            a[j] = 0
        a[i + 1] = tail


class TestIndexEnumeration:
    def test_small_case_exact_order(self):
        assert sp._index_array(2, 3).tolist() == [
            [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2],
        ]

    def test_matches_scalar_enumeration(self):
        for dim in range(1, 6):
            for level in range(12):
                got = map(tuple, sp._index_array(level, dim).tolist())
                assert list(got) == list(_scalar_indices(level, dim))

    def test_dim_one(self):
        assert sp._index_array(9, 1).tolist() == [[9]]

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=5))
    def test_count_and_content(self, level, dim):
        seen = list(map(tuple, sp._index_array(level, dim).tolist()))
        assert len(seen) == sp.multiplicity(level, dim)
        assert len(set(seen)) == len(seen)
        for alpha in seen:
            assert len(alpha) == dim
            assert all(a >= 0 for a in alpha)
            assert sum(alpha) == level
        assert seen == sorted(seen, reverse=True)


class TestEvaluation:
    def test_product_eigenfunction(self):
        pts = np.array([[0.3, -1.2], [0.0, 0.5]])
        vals = _product_eigenfunction((2, 5), pts)
        for row, (x1, x2) in enumerate(pts):
            expect = hermite_value(2, x1) * hermite_value(5, x2)
            assert vals[row] == pytest.approx(expect, rel=1e-13)

    def test_eval_2d_matches_pointwise_sum(self):
        level = 9
        rng = np.random.default_rng(1)
        c = rng.standard_normal(level + 1)
        xs = np.array([0.25, -1.0])
        ys = np.array([0.7, 0.0, 2.0])
        grid = sp.DenseEigenfunction2D(level, c)(xs, ys)
        assert grid.shape == (2, 3)
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                direct = sum(
                    c[a] * hermite_value(a, xv) * hermite_value(level - a, yv)
                    for a in range(level + 1)
                )
                assert grid[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_eval_2d_accepts_axis_tables(self):
        level = 6
        c = np.ones(level + 1)
        xs = np.linspace(-1, 1, 5)
        hx = hermite_batch_grid(level, xs)
        dense = sp.DenseEigenfunction2D(level, c)
        a = dense(xs, xs)
        b = (c[:, None] * hx).T @ hx[::-1]
        assert np.array_equal(a, b)
        assert np.array_equal(dense(xs.copy(), xs.copy()), a)
        with pytest.raises(ValueError):
            dense.coefficients = c[:3]


class TestKernelSum:
    def test_dim_one_is_rank_one(self):
        vals = sp.projection_kernel_sum(12, 1, [0.7], [-0.4])
        expect = hermite_value(12, 0.7) * hermite_value(12, -0.4)
        assert vals == pytest.approx(expect, rel=1e-13)

    def test_dim_two_matches_enumeration(self):
        rng = np.random.default_rng(0)
        level = 7
        h = None
        for _ in range(4):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            fast = sp.projection_kernel_sum(level, 2, x, y)
            hh = hermite_batch_grid(level, np.concatenate([x, y]))
            slow = sum(
                hh[a, 0] * hh[level - a, 1] * hh[a, 2] * hh[level - a, 3]
                for a in range(level + 1)
            )
            assert fast == pytest.approx(slow, abs=1e-14)

    def test_symmetry_dim_three(self):
        x = np.array([0.3, -0.5, 1.0])
        y = np.array([0.1, 0.4, -0.2])
        assert sp.projection_kernel_sum(6, 3, x, y) == pytest.approx(
            sp.projection_kernel_sum(6, 3, y, x), rel=1e-12
        )

    def test_diagonal_trace_integrates_to_multiplicity(self):
        # int K(x,x) dx = dim of the eigenspace; midpoint rule, n = 1
        level = 12
        xs = np.linspace(-8, 8, 4001)
        k_diag = np.array([sp.projection_kernel_sum(level, 1, [x], [x]) for x in xs])
        total = np.trapezoid(k_diag, xs)
        assert total == pytest.approx(1.0, abs=1e-7)

    @staticmethod
    def _scalar_sum(level, dim, x, y):
        """The kernel sum as a plain loop over a scalar index enumeration."""
        h = hermite_batch_grid(level, np.concatenate([x, y]))
        total = 0.0
        for alpha in _scalar_indices(level, dim):
            px = 1.0
            py = 1.0
            for axis, k in enumerate(alpha):
                px *= h[k, axis]
                py *= h[k, dim + axis]
            total += px * py
        return total

    @pytest.mark.parametrize("dim,top", [(3, 40), (4, 12)])
    def test_matches_scalar_loop_exactly(self, dim, top):
        rng = np.random.default_rng(dim)
        for level in range(top + 1):
            for x, y in ((rng.uniform(-3, 3, dim), rng.uniform(-3, 3, dim)),
                         (np.zeros(dim), rng.uniform(-3, 3, dim))):
                got = sp.projection_kernel_sum(level, dim, x, y)
                want = self._scalar_sum(level, dim, x, y)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_index_cap(self, monkeypatch):
        # level 10 in five dimensions has 1001 indices
        monkeypatch.setattr(sp, "_INDEX_CAP", 1000)
        with pytest.raises(ValueError, match="too large"):
            sp.projection_kernel_sum(10, 5, np.zeros(5), np.zeros(5))
        monkeypatch.setattr(sp, "_INDEX_CAP", 1001)
        assert sp.projection_kernel_sum(10, 5, np.zeros(5), np.zeros(5)) > 0

    def test_rejects_points_of_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            sp.projection_kernel_sum(4, 2, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            sp.projection_kernel_sum(4, 2, np.zeros(2), np.zeros((2, 1)))

    @pytest.mark.parametrize("dim,level", [(1, 40), (2, 17), (3, 9)])
    def test_batch_has_each_pairs_bits(self, dim, level):
        rng = np.random.default_rng(dim)
        x, y = rng.uniform(-3, 3, (2, 7, dim))
        y[0] = x[0]  # a diagonal pair
        got = sp.projection_kernel_sums(level, dim, x, y)
        want = [sp.projection_kernel_sum(level, dim, xi, yi)
                for xi, yi in zip(x, y)]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    def test_batch_rejects_points_of_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            sp.projection_kernel_sums(4, 2, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            sp.projection_kernel_sums(4, 2, np.zeros((3, 2)), np.zeros((2, 2)))


class TestEigenfunction:
    def test_ground_state_at_origin(self):
        for dim in (1, 2, 3):
            e = sp.Eigenfunction(dim, 0, [(0,) * dim], [1.0])
            at0 = e(*[[0.0]] * dim)[(0,) * dim]
            assert at0 == pytest.approx(math.pi ** (-dim / 4), rel=1e-14)

    def test_odd_factor_vanishes_on_its_axis(self):
        e = sp.Eigenfunction(2, 1, [(1, 0)], [1.0])
        ys = np.linspace(-3, 3, 11)
        assert np.max(np.abs(e([0.0], ys))) == 0.0

    def test_matches_high_precision_oracle(self):
        # level-6 dense combination at (0.4, -1.2); 40-digit reference
        coeffs = [0.3, -1.1, 0.7, 0.05, -0.6, 1.3, -0.25]
        e = sp.Eigenfunction(2, 6, [(a, 6 - a) for a in range(7)], coeffs)
        val = e([0.4], [-1.2])[0, 0]
        assert val == pytest.approx(-0.37865067677897761934, rel=1e-10)

    def test_single_term_oracle_dim_three(self):
        e = sp.Eigenfunction(3, 8, [(2, 5, 1)], [1.0])
        val = e([0.9], [-0.3], [1.7])[0, 0, 0]
        assert val == pytest.approx(-0.034409187143491671533, rel=1e-10)

    def test_matches_per_index_evaluation(self):
        rng = np.random.default_rng(11)
        idx = [(2, 4), (6, 0), (3, 3)]
        cfs = [0.5, -1.25, 0.75]
        e = sp.Eigenfunction(2, 6, idx, cfs)
        xs = rng.uniform(-2.5, 2.5, 8)
        ys = rng.uniform(-2.5, 2.5, 8)
        pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")])
        direct = sum(
            c * _product_eigenfunction(a, pts) for a, c in zip(idx, cfs)
        )
        np.testing.assert_allclose(e(xs, ys).ravel(), direct, atol=1e-13)

    def test_norm_and_eigenvalue(self):
        e = sp.Eigenfunction(2, 6, [(2, 4), (6, 0)], [3.0, 4.0])
        assert e.global_l2_norm() == pytest.approx(5.0, rel=1e-15)
        assert e.eigenvalue == pytest.approx(math.sqrt(14), rel=1e-15)

    def test_one_l2_norm_for_both_evaluators(self):
        # fsum is correctly rounded, so the norm is the scalar loop's bits
        # whichever constructor built the evaluator
        level = 40
        c = np.random.default_rng(11).standard_normal(level + 1)
        want = math.sqrt(math.fsum(float(x) * float(x) for x in c))
        sparse = sp.Eigenfunction(2, level, [(a, level - a)
                                             for a in range(level + 1)], c)
        dense = sp.DenseEigenfunction2D(level, c)
        assert sparse.global_l2_norm() == want
        assert dense.global_l2_norm() == want

    def test_one_dim_points_accepted_flat(self):
        e = sp.Eigenfunction(1, 4, [(4,)], [1.0])
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            e(xs), _product_eigenfunction((4,), xs[:, None]), atol=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [(2, 3)], [1.0])  # wrong level
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [(2, 4, 0)], [1.0])  # wrong dim
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [(2, 4)], [1.0, 2.0])  # length mismatch
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [(2, 4), (2, 4)], [1.0, 1.0])  # duplicate
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [], [])  # empty
        with pytest.raises(ValueError):
            sp.Eigenfunction(2, 6, [(-1, 7)], [1.0])  # negative order
        e = sp.Eigenfunction(2, 6, [(2, 4)], [1.0])
        with pytest.raises(ValueError):
            e(np.zeros(3))  # one axis for a 2-D eigenfunction
        with pytest.raises(ValueError):
            e(np.zeros((3, 2)), np.zeros(3))  # not a 1-D axis


def _axis_tables(e, axes, lead):
    """One table per axis from ``hermite_batch``, a row per term in term
    order; the first axis's columns cut to ``lead``."""
    tables = [hermite_batch([alpha[k] for alpha in e.indices], axis)
              for k, axis in enumerate(axes)]
    tables[0] = tables[0][:, lead]
    return tables


def _term_loop(e, axes, lead):
    """The tile as whole-tile terms, each added to the tile in term order,
    and the same sum of the terms' magnitudes."""
    tables = _axis_tables(e, axes, lead)
    acc = np.zeros([t.shape[1] for t in tables])
    size = np.zeros_like(acc)
    for i, c in enumerate(e.coefficients):
        term = c * tables[0][i]
        for table in tables[1:]:
            term = term[..., None] * table[i]
        acc += term
        size += np.abs(term)
    return acc, size


def _factor_product(e, axes, lead):
    """The tile as one explicit product: column i of the left matrix holds
    term i's coefficient times its first-axes factors, on every point of
    those axes; the right matrix is the last axis's table.  A one-row or
    one-column product is summed term by term from zero, as numpy's own
    vector loop does."""
    tables = _axis_tables(e, axes, lead)
    columns = []
    for i, c in enumerate(e.coefficients):
        column = np.array([c])
        for table in tables[:-1]:
            column = np.multiply.outer(column, table[i]).ravel()
        columns.append(column)
    left, right = np.column_stack(columns), tables[-1]
    if 1 in (len(left), right.shape[1]):
        tile = np.zeros((len(left), right.shape[1]))
        for i in range(len(columns)):
            tile += left[:, i:i + 1] * right[i]
    else:
        tile = left @ right
    return tile.reshape([t.shape[1] for t in tables])


class TestTileProduct:
    @staticmethod
    def _case(dim):
        rng = np.random.default_rng(dim)
        level = {1: 7, 2: 9, 3: 6}[dim]
        indices = [alpha for alpha in sp._index_array(level, dim).tolist()
                   if rng.random() < 0.7]
        coefficients = rng.standard_normal(len(indices))
        sizes = {1: (53,), 2: (23, 17), 3: (11, 7, 5)}[dim]
        axes = [np.sort(rng.uniform(-4.0, 4.0, m)) for m in sizes]
        return sp.Eigenfunction(dim, level, indices, coefficients), axes

    @staticmethod
    def _leads(m):
        return (slice(None), slice(2, m - 3), slice(0, 1), slice(m - 5, None),
                slice(4, 4))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bits_equal_the_factor_product(self, dim):
        e, axes = self._case(dim)
        for lead in self._leads(axes[0].size):
            got = e(*axes, lead=lead)
            want = _factor_product(e, axes, lead)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lead

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_within_a_few_ulps_of_the_term_loop(self, dim):
        # the product adds the terms in its own order, so only the last
        # bits may move: a few ulps of the terms' summed magnitudes
        e, axes = self._case(dim)
        for lead in self._leads(axes[0].size):
            got = e(*axes, lead=lead)
            want, size = _term_loop(e, axes, lead)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4 * np.spacing(size)), lead

    @pytest.mark.parametrize("level,size,cross", [
        (12, 9, 16), (400, 160, 167), (400, 40, 1)])
    def test_full_index_set_is_the_dense_product(self, level, size, cross):
        # the full 2-D index set in term order: both axes' orders are
        # distinct, so the tile is the dense product of the ascending and
        # reversed tables, bit for bit, one-row and one-column tiles too
        rng = np.random.default_rng(level + cross)
        c = rng.standard_normal(level + 1)
        xs = np.sort(rng.uniform(-4.0, 6.0, size))
        ys = np.sort(rng.uniform(-5.0, 3.0, cross))
        h1 = hermite_batch_grid(level, xs)
        h2 = hermite_batch_grid(level, ys)
        e = sp.Eigenfunction(2, level, [(a, level - a)
                                        for a in range(level + 1)], c)
        for lead in (slice(None), slice(0, size // 3), slice(0, 1),
                     slice(size - 1, size)):
            want = (c[:, None] * h1[:, lead]).T @ h2[::-1]
            assert np.array_equal(e(xs, ys, lead=lead), want), lead

    @pytest.mark.parametrize("level,threads", [
        (8, [1, 7]), (62, [1, 7]), (63, []), (200, [])],
        ids=["9-terms", "63-terms", "64-terms", "201-terms"])
    def test_few_terms_run_on_one_thread(self, fake_blas, level, threads):
        # the second call on a grid builds no table: whatever it sets the
        # thread count to is the product's
        e = sp.DenseEigenfunction2D(level, np.ones(level + 1))
        xs = np.linspace(-2.0, 2.0, 9)
        first = e(xs, xs)
        fake_blas.history.clear()
        assert np.array_equal(e(xs, xs), first)
        assert fake_blas.history == threads
        assert fake_blas.count == 7

    def test_coefficients_share_the_tables(self, monkeypatch):
        e, axes = self._case(3)
        first = e(*axes)
        monkeypatch.setattr(sp, "hermite_on_grids", None)  # no new tables
        e.coefficients = 2.0 * e.coefficients
        assert np.array_equal(e(*axes), 2.0 * first)
        with pytest.raises(ValueError, match="one coefficient per index"):
            e.coefficients = e.coefficients[1:]

    def test_tabulate_shares_one_recurrence(self, monkeypatch):
        # three evaluators of different dims and levels: one recurrence
        # fills every evaluator's tables, and each tile then has the bits
        # of an evaluator that built its own tables
        cases = [self._case(dim) for dim in (1, 2, 3)]
        want = [e(*axes).tobytes() for e, axes in cases]
        fresh = [(sp.Eigenfunction(e.dim, e.level, e.indices, e.coefficients),
                  [a.tolist() for a in axes]) for e, axes in cases]
        calls = []
        real = sp.hermite_on_grids

        def counted(orders, grids):
            calls.append(len(grids))
            return real(orders, grids)

        monkeypatch.setattr(sp, "hermite_on_grids", counted)
        sp.Eigenfunction.tabulate(fresh)
        assert calls == [1 + 2 + 3]
        monkeypatch.setattr(sp, "hermite_on_grids", None)  # no new tables
        assert [e(*axes).tobytes() for e, axes in fresh] == want

    def test_tabulate_needs_one_axis_per_dimension(self):
        e, axes = self._case(2)
        with pytest.raises(ValueError, match="one axis per dimension"):
            sp.Eigenfunction.tabulate([(e, axes[:1])])

    def test_empty_cross_axis(self):
        e = sp.Eigenfunction(2, 3, [(1, 2), (3, 0)], [1.0, -0.5])
        tile = e(np.linspace(-1.0, 1.0, 4), np.array([]))
        assert tile.shape == (4, 0)


class TestDenseEigenfunction2D:
    def test_agrees_with_sparse(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(13)
        dense = sp.DenseEigenfunction2D(12, c)
        sparse = sp.Eigenfunction(2, 12, [(a, 12 - a) for a in range(13)], c)
        xs = rng.uniform(-3, 3, 20)
        ys = rng.uniform(-3, 3, 10)
        np.testing.assert_allclose(dense(xs, ys), sparse(xs, ys), atol=1e-12)

    def test_grid_reuse_is_deterministic(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(21)
        dense = sp.DenseEigenfunction2D(20, c)
        xs = np.linspace(-4, 4, 13)
        first = dense(xs, xs)
        second = dense(xs, xs)
        np.testing.assert_array_equal(first, second)

    def test_oracle_value(self):
        coeffs = [0.3, -1.1, 0.7, 0.05, -0.6, 1.3, -0.25]
        dense = sp.DenseEigenfunction2D(6, coeffs)
        val = dense(np.array([0.4]), np.array([-1.2]))[0, 0]
        assert val == pytest.approx(-0.37865067677897761934, rel=1e-10)

    @pytest.mark.parametrize("level,size,cross", [
        (12, 9, 16), (400, 160, 167), (1600, 330, 337), (400, 40, 1)])
    def test_tile_equals_the_reversed_table_product(self, level, size, cross):
        # the second table comes in product order; the tile must be the
        # product with the reversed ascending table, bit for bit, also
        # for one-row and one-column tiles, which numpy computes as
        # vector products
        rng = np.random.default_rng(level + cross)
        c = rng.standard_normal(level + 1)
        xs = np.sort(rng.uniform(-4.0, 6.0, size))
        ys = np.sort(rng.uniform(-5.0, 3.0, cross))
        h1 = hermite_batch_grid(level, xs)
        h2 = hermite_batch_grid(level, ys)
        dense = sp.DenseEigenfunction2D(level, c)
        for lead in (slice(None), slice(0, size // 3), slice(size // 3, size),
                     slice(size - 1, size)):
            want = (c[:, None] * h1[:, lead]).T @ h2[::-1]
            assert np.array_equal(dense(xs, ys, lead=lead), want), lead

    def test_validation(self):
        with pytest.raises(ValueError):
            sp.DenseEigenfunction2D(6, [1.0, 2.0])
        dense = sp.DenseEigenfunction2D(2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            dense(np.zeros((4, 3)), np.zeros(4))
