"""Quadrature layer: local norms over balls."""

import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlp import normquad as NQ
from hermlp import spectral as sp
from hermlp.hermite import hermite_batch


def on_axes(f):
    """Axes form of a point integrand f, which maps a (K, dim) array of
    points to K values: build the tile's nodes from its axes, evaluate,
    and fold the values back."""

    def at_axes(*axes, lead=slice(None)):
        mesh = np.meshgrid(axes[0][lead], *axes[1:], indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        return np.asarray(f(pts), dtype=float).reshape(mesh[0].shape)

    return at_axes


def ground(pts):
    x = np.asarray(pts)[:, 0]
    return math.pi**-0.25 * np.exp(-0.5 * x * x)


def ones(pts):
    return np.ones(len(pts))


def ball_volume(n: int, radius: float) -> float:
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0) * radius**n


# the 1-D ball about 0 of radius 1 is the interval [-1, 1]
BALL1 = NQ.Domain((0.0,), 1.0, NQ.TensorGrid(41))


class TestOracles:
    def test_ground_state_l2_on_unit_box(self):
        # closed form sqrt(erf(1)), frozen from 30-digit arithmetic
        got = NQ.local_lp_norm(on_axes(ground), BALL1, 2.0, osc_scale=1.0)
        assert abs(got.value - 0.9179873599073763) < 1e-12
        assert got.error_estimate < 1e-12

    def test_ground_state_l4_on_unit_box(self):
        got = NQ.local_lp_norm(on_axes(ground), BALL1, 4.0, osc_scale=1.0)
        assert abs(got.value - 0.7855457252168471) < 1e-12

    def test_ground_state_sup(self):
        # odd point count puts a node exactly at the peak
        got = NQ.local_lp_norm(on_axes(ground), BALL1, math.inf,
                               osc_scale=1.0)
        assert abs(got.value - math.pi**-0.25) < 1e-15

    def test_disc_area_through_indicator(self):
        disc = NQ.Domain((0.3, -0.2), 0.7, NQ.TensorGrid(251))
        got = NQ.local_lp_norm(on_axes(ones), disc, 2.0, osc_scale=1.0)
        assert abs(got.value - math.sqrt(math.pi * 0.49)) < 3e-3

    def test_product_state_on_disc_matches_chord_quadrature(self):
        def edge(pts):
            pts = np.asarray(pts)
            return hermite_batch([3], pts[:, 0])[0] * hermite_batch([5], pts[:, 1])[0]

        # reference: x = cx + r sin(t) makes the disc's chords smooth in t,
        # so Gauss-Legendre in t and along each chord is spectrally exact
        cx, cy, r = 0.1, -0.4, 1.3
        u, wu = np.polynomial.legendre.leggauss(120)
        t, half = 0.5 * np.pi * u, r * np.cos(0.5 * np.pi * u)
        ys = cy + half[:, None] * u[None, :]
        inner = (hermite_batch([5], ys.ravel())[0].reshape(ys.shape) ** 2) @ wu
        outer = hermite_batch([3], cx + r * np.sin(t))[0] ** 2 * half * inner
        want = math.sqrt(0.5 * np.pi * float(outer @ (wu * half)))

        disc = NQ.Domain((cx, cy), r, NQ.TensorGrid(60))
        got = NQ.local_lp_norm(on_axes(edge), disc, 2.0, osc_scale=4.0)
        # the sharp disc indicator converges at first order in the
        # spacing; the once-doubled grid bounds that error
        assert abs(got.value - want) < got.error_estimate < 3e-3
        state = sp.Eigenfunction(2, 8, [(3, 5)], [1.0])
        assert NQ.local_lp_norm(state, disc, 2.0, osc_scale=4.0) == got

    def test_global_l2_is_hypot_of_coefficients(self):
        assert sp.DenseEigenfunction2D(1, [3.0, 4.0]).global_l2_norm() == 5.0
        assert sp.DenseEigenfunction2D(4, np.zeros(5)).global_l2_norm() == 0.0

    def test_global_norm_matches_quadrature_over_large_disc(self):
        # level 6 has its turning circle at radius sqrt(14) < 4; outside
        # the disc of radius 7 the eigenfunction is below 1e-7
        c = np.random.default_rng(3).standard_normal(7)
        dense = sp.DenseEigenfunction2D(6, c)
        disc = NQ.Domain((0.0, 0.0), 7.0, NQ.TensorGrid(220))
        got = NQ.local_lp_norm(dense, disc, 2.0, osc_scale=dense.eigenvalue)
        assert got.value == pytest.approx(dense.global_l2_norm(), rel=1e-12)


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hoelder_chain(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(4)

        def f(pts):
            x = np.asarray(pts)
            return sum(ck * hermite_batch([k], x[:, 0])[0]
                       * hermite_batch([k + 1], x[:, 1])[0]
                       for k, ck in enumerate(c))

        dom = NQ.Domain((0.0, 0.0), 1.1, NQ.TensorGrid(80))
        vol = ball_volume(dom.dim, dom.scale)
        f = on_axes(f)
        n2 = NQ.local_lp_norm(f, dom, 2.0, osc_scale=4.0, with_error=False).value
        n4 = NQ.local_lp_norm(f, dom, 4.0, osc_scale=4.0, with_error=False).value
        ni = NQ.local_lp_norm(f, dom, math.inf, osc_scale=4.0,
                              with_error=False).value
        assert n2 <= vol ** (1 / 2 - 1 / 4) * n4 * (1 + 1e-9)
        assert n4 <= vol ** (1 / 4) * ni * (1 + 1e-9)

    def test_monotone_in_radius(self):
        vals = []
        for r in (0.4, 0.7, 1.0, 1.4):
            d = NQ.Domain((0.2,), r, NQ.TensorGrid(160))
            vals.append(NQ.local_lp_norm(on_axes(ground), d, 2.0, osc_scale=1.0,
                                         with_error=False).value)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_doubling_resolution_stable(self):
        a = NQ.local_lp_norm(on_axes(ground), BALL1, 2.0, osc_scale=1.0,
                             with_error=False).value
        b = NQ.local_lp_norm(on_axes(ground),
                             NQ.Domain((0.0,), 1.0, NQ.TensorGrid(83)),
                             2.0, osc_scale=1.0, with_error=False).value
        assert abs(a - b) <= 1e-3 * abs(b)

    def test_determinism(self):
        d = NQ.Domain((0.1, 0.2), 0.8, NQ.TensorGrid(55))
        a = NQ.local_lp_norm(ground2 := on_axes(lambda pts: np.exp(
            -np.sum(np.asarray(pts) ** 2, axis=1))), d, 3.0, osc_scale=2.0)
        b = NQ.local_lp_norm(ground2, d, 3.0, osc_scale=2.0)
        assert a.value == b.value


def gauss3(pts):
    x = np.asarray(pts)
    return np.exp(-0.5 * np.sum(x * x, axis=1))


class TestBallThreeDim:
    BALL3 = NQ.Domain((0.0, 0.0, 0.0), 0.9, NQ.TensorGrid(41))

    def test_volume_and_determinism(self):
        a = NQ.local_lp_norm(on_axes(ones), self.BALL3, 2.0, osc_scale=1.0)
        b = NQ.local_lp_norm(on_axes(ones), self.BALL3, 2.0, osc_scale=1.0)
        assert a == b
        err = abs(a.value - math.sqrt(ball_volume(3, 0.9)))
        assert err < 2e-3
        assert err < 2 * a.error_estimate

    def test_gaussian_within_error_band(self):
        import scipy.integrate as si
        got = NQ.local_lp_norm(on_axes(gauss3), self.BALL3, 2.0,
                               osc_scale=1.0)
        want = math.sqrt(si.quad(
            lambda r: 4 * math.pi * r * r * math.exp(-r * r), 0.0, 0.9)[0])
        assert abs(got.value - want) < 2 * got.error_estimate
        assert abs(got.value - want) < 1e-3

    def test_sup_norm_ignores_nodes_outside_ball(self):
        # |x|^2 reaches 3 * 0.81 at the box corners but only 0.81 in the ball
        def radius2(pts):
            return np.sum(np.asarray(pts) ** 2, axis=1)

        got = NQ.local_lp_norm(on_axes(radius2), self.BALL3, math.inf,
                               osc_scale=1.0)
        assert 0.81 - 1e-3 < got.value <= 0.81

    def test_translation_invariance(self):
        c = (0.4, -0.7, 1.1)
        moved = NQ.Domain(c, 0.9, NQ.TensorGrid(41))

        def shifted(pts):
            return gauss3(np.asarray(pts) - np.asarray(c))

        a = NQ.local_lp_norm(on_axes(gauss3), self.BALL3, 3.0, osc_scale=1.0)
        b = NQ.local_lp_norm(on_axes(shifted), moved, 3.0, osc_scale=1.0)
        assert b.value == pytest.approx(a.value, rel=1e-12)


class TestValidation:
    def test_spacing_guard_names_required_count(self):
        coarse = NQ.Domain((0.0,), 1.0, NQ.TensorGrid(10))
        with pytest.raises(ValueError, match="points per axis"):
            NQ.local_lp_norm(on_axes(ground), coarse, 2.0, osc_scale=100.0)

    def test_feature_scale_tightens_guard(self):
        NQ.local_lp_norm(on_axes(ground), BALL1, 2.0, osc_scale=1.0,
                         feature_scale=0.5)
        with pytest.raises(ValueError):
            NQ.local_lp_norm(on_axes(ground), BALL1, 2.0, osc_scale=1.0, feature_scale=0.01)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            NQ.Domain((0.0,), -1.0, NQ.TensorGrid(4))
        with pytest.raises(ValueError):
            NQ.Domain((), 1.0, NQ.TensorGrid(4))
        with pytest.raises(ValueError):
            NQ.TensorGrid(1)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            NQ.local_lp_norm(on_axes(ground), BALL1, 0.5, osc_scale=1.0)


class TestAxisRule:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(NQ, "_rule_cache", {})

    @pytest.mark.parametrize("m", [5, 33, 1282])
    def test_cached_arrays_are_read_only(self, m):
        x, w = NQ._axis_rule(m)
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
        again = NQ._axis_rule(m)
        assert again[0] is x and again[1] is w

    def test_panel_rule_is_built_once(self, monkeypatch):
        built = []
        rule = NQ._gauss_legendre

        def counted(m):
            built.append(m)
            return rule(m)

        monkeypatch.setattr(NQ, "_gauss_legendre", counted)
        panelled = [NQ._axis_rule(m) for m in (1282, 1812, 1603, 3203, 6403)]
        NQ._axis_rule(33)
        assert built == [33]
        bx, bw = rule(33)
        for x, w in panelled:
            panels = x.size // 33
            half = 1.0 / panels
            mids = -1.0 + half * (2.0 * np.arange(panels) + 1.0)
            assert np.array_equal(x, (mids[:, None] + half * bx).ravel())
            assert np.array_equal(w, np.tile(half * bw, panels))


class GaussWave2D:
    """exp(-x^2) cos(3 y) on tensor axes."""

    def __call__(self, xs, ys, lead=slice(None)):
        xs = xs[lead]
        return np.exp(-xs * xs)[:, None] * np.cos(3.0 * ys)[None, :]


def gauss_wave_points(pts):
    pts = np.asarray(pts)
    return np.exp(-pts[:, 0] * pts[:, 0]) * np.cos(3.0 * pts[:, 1])


class Gauss3D:
    def __call__(self, xs, ys, zs, lead=slice(None)):
        xs = xs[lead]
        return (np.exp(-xs * xs)[:, None, None] * np.exp(-ys * ys)[None, :, None]
                * np.cos(zs)[None, None, :])


def gauss3_points(pts):
    pts = np.asarray(pts)
    return (np.exp(-pts[:, 0] * pts[:, 0]) * np.exp(-pts[:, 1] * pts[:, 1])
            * np.cos(pts[:, 2]))


def unique_gather(evaluator):
    """Point form of an axes evaluator: axes rebuilt from the points."""

    def at_points(pts):
        found = [np.unique(col, return_inverse=True) for col in np.asarray(pts).T]
        return evaluator(*(u for u, _ in found))[tuple(inv for _, inv in found)]

    return at_points


# each case runs on its ball and on the concentric ball of half the radius
def dense_case(shrink=1.0):
    rng = np.random.default_rng(11)
    dense = sp.DenseEigenfunction2D(30, rng.standard_normal(31))
    return dense, NQ.Domain((2.0, 0.5), 0.9 * shrink, NQ.TensorGrid(70))


def sparse_case_2d(shrink=1.0):
    e = sp.Eigenfunction(2, 30, [(a, 30 - a) for a in (0, 7, 12, 30)],
                         [0.5, -1.0, 0.25, 2.0])
    return e, NQ.Domain((2.0, 0.5), 0.9 * shrink, NQ.TensorGrid(70))


def sparse_case_3d(shrink=1.0):
    e = sp.Eigenfunction(3, 8, [(2, 5, 1), (8, 0, 0), (0, 4, 4)],
                         [1.0, -0.75, 0.5])
    return e, NQ.Domain((0.3, -0.2, 0.1), 0.45 * shrink, NQ.TensorGrid(24))


class TestAxesIntegrands:
    """An axes integrand and its point form give bit-identical norms."""

    @pytest.mark.parametrize("block", [NQ._BLOCK, 64])
    @pytest.mark.parametrize("radius", [1.1, 0.55])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_matches_point_callable(self, monkeypatch, block, radius, p):
        monkeypatch.setattr(NQ, "_BLOCK", block)
        dom = NQ.Domain((0.3, -0.2), radius, NQ.TensorGrid(37))
        a = NQ.local_lp_norm(GaussWave2D(), dom, p, osc_scale=3.0)
        b = NQ.local_lp_norm(on_axes(gauss_wave_points), dom, p,
                             osc_scale=3.0)
        assert a == b
        assert a.nodes == 37 * 37 + 75 * 75

    @pytest.mark.parametrize("m", [37, 1100])
    def test_integrand_gets_the_quadrature_axes(self, m):
        # the coarse grid's axes, then the once-doubled grid's, every block
        # getting the full axes
        dom = NQ.Domain((0.3, -0.2), 1.1, NQ.TensorGrid(m))
        seen = []

        def f(*axes, lead=slice(None)):
            seen.append(axes)
            return np.ones((len(axes[0][lead]), len(axes[1])))

        NQ.local_lp_norm(f, dom, 2.0, osc_scale=3.0)
        grids = {len(axes[0]): axes for axes in (
            NQ.quadrature_axes(dom), NQ.quadrature_axes(dom, 2 * m + 1))}
        # above 1024 points the rule is whole 33-point panels
        assert list(grids) == ([37, 75] if m == 37 else [1122, 2211])
        assert {len(axes[0]) for axes in seen} == set(grids)
        assert all(all(map(np.array_equal, axes, grids[len(axes[0])]))
                   for axes in seen)

    @pytest.mark.parametrize("block, case", [
        pytest.param(block, case, id=f"{block}{suffix}")
        for case, suffix in [(dense_case, ""), (sparse_case_2d, "-sparse2"),
                             (sparse_case_3d, "-sparse3")]
        for block in (NQ._BLOCK, 64)])
    @pytest.mark.parametrize("shrink", [1.0, 0.5])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_dense_eigenfunction_matches_gathered_points(self, monkeypatch,
                                                         block, case, shrink,
                                                         p):
        monkeypatch.setattr(NQ, "_BLOCK", block)
        evaluator, dom = case(shrink)
        lam = evaluator.eigenvalue
        a = NQ.local_lp_norm(evaluator, dom, p, osc_scale=lam)
        b = NQ.local_lp_norm(on_axes(unique_gather(evaluator)), dom, p,
                             osc_scale=lam)
        assert a == b

    @pytest.mark.parametrize("case", [dense_case, sparse_case_2d,
                                      sparse_case_3d])
    def test_one_recurrence_per_grid(self, monkeypatch, stepped_points, case):
        evaluator, dom = case()
        m = dom.quad.points_per_axis
        # lead blocks of 3 nodes, so the lead axis is cut into at least 3
        monkeypatch.setattr(NQ, "_BLOCK", 3 * m ** (dom.dim - 1))
        calls = []
        real = sp.hermite_on_grids
        monkeypatch.setattr(sp, "hermite_on_grids", lambda orders, grids:
                            calls.append(grids) or real(orders, grids))
        NQ.local_lp_norm(evaluator, dom, 2.0, osc_scale=evaluator.eigenvalue,
                         with_error=False)
        assert len(calls) == 1
        # each axis steps only to the highest order its own factors use
        if isinstance(evaluator, sp.DenseEigenfunction2D):
            highest = [evaluator.level] * 2
        else:
            highest = [max(a[k] for a in evaluator.indices)
                       for k in range(dom.dim)]
        assert stepped_points.steps == sum(k * m for k in highest)

    @pytest.mark.parametrize("radius", [0.8, 0.4])
    def test_three_dimensional_blocks(self, monkeypatch, radius):
        monkeypatch.setattr(NQ, "_BLOCK", 500)  # 20^2 inner nodes: 1 per block
        dom = NQ.Domain((0.1, 0.0, -0.2), radius, NQ.TensorGrid(20))
        for p in (2.0, math.inf):
            a = NQ.local_lp_norm(Gauss3D(), dom, p, osc_scale=1.0)
            b = NQ.local_lp_norm(on_axes(gauss3_points), dom, p, osc_scale=1.0)
            assert a == b


class TestBlockMemory:
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_no_earlier_tile_is_alive_at_the_next_block(self, monkeypatch, p):
        m, rows = 400, 50
        monkeypatch.setattr(NQ, "_BLOCK", rows * m)
        tile_bytes = rows * m * 8
        traced = []

        def tile(*axes, lead=slice(None)):
            traced.append(tracemalloc.get_traced_memory()[0])
            return np.ones((len(axes[0][lead]), len(axes[1])))

        dom = NQ.Domain((0.0, 0.0), 1.0, NQ.TensorGrid(m))
        tracemalloc.start()
        try:
            NQ.local_lp_norm(tile, dom, p, osc_scale=1.0, with_error=False)
        finally:
            tracemalloc.stop()
        assert len(traced) == m // rows
        # what the first block found is the floor: the grid and its rule
        assert max(traced) - traced[0] < tile_bytes / 4


    def test_peak_at_the_block_size(self):
        # four 2^20-node blocks of 512 lead rows: the peak is set by one
        # block, not by the whole 2048 x 2048 grid
        m = 2048
        tile_bytes = NQ._BLOCK * 8

        def tile(*axes, lead=slice(None)):
            return np.ones((len(axes[0][lead]), len(axes[1])))

        dom = NQ.Domain((0.0, 0.0), 1.0, NQ.TensorGrid(m))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = NQ.local_lp_norm(tile, dom, 2.0, osc_scale=1.0,
                                   with_error=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.value == pytest.approx(math.sqrt(math.pi), rel=1e-3)
        assert (peak - start) / tile_bytes < 3.5

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_one_block_peaks_near_its_tile(self, p):
        # a 1024 x 1024 grid is one 2^20-node block; mask, gathered values
        # and weight products exist only per row chunk, beside the tile
        m = 1024
        tile_bytes = NQ._BLOCK * 8

        def tile(*axes, lead=slice(None)):
            return np.ones((len(axes[0][lead]), len(axes[1])))

        dom = NQ.Domain((0.0, 0.0), 1.0, NQ.TensorGrid(m))
        NQ._axis_rule(m)  # the rule is cached, as after a first norm
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = NQ.local_lp_norm(tile, dom, p, osc_scale=1.0,
                                   with_error=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = 1.0 if p == math.inf else math.sqrt(math.pi)
        assert got.value == pytest.approx(want, rel=1e-3)
        assert (peak - start) / tile_bytes < 1.5


class TestNanIntegrand:
    """A nan node inside the ball makes the norm nan at every p, the sup
    norm included."""

    DISC = NQ.Domain((0.0, 0.0), 1.0, NQ.TensorGrid(64))

    @staticmethod
    def ones_with_nan(rows):
        """Ones on the grid, with nan in the middle column of ``rows``."""
        def tile(*axes, lead=slice(None)):
            out = np.ones((len(axes[0]), len(axes[1])))
            out[rows, len(axes[1]) // 2] = math.nan
            return out[lead]
        return tile

    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_one_nan_node(self, p):
        got = NQ.local_lp_norm(self.ones_with_nan([32]), self.DISC, p,
                               osc_scale=1.0, with_error=False)
        assert math.isnan(got.value)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_a_nan_in_every_block(self, monkeypatch, p):
        # blocks of 8 lead rows; row 4 of each block holds a nan inside
        # the disc
        monkeypatch.setattr(NQ, "_BLOCK", 8 * 64)
        got = NQ.local_lp_norm(self.ones_with_nan(list(range(4, 64, 8))),
                               self.DISC, p, osc_scale=1.0, with_error=False)
        assert math.isnan(got.value)


def full_tile_value(f, dom, p, m):
    """The reduction that takes |f| and the weights on the whole tile,
    masks afterwards and sums each block with math.fsum, for comparison
    with NQ._tensor_value."""
    n = dom.dim
    x, w = NQ._axis_rule(m)
    m = len(x)
    axes = [dom.center[k] + dom.scale * x for k in range(n)]
    wts = dom.scale * w
    r2 = dom.scale * dom.scale
    lead_block = max(1, NQ._BLOCK // max(1, m ** (n - 1)))
    parts, best = [], 0.0
    for start in range(0, m, lead_block):
        lead = slice(start, min(m, start + lead_block))
        vals = np.abs(np.asarray(f(*axes, lead=lead), dtype=float))
        block = [axes[0][lead]] + axes[1:]
        inside = NQ._outer([(a - c) ** 2 for a, c in zip(block, dom.center)],
                           np.add) <= r2
        if p == math.inf:
            if np.any(inside):
                best = max(best, float(np.max(vals[inside])))
        else:
            wtile = NQ._outer([wts[lead]] + [wts] * (n - 1), np.multiply)
            contrib = vals[inside]
            contrib **= p
            contrib *= wtile[inside]
            parts.append(math.fsum(contrib))
    if p == math.inf:
        return best, m ** n
    return math.fsum(parts) ** (1.0 / p), m ** n


class TestGatheredReduction:
    # dyadic nodes k/8 on a ball of radius 2 about 0.5: every node is
    # exact, so the nodes at distance 2 sit exactly on the sphere
    NODES = np.arange(-8, 9) / 8.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_equals_the_full_tile_reduction(self, monkeypatch, n, p):
        self.check(monkeypatch, n, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_equals_it_in_row_chunks(self, monkeypatch, n, p, rows):
        # blocks of 3 lead rows, reduced a row or two rows (which do not
        # divide the block) at a time
        monkeypatch.setattr(NQ, "_ROW_CHUNK", rows * self.NODES.size ** (n - 1))
        self.check(monkeypatch, n, p)

    def check(self, monkeypatch, n, p):
        rng = np.random.default_rng(n)
        weights = rng.uniform(0.5, 1.5, self.NODES.size)
        monkeypatch.setattr(NQ, "_axis_rule", lambda m: (self.NODES, weights))
        monkeypatch.setattr(NQ, "_BLOCK", 3 * self.NODES.size ** (n - 1))
        dom = NQ.Domain((0.5,) * n, 2.0, NQ.TensorGrid(2))
        tiles = []

        def f(*axes, lead=slice(None)):
            shape = (len(axes[0][lead]),) + tuple(len(a) for a in axes[1:])
            tile = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -3, 4, shape)
            tiles.append((tile, tile.copy()))
            return tile

        on_sphere = sum(np.meshgrid(*[(2.0 * self.NODES) ** 2] * n)) == 4.0
        assert on_sphere.any() and not on_sphere.all()
        got = NQ._tensor_value(f, dom, p, 2)
        assert len(tiles) == math.ceil(self.NODES.size / 3)
        # the integrand's tiles were only read
        assert all(np.array_equal(tile, kept) for tile, kept in tiles)
        replay = iter([kept for _, kept in tiles])
        assert got == full_tile_value(lambda *axes, lead: next(replay),
                                      dom, p, 2)


class TestRowChunks:
    @pytest.mark.parametrize("case", [dense_case, sparse_case_2d,
                                      sparse_case_3d])
    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_norm_bits_do_not_depend_on_the_chunk(self, monkeypatch, case,
                                                  p):
        # the bits depend on _BLOCK, which fixes each part of the final
        # fsum, and not on how a block is cut into row chunks
        evaluator, dom = case()
        monkeypatch.setattr(NQ, "_BLOCK", 5 * dom.quad.points_per_axis
                            ** (dom.dim - 1))
        got = []
        for chunk in (1, 3 * dom.quad.points_per_axis ** (dom.dim - 1) + 1,
                      NQ._ROW_CHUNK, NQ._BLOCK):
            monkeypatch.setattr(NQ, "_ROW_CHUNK", chunk)
            got.append(NQ.local_lp_norm(evaluator, dom, p,
                                        osc_scale=evaluator.eigenvalue))
        assert all(g == got[0] for g in got[1:])


def fsum_outcome(sum_fn, values):
    """The value (with the sign of a zero) or the exception of a sum."""
    try:
        got = sum_fn(np.asarray(values, dtype=float))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if math.isnan(got):
        return "nan"
    return got, math.copysign(1.0, got)


def exact_sum(a):
    """The exact sum of one array, as one chunk of the streaming sum."""
    return NQ._exact_chunk_sum(lambda: (a,))


def assert_sums_like_fsum(values):
    assert fsum_outcome(exact_sum, values) == fsum_outcome(math.fsum, values)


CHUNK = NQ._SUM_CHUNK
INF = math.inf


class TestExactSum:
    """The exact sum of an array is math.fsum(a) bit for bit, sign of
    zero included."""

    @settings(max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=40))
    def test_any_finite_list(self, values):
        assert_sums_like_fsum(values)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           length=st.sampled_from([0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 7]),
           low=st.integers(-1074, 997), span=st.integers(0, 1071),
           signs=st.sampled_from(["positive", "mixed", "cancelling"]))
    def test_chunked_arrays(self, seed, length, low, span, signs):
        # magnitudes below 2^low .. 2^high, from subnormal to about 1e300,
        # with zeros of both signs sprinkled in
        rng = np.random.default_rng(seed)
        high = min(low + span, 997)
        a = np.ldexp(rng.random(length), rng.integers(low, high + 1, length))
        if signs == "mixed":
            a *= rng.choice([-1.0, 1.0], length)
        elif signs == "cancelling":
            a[length // 2:] = -a[:length - length // 2]
            rng.shuffle(a)
        a[rng.random(length) < 0.01] = rng.choice([0.0, -0.0])
        assert_sums_like_fsum(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_exponent_across_chunks(self, seed):
        # every term in [1, 2): all of them meet in one bin per half
        rng = np.random.default_rng(seed)
        a = 1.0 + rng.random(8 * CHUNK + 3)
        assert_sums_like_fsum(a)
        a[::3] *= -1.0
        assert_sums_like_fsum(a)

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0],
        [1.0, -1.0], [-5e-324, -0.0], [2.0**-1074], [2.0**-1074] * (CHUNK + 1),
        [1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-60],
        [1.0, 2.0**-53, -(2.0**-60)], [-1.0, -(2.0**-53)],
        [1e300, 1.0, -1e300], [1e300] * (CHUNK + 1), [1e290, 3.0, -1e290],
        [1.7e308, 1.7e308], [1.7e308, 1e308, -1e308],
        [0.1] * (3 * CHUNK + 1), [-0.0] * (CHUNK + 1),
    ])
    def test_edge_cases(self, values):
        assert_sums_like_fsum(values)

    @pytest.mark.parametrize("values", [
        [INF], [-INF, 1.0], [math.nan, 1.0], [INF, math.nan], [INF, -INF],
        [1.0] * (2 * CHUNK) + [-INF], [1.0] * CHUNK + [math.nan] + [INF],
    ])
    def test_non_finite_like_fsum(self, values):
        assert_sums_like_fsum(values)

    def test_inf_minus_inf_raises(self):
        with pytest.raises(ValueError, match="-inf \\+ inf"):
            exact_sum(np.array([INF, -INF]))

    def test_norm_hands_fsum_only_bin_sums(self, monkeypatch):
        # the disc's 1001 x 1001 bounding box is 1,002,001 nodes, in one block
        dom = NQ.Domain((0.3, -0.2), 1.1, NQ.TensorGrid(1001))
        fsum = math.fsum
        seen = []
        monkeypatch.setattr(NQ.math, "fsum",
                            lambda xs: seen.append(len(xs)) or fsum(xs))
        got = NQ.local_lp_norm(GaussWave2D(), dom, 3.0, osc_scale=3.0,
                               with_error=False)
        assert got.nodes == 1001 * 1001
        assert sum(seen) < 10**5
        # the same norm with every block's terms handed to fsum itself
        monkeypatch.setattr(NQ, "_exact_chunk_sum",
                            lambda chunks: fsum(chain.from_iterable(chunks())))
        assert NQ.local_lp_norm(GaussWave2D(), dom, 3.0, osc_scale=3.0,
                                with_error=False) == got


def chunk_sum(sizes):
    """NQ._exact_chunk_sum of an array cut into chunks of these sizes."""

    def at_cuts(a):
        assert a.size == sum(sizes)
        return NQ._exact_chunk_sum(
            lambda: np.split(a, np.cumsum(sizes)[:-1]) if sizes else ())

    return at_cuts


# chunk sizes: empty, single terms, and chunks that straddle _SUM_CHUNK
SIZES = st.lists(st.sampled_from([0, 1, 2, 5, CHUNK - 1, CHUNK, CHUNK + 1]),
                 max_size=5)


class TestExactChunkSum:
    """_exact_chunk_sum of any cut of an array is math.fsum of the array."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=SIZES, seed=st.integers(0, 2**32 - 1),
           low=st.integers(-1074, 1020), span=st.integers(0, 1071),
           signs=st.sampled_from(["positive", "mixed", "cancelling"]),
           special=st.sampled_from([None, INF, -INF, math.nan, 2.0**995,
                                    -(2.0**1000), 0.0, -0.0]))
    def test_random_cuts_sum_like_fsum(self, sizes, seed, low, span, signs,
                                       special):
        # magnitudes from subnormal to near overflow, zeros of both signs,
        # and at most one special term
        rng = np.random.default_rng(seed)
        length = sum(sizes)
        high = min(low + span, 1023)
        a = np.ldexp(rng.random(length), rng.integers(low, high + 1, length))
        if signs == "mixed":
            a *= rng.choice([-1.0, 1.0], length)
        elif signs == "cancelling":
            a[length // 2:] = -a[:length - length // 2]
            rng.shuffle(a)
        a[rng.random(length) < 0.01] = rng.choice([0.0, -0.0])
        if special is not None and length:
            a[rng.integers(length)] = special
        assert (fsum_outcome(chunk_sum(sizes), a)
                == fsum_outcome(math.fsum, a))

    @pytest.mark.parametrize("sizes, values", [
        ([0], []), ([1], [-0.0]), ([1, 0, 1], [-0.0, -0.0]),
        ([1, 1], [1.0, -1.0]), ([0, 2, 0], [1.0, 2.0**-53]),
        ([1, 1, 1], [INF, 1.0, -INF]), ([2, 1], [math.nan, 1.0, INF]),
        ([1, 2], [1.7e308, 1.7e308, -1.7e308]),
        ([2, 1], [1.7e308, -1.7e308, 1.7e308]),
        ([CHUNK - 1, 2], [1.0] * CHUNK + [2.0**995]),
    ])
    def test_cut_edge_cases(self, sizes, values):
        # the fallback sums the terms in their own order: fsum overflows
        # on 1.7e308 + 1.7e308 but not on 1.7e308 - 1.7e308 + 1.7e308
        a = np.array(values, dtype=float)
        assert fsum_outcome(chunk_sum(sizes), a) == fsum_outcome(math.fsum, a)

    BELOW_995 = math.nextafter(2.0**995, 0.0)

    @pytest.mark.parametrize("sizes, values", [
        # negative terms, one exponent field and many
        ([2, 1], [-1.5, -(2.0**-30), -3.0]),
        ([1, CHUNK], [-(2.0**-1022)] + [-0.75] * CHUNK),
        # subnormal terms (field 0), alone and with their neighbour field 1
        ([3], [5e-324, 2.0**-1030, -(2.0**-1060)]),
        ([1, 2], [2.0**-1022 - 5e-324, 5e-324, -(2.0**-1022)]),
        ([CHUNK + 1], [3 * 2.0**-1070] * (CHUNK + 1)),
        ([2, 2], [2.0**-1022, -5e-324, 0.0, -(2.0**-1023)]),
        # zeros of both signs among other terms and on their own
        ([2, 2], [0.0, -0.0, 1.0, -0.0]), ([1, 1, 1], [-0.0, 0.0, -0.0]),
        ([1, 2], [-0.0, 2.0**-1074, -0.0]),
        # one ulp below 2^995 is binned; 2^995 itself goes to fsum
        ([2, 1], [BELOW_995, BELOW_995, -1.0]),
        ([1, 1], [-BELOW_995, 3.0]),
        ([CHUNK, 1], [BELOW_995] * CHUNK + [-BELOW_995]),
        ([1, 2], [1.0, 2.0**995, -(2.0**995)]),
        ([2, 1], [-(2.0**995), BELOW_995, 5e-324]),
    ])
    def test_signs_subnormals_zeros_and_the_limit(self, sizes, values):
        a = np.array(values, dtype=float)
        assert fsum_outcome(chunk_sum(sizes), a) == fsum_outcome(math.fsum, a)

    def test_binned_up_to_one_ulp_below_2_995(self, monkeypatch):
        # a term below 2^995 is summed from its bins; a term at 2^995
        # sends every term to fsum, in their own order
        fsum = math.fsum
        seen = []
        monkeypatch.setattr(NQ.math, "fsum",
                            lambda xs: fsum(seen.append(list(xs)) or seen[-1]))
        terms = [self.BELOW_995, -1.0, 1.25, 2.0**-1074, -0.0]
        assert chunk_sum([5])(np.array(terms)) == fsum(terms)
        # the nonzero bins: both halves of the top term, the hi halves of
        # field 1023 and the lo half of the subnormal
        assert len(seen) == 1 and len(seen[0]) == 4
        seen.clear()
        terms[0] = 2.0**995
        assert chunk_sum([5])(np.array(terms)) == fsum(terms)
        assert seen == [terms]

    def test_inf_minus_inf_in_other_chunks_raises(self):
        with pytest.raises(ValueError, match="-inf \\+ inf"):
            chunk_sum([1, 1, 1])(np.array([INF, 1.0, -INF]))

    def test_the_count_limit_sends_every_term_to_fsum(self, monkeypatch):
        fsum = math.fsum
        seen = []
        monkeypatch.setattr(NQ.math, "fsum",
                            lambda xs: fsum(seen.append(list(xs)) or seen[-1]))
        monkeypatch.setattr(NQ, "_SUM_MAX_LEN", 10)
        a = 1.0 + np.random.default_rng(0).random(12)
        # at the limit, fsum gets the two bins of the exponent 0
        assert chunk_sum([4, 6, 0])(a[:10]) == fsum(a[:10])
        assert len(seen) == 1 and len(seen[0]) <= 2
        # the chunk that passes it sends all terms, in order
        seen.clear()
        assert chunk_sum([4, 4, 4])(a) == fsum(a)
        assert seen == [a.tolist()]
