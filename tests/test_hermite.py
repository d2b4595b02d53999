import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hermlp import hermite as hm


def hermite_value(k, x):
    return hm.hermite_batch([k], [x])[0, 0]


def closed_form_at_zero(k):
    # (-1)^m * sqrt((2m)!) / (2^m m!) * pi^(-1/4) for k = 2m, zero for odd k
    if k % 2:
        return 0.0
    m = k // 2
    log_val = 0.5 * math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1)
    return (-1.0) ** m * math.exp(log_val) * math.pi ** -0.25


def _calibrate_amplitude(k, samples=400):
    """Measured (oscillatory, transition, decay) profile amplitudes of order k.

    oscillatory: max of |f_k| * (u^2-x^2)^{1/4} over the inner 80% of the
    well, which tracks AMP_OSCILLATORY once k is moderately large.
    transition: max of |f_k| / u^(-1/6) over the turning-point band.
    decay: median of |f_k| * (x^2-u^2)^{1/4} * exp(+decay action) over a
    short reach beyond the band.
    """
    u = hm.turning_point(k)
    band = u ** (-1.0 / 3.0)

    xo = np.linspace(0.0, 0.8 * u, samples)
    fo = hm.hermite_batch([k], xo)[0]
    osc = float(np.max(np.abs(fo) * ((u - xo) * (u + xo)) ** 0.25))

    xt = np.linspace(u - band, u + band, samples)
    ft = hm.hermite_batch([k], xt)[0]
    trans = float(np.max(np.abs(ft)) / u ** (-1.0 / 6.0))

    xd = np.linspace(u + band, u + band + 2.0, samples)
    fd = hm.hermite_batch([k], xd)[0]
    ratios = np.abs(fd) * ((xd - u) * (xd + u)) ** 0.25
    ratios = ratios * np.exp([hm.decay_action(x, u) for x in xd])
    return osc, trans, float(np.median(ratios))


class TestPointValues:
    def test_ground_state(self):
        assert hermite_value(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 10, 40, 101, 250])
    def test_value_at_origin(self, k):
        assert hermite_value(k, 0.0) == pytest.approx(
            closed_form_at_zero(k), abs=1e-15, rel=1e-13
        )

    # frozen against a 40-digit evaluation of the defining formula
    @pytest.mark.parametrize(
        "k,x,expected",
        [
            (10, 0.0, -0.3726171363829173),
            (200, 5.0, 2.071998074144e-02),
            (200, 19.0, -2.915035719821e-01),
            (200, 22.0, 9.087345610798e-07),
            (1000, 0.3, 7.843926731573e-02),
            (3200, 25.0, 8.136908820863e-02),
            (3200, 90.0, 8.730450672330e-120),
        ],
    )
    def test_reference_values(self, k, x, expected):
        assert hermite_value(k, x) == pytest.approx(expected, rel=5e-12)

    def test_deep_tail_underflows_to_zero(self):
        assert hermite_value(4, 40.0) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hm.hermite_batch_grid(-1, np.array([0.0]))
        with pytest.raises(ValueError):
            hm.hermite_batch_grid(3, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            hm.hermite_batch([-2], np.array([0.0]))


class TestBatchConsistency:
    def test_batch_matches_grid_rows(self):
        xs = np.linspace(-9.0, 9.0, 57)
        full = hm.hermite_batch_grid(60, xs)
        sel = hm.hermite_batch([0, 3, 59, 3], xs)
        assert np.array_equal(sel[0], full[0])
        assert np.array_equal(sel[1], full[3])
        assert np.array_equal(sel[2], full[59])
        assert np.array_equal(sel[3], full[3])

    def test_empty_grid(self):
        assert hm.hermite_batch_grid(5, np.array([])).shape == (6, 0)
        assert hm.hermite_batch([], np.array([1.0])).shape == (0, 1)

    @given(st.integers(min_value=0, max_value=80), st.floats(min_value=0.01, max_value=15.0))
    def test_parity_is_exact(self, k, x):
        vals = hm.hermite_batch([k], np.array([x, -x]))[0]
        assert vals[1] == (-1.0) ** k * vals[0]

    def test_recurrence_residual(self):
        xs = np.linspace(-12.0, 12.0, 201)
        H = hm.hermite_batch_grid(120, xs)
        for k in range(1, 120):
            lhs = H[k + 1]
            rhs = xs * math.sqrt(2.0 / (k + 1)) * H[k] - math.sqrt(k / (k + 1)) * H[k - 1]
            scale = np.max(np.abs(H[k])) + 1e-30
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestActions:
    def test_turning_point(self):
        assert hm.turning_point(0) == 1.0
        assert hm.turning_point(12) == pytest.approx(5.0)

    # frozen against 30-digit quadrature of sqrt(u^2-t^2) resp. sqrt(t^2-u^2)
    @pytest.mark.parametrize(
        "x,expected",
        [
            (3.7, 7.44081293727023e01),
            (19.9, 3.20447337342021e02),
            (-13.0, -2.43470427596854e02),
        ],
    )
    def test_phase_action_reference(self, x, expected):
        assert hm.phase_action(x, 20.2237) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "x,expected",
        [
            (20.2238, 4.23988783917221e-06),
            (20.42, 3.69288519854285e-01),
            (21.0, 2.91664382491865e00),
            (30.0, 1.38629297700182e02),
        ],
    )
    def test_decay_action_reference(self, x, expected):
        assert hm.decay_action(x, 20.2237) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.5, max_value=21.0))
    def test_phase_action_odd_and_saturating(self, x, u):
        s = hm.phase_action(x, u)
        assert hm.phase_action(-x, u) == -s
        assert 0.0 <= s <= 0.25 * math.pi * u * u * (1 + 1e-14)
        if x >= u:
            assert s == pytest.approx(0.25 * math.pi * u * u, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=0.5, max_value=21.0))
    def test_decay_action_even_and_zero_inside(self, x, u):
        s = hm.decay_action(x, u)
        assert hm.decay_action(-x, u) == s
        if x <= u:
            assert s == 0.0
        else:
            assert s >= 0.0

    def test_series_matches_closed_form_below_seam(self):
        # on [0.002, 0.0099] the code takes the series branch while the
        # closed form is still good to ~1e-13 relative, so both must agree
        u = 20.2237
        for d in np.linspace(0.002, 0.0099, 25):
            x = u * (1 + d)
            closed = 0.5 * x * math.sqrt((x - u) * (x + u)) - 0.5 * u * u * math.acosh(x / u)
            assert hm.decay_action(x, u) == pytest.approx(closed, rel=5e-12)

    def test_phase_action_monotone(self):
        u = 7.0
        xs = np.linspace(-9, 9, 400)
        vals = [hm.phase_action(x, u) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestProfile:
    def test_regime_bands(self):
        k = 49
        u = hm.turning_point(k)
        band = u ** (-1.0 / 3.0)
        xs = np.array([0.0, u - 2 * band, u - 0.5 * band, u, u + 0.5 * band, u + 2 * band, -u - 2 * band])
        codes = hm.classify_regime(k, xs)
        assert list(codes) == [0, 0, 1, 1, 1, 2, 2]

    @pytest.mark.parametrize("k", [30, 150, 700])
    def test_envelope_bounds_exact_values(self, k):
        u = hm.turning_point(k)
        xs = np.linspace(-u - 2, u + 2, 3001)
        _, env, _ = hm.szego_eval(k, xs)
        exact = hm.hermite_batch([k], xs)[0]
        assert np.all(np.abs(exact) <= 1.02 * env)

    def test_oscillatory_pointwise_accuracy(self):
        k = 400
        u = hm.turning_point(k)
        xs = np.linspace(0.1, 0.85 * u, 1777)
        vals, env, _ = hm.szego_eval(k, xs)
        exact = hm.hermite_batch([k], xs)[0]
        mask = np.abs(vals) > 0.3 * env
        rel = np.abs(vals[mask] - exact[mask]) / np.abs(exact[mask])
        assert np.max(rel) < 2e-2

    def test_decay_pointwise_accuracy(self):
        k = 400
        u = hm.turning_point(k)
        xs = np.linspace(u + 1.5 * u ** (-1 / 3), u + 3, 200)
        vals, _, _ = hm.szego_eval(k, xs)
        exact = hm.hermite_batch([k], xs)[0]
        rel = np.abs(vals - exact) / np.abs(exact)
        assert np.max(rel) < 0.1

    def test_transition_values_are_nan(self):
        k = 100
        u = hm.turning_point(k)
        vals, env, codes = hm.szego_eval(k, np.array([u]))
        assert codes[0] == hm.Regime.TRANSITION
        assert math.isnan(vals[0])
        assert env[0] > 0

    @pytest.mark.parametrize("k", [20, 100, 400])
    def test_calibration_within_factor_bounds(self, k):
        osc, trans, dec = _calibrate_amplitude(k)
        for measured, nominal in [
            (osc, hm.AMP_OSCILLATORY),
            (trans, hm.AMP_TRANSITION),
            (dec, hm.AMP_DECAY),
        ]:
            assert nominal / 3 < measured < nominal * 3

    def test_calibration_tracks_nominal_closely(self):
        osc, _, dec = _calibrate_amplitude(400)
        assert osc == pytest.approx(hm.AMP_OSCILLATORY, rel=2e-3)
        assert dec == pytest.approx(hm.AMP_DECAY, rel=2e-2)


# Reference recurrence: one generator per grid, allocating every step, with
# the same operation order and rescale rule.  The driver must match it bit
# for bit, whatever grids it shares a recurrence with.
def _oracle_recurrence(xs, k_stop):
    log_scale = -0.5 * xs * xs - 0.25 * math.log(math.pi)
    prev = np.zeros(xs.size)
    cur = np.ones(xs.size)
    for k in range(k_stop + 1):
        yield k, log_scale, cur
        if k == k_stop:
            return
        nxt = xs * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
        prev, cur = cur, nxt
        big = np.abs(cur) > 1.0e120
        if big.any():
            factor = np.where(big, np.abs(cur), 1.0)
            cur = cur / factor
            prev = prev / factor
            log_scale = log_scale + np.log(factor)


def _oracle_batch(orders, xs):
    xs = np.asarray(xs, dtype=float)
    out = np.empty((len(orders), xs.size))
    if not len(orders) or not xs.size:
        return out
    want = {}
    for row, k in enumerate(orders):
        want.setdefault(int(k), []).append(row)
    for k, log_scale, cur in _oracle_recurrence(xs, max(want)):
        rows = want.get(k)
        if rows:
            with np.errstate(divide="ignore", under="ignore"):
                mag = np.exp(log_scale + np.log(np.abs(cur)))
            out[rows] = np.where(cur == 0.0, 0.0, np.sign(cur) * mag)
    return out


def _rescaled(xs, k):
    """Whether the recurrence to order k over xs rescales any point."""
    start = -0.5 * xs * xs - 0.25 * math.log(math.pi)
    *_, (_, log_scale, _) = _oracle_recurrence(np.asarray(xs, dtype=float), k)
    return not np.array_equal(log_scale, start)


def _limit_steps(xs, k):
    """Of the recurrence steps to order k over xs: those that rescale,
    those whose largest rescale factor is under 1.2e120, and those that do
    not rescale although the state's sum of squares fails the driver's
    dot pre-test."""
    rescaled = just_over = near = 0
    last = None
    for _, log_scale, cur in _oracle_recurrence(np.asarray(xs, dtype=float), k):
        if last is not None and log_scale is not last:
            rescaled += 1
            just_over += np.max(log_scale - last) < math.log(1.2e120)
        elif np.dot(cur, cur) > hm._RESCALE_DOT:
            near += 1
        last = log_scale
    return rescaled, just_over, near


class TestDriver:
    # Three points whose states sit just under 1e120 for over a thousand
    # steps, and a grid whose states cross it by less than 20% on dozens.
    # Each point is taken ten times, so that the sum of squares of states
    # just under the limit fails the dot pre-test and the exact test runs.
    @pytest.mark.parametrize("xs,under,over", [
        (np.repeat([57.67, 52.62, 40.77], 10), 1000, 0),
        (np.repeat(np.linspace(20.0, 60.0, 81), 10), 200, 30),
    ])
    def test_rescales_exactly_where_a_state_exceeds_the_limit(
            self, stepped_points, xs, under, over):
        rescaled, just_over, near = _limit_steps(xs, 3000)
        assert near >= under and just_over >= over
        got = hm.hermite_batch([3000, 1733, 2999], xs)
        assert np.array_equal(got, _oracle_batch([3000, 1733, 2999], xs))
        assert stepped_points.rescales == rescaled

    def test_one_point_over_the_limit_among_many_small(self, stepped_points):
        xs = np.append(np.linspace(-1.0, 1.0, 4095), 45.0)
        rescaled, _, _ = _limit_steps(xs, 2000)
        assert rescaled
        got = hm.hermite_batch([2000], xs)
        assert np.array_equal(got, _oracle_batch([2000], xs))
        assert stepped_points.rescales == rescaled

    def test_mixed_requests_match_the_oracle(self):
        rng = np.random.default_rng(5)
        requests = [
            ([3000, 2, 2999, 2], rng.uniform(-80.0, 80.0, 37)),
            ([120], rng.uniform(-300.0, 300.0, 25)),
            ([], rng.uniform(-3.0, 3.0, 4)),
            ([5, 0, 5, 11], np.array([])),
            ([140, 3, 17, 3, 0], rng.uniform(-300.0, 300.0, 41)),
            ([1200, 1199], rng.uniform(-50.0, 50.0, 19)),
            ([0], rng.uniform(-1.0, 1.0, 3)),
            ([2999, 3000], rng.uniform(-300.0, 300.0, 29)),
        ]
        assert _rescaled(requests[1][1], 120)
        assert _rescaled(requests[4][1], 140)
        got = hm.hermite_on_grids(*zip(*requests))
        assert len(got) == len(requests)
        for (orders, xs), table in zip(requests, got):
            assert table.shape == (len(orders), xs.size)
            assert np.array_equal(table, _oracle_batch(orders, xs)), orders

    @pytest.mark.parametrize("level", [0, 1, 800, 3000])
    def test_full_tables_match_the_oracle(self, level):
        xs = np.linspace(-2.5 * math.sqrt(level + 1), 2.5 * math.sqrt(level + 1), 61)
        want = _oracle_batch(range(level + 1), xs)
        assert np.array_equal(hm.hermite_batch_grid(level, xs), want)
        assert np.array_equal(hm.hermite_batch(range(level + 1), xs), want)

    @pytest.mark.parametrize("call", [
        lambda xs: hm.hermite_batch_grid(40, xs),
        lambda xs: hm.hermite_batch([40, 3], xs),
        lambda xs: hm.hermite_on_grids([[40], [3]], [xs, xs[:2]]),
    ], ids=["batch_grid", "batch", "on_grids"])
    def test_recurrence_runs_on_one_blas_thread(self, fake_blas, call):
        # one scope around the recurrence: down to 1, then back to 7
        call(np.linspace(-3.0, 3.0, 9))
        assert fake_blas.history == [1, 7]
        assert fake_blas.count == 7

    def test_each_grid_stops_at_its_highest_order(self, stepped_points):
        grids = [np.linspace(-1.0, 1.0, size) for size in (5, 3, 8, 0, 2)]
        orders = [[4, 1], [90], [0], [60], [12, 30, 7]]
        hm.hermite_on_grids(orders, grids)
        assert stepped_points.steps == sum(
            max(o) * g.size for o, g in zip(orders, grids))


class TestOnGrids:
    @staticmethod
    def _grids(orders, seed):
        rng = np.random.default_rng(seed)
        grids = []
        for i, k in enumerate(orders):
            u = hm.turning_point(k)
            size = int(rng.integers(0, 40))
            # every fifth grid reaches far into the forbidden region,
            # where the recurrence rescales its state
            reach = 300.0 if i % 5 == 0 else 1.2 * u
            grids.append(rng.uniform(-reach, reach, size))
        return grids

    @pytest.mark.parametrize("seed", [1, 7, 64, 1000])
    def test_matches_one_order_at_a_time_exactly(self, seed):
        orders = list(range(150)) + [300, 3, 3, 0, 149]
        grids = self._grids(orders, seed)
        assert any(_rescaled(g, k) for k, g in zip(orders, grids) if g.size)
        got = hm.hermite_on_grids([[k] for k in orders], grids)
        assert len(got) == len(orders)
        for k, grid, values in zip(orders, grids, got):
            want = hm.hermite_batch([k], grid)
            assert values.shape == (1, grid.size)
            assert np.array_equal(values, want), k

    def test_unsorted_orders(self):
        rng = np.random.default_rng(11)
        orders = [int(k) for k in rng.permutation(200)]
        grids = self._grids(orders, 12)
        got = hm.hermite_on_grids([[k] for k in orders], grids)
        for i in (0, 62, 63, 64, 65, 127, 128, 199):
            want = hm.hermite_batch([orders[i]], grids[i])
            assert np.array_equal(got[i], want), i

    @pytest.mark.parametrize("count", [1, 5, 150])
    def test_one_recurrence_per_call(self, monkeypatch, count):
        seen = []
        tables = hm._tables

        def counted(requests):
            seen.append(len(requests))
            return tables(requests)

        monkeypatch.setattr(hm, "_tables", counted)
        grids = [np.linspace(-1.0, 1.0, 3)] * count
        hm.hermite_on_grids([[k] for k in range(count)], grids)
        assert seen == [count]

    def test_validation(self):
        with pytest.raises(ValueError):
            hm.hermite_on_grids([[1], [2]], [np.zeros(3)])
        with pytest.raises(ValueError):
            hm.hermite_on_grids([[-1]], [np.zeros(3)])
        with pytest.raises(ValueError):
            hm.hermite_on_grids([[1]], [np.array([0.0, np.inf])])
        assert hm.hermite_on_grids([], []) == []


def _rescale_steps(xs, k):
    """The steps k' <= k after which the recurrence over xs rescales."""
    steps, last = [], None
    for step, log_scale, _ in _oracle_recurrence(np.asarray(xs, dtype=float), k):
        if last is not None and log_scale is not last:
            steps.append(step)
        last = log_scale
    return steps


class TestBatchedRows:
    """Rows are stored raw and converted in chunked passes; every value must
    be the one _oracle_batch gets by converting each row as it is read."""

    def test_rescaling_requests(self):
        # points near 300 rescale and underflow to zero; points in 30..60
        # rescale several times on the way to orders they resolve
        rng = np.random.default_rng(21)
        xs = np.concatenate([rng.uniform(290.0, 310.0, 13),
                             rng.uniform(30.0, 60.0, 17), [-300.0, 0.0, 1.5]])
        steps = _rescale_steps(xs, 2000)
        assert len(steps) > 10
        orders = [2000, 0, 1999, 700, 1, steps[3], steps[3] + 1, 1333]
        got = hm.hermite_batch(orders, xs)
        assert np.array_equal(got, _oracle_batch(orders, xs))
        assert np.count_nonzero(got[:, 13:30]) > 50

    def test_duplicate_and_descending_orders(self):
        rng = np.random.default_rng(22)
        xs = np.append(rng.uniform(-300.0, 300.0, 40), [0.0, -0.0])
        descending = list(range(900, -1, -1))
        duplicates = [5, 900, 5, 0, 433, 900, 433, 5]
        got = hm.hermite_on_grids([descending, duplicates], [xs, xs[::-1]])
        assert _rescale_steps(xs, 900)
        assert np.array_equal(got[0], _oracle_batch(descending, xs))
        assert np.array_equal(got[1], _oracle_batch(duplicates, xs[::-1]))
        assert np.array_equal(got[0][::-1], hm.hermite_batch_grid(900, xs))

    def test_zero_states_come_out_positive_zero(self):
        got = hm.hermite_batch([1, 3, 2], [0.0, -0.0, 40.0])
        assert np.array_equal(got, _oracle_batch([1, 3, 2], [0.0, -0.0, 40.0]))
        assert not np.signbit(got[:2, :2]).any()

    def test_grid_that_left_the_prefix_keeps_its_log_scale(self):
        # the short grid rescales, reads its last rows and leaves the
        # prefix; the long grid rescales after that, so the short grid's
        # rows still waiting for conversion must use its own log scale
        short = np.array([40.0, -42.0, 38.0])
        long = np.array([299.0, 310.0, -305.0, 0.5, 52.0, -57.0])
        assert max(_rescale_steps(short, 150)) < 149
        assert [k for k in _rescale_steps(long, 2000) if k > 150]
        requests = [[150, 149, 2, 150], [2000, 150, 151]]
        got = hm.hermite_on_grids(requests, [short, long])
        assert np.array_equal(got[0], _oracle_batch(requests[0], short))
        assert np.array_equal(got[1], _oracle_batch(requests[1], long))
        assert np.all(got[0][[0, 1, 3]] != 0.0)

    def test_one_conversion_per_table_without_rescales(self, monkeypatch):
        calls = []
        to_values = hm._to_values

        def counted(table, rows, log_scale):
            calls.append(len(rows))
            return to_values(table, rows, log_scale)

        monkeypatch.setattr(hm, "_to_values", counted)
        xs = np.linspace(-20.0, 20.0, 101)
        assert not _rescale_steps(xs + 1.0, 300)
        hm.hermite_on_grids([range(301), range(300, -1, -1)], [xs, xs + 1.0])
        assert calls == [301, 301]
