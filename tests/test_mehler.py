"""Tests for the oscillatory-integral kernel evaluator.

The strongest checks are cross-route: the window-integral evaluation
must reproduce the exact eigenbasis sum (an independent implementation
tested on its own) at every sampled pair, and the one value we know in
closed form, K_1(0, 0) = pi^{-1/2} in one dimension, pins the overall
normalization analytically.
"""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hermlp import _blas, config, hermite, mehler, spectral
from hermlp.mehler import (
    FLAT_END,
    WINDOW_END,
    NearDiagonalError,
    TailConvergenceError,
    cutoff_taper,
    kernel_oscillatory,
    kernel_stationary_model,
    smoothstep7,
)


def oscillatory_half_integral(x, y, r, tol=1e-8):
    """The window integral A(x, y) of one pair, as the driver computes it
    for the pair alone; raises the exception its descent ended in."""
    return mehler._raised(mehler._half_integrals([(x, y, r)], tol)[0])


class TestSmoothstep:
    def test_endpoints(self):
        assert smoothstep7(0.0) == 0.0
        assert smoothstep7(1.0) == 1.0
        assert smoothstep7(-3.0) == 0.0
        assert smoothstep7(5.0) == 1.0

    def test_midpoint(self):
        assert smoothstep7(0.5) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_reflection_partition(self, s):
        assert smoothstep7(s) + smoothstep7(1.0 - s) == pytest.approx(1.0, abs=5e-13)

    def test_monotone(self):
        s = np.linspace(0.0, 1.0, 401)
        v = smoothstep7(s)
        assert np.all(np.diff(v) >= 0.0)

    def test_flat_takeoff(self):
        # degree-8 leading power: still below 1e-20 at s = 1e-3
        assert smoothstep7(1e-3) < 1e-20
        assert 1.0 - smoothstep7(1.0 - 1e-3) < 1e-20


class TestCutoffTaper:
    def test_plateau_and_support(self):
        t = np.linspace(0.0, FLAT_END, 50)
        assert np.all(cutoff_taper(t) == 1.0)
        t = np.linspace(WINDOW_END, math.pi / 2, 50)
        assert np.all(cutoff_taper(t) == 0.0)

    @given(st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_fold_partition(self, t):
        total = cutoff_taper(t) + cutoff_taper(math.pi / 2 - t)
        assert total == pytest.approx(1.0, abs=5e-13)

    def test_decreasing(self):
        t = np.linspace(FLAT_END, WINDOW_END, 301)
        assert np.all(np.diff(cutoff_taper(t)) <= 0.0)


def _dyadic_level(k):
    return WINDOW_END / 2 ** (k + 1), WINDOW_END / 2**k


def _a2_b(x, y):
    """The pair invariants the level sum takes, as phase computes them."""
    return float(np.dot(x, x) + np.dot(y, y)), float(np.dot(x, y))


def _bits(level):
    """A level sum and its node count as exact bit patterns; == on the
    complex value would let a signed-zero change through."""
    value, count = level
    return value.real.hex(), value.imag.hex(), count


def _kernel_cross_pairs(seed, count):
    """Rescaled 1-d pairs drawn like the kernel-cross experiment's."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        x, y = rng.uniform(-0.9, 0.9, 2)
        if abs(x - y) >= 0.05:
            pairs.append((np.array([x]), np.array([y])))
    return pairs


def _level(a2, b, r, n, lo, hi):
    """One pair's sum and node count on level [lo, hi], from the driver's
    panel count and level block, the pair alone in its block."""
    a2, b = np.array([a2]), np.array([b])
    (panels,) = mehler._panel_counts(lo, hi, a2, b, [r])
    (value,) = mehler._level_block(lo, hi, a2, b, np.array([float(r)]), n,
                                   np.array([panels]),
                                   mehler._Scratch(mehler._BLOCK_PANELS))
    return value, panels * mehler._GL_X.size


def _tapered_level(x, y, r, n, lo, hi, panel_cap):
    """The level sum with the taper applied to every node, flat or not,
    and the integrand in the complex form amp * exp(i r psi)."""
    probe = np.linspace(lo, hi, 33)
    dpsi = np.abs(mehler.ph.phase_derivative(probe, x, y))
    span = r * float(np.max(dpsi)) * (hi - lo)
    panels = int(max(4, math.ceil(span / 5.0)))
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    ts = (mids[:, None] + half * mehler._GL_X[None, :]).ravel()
    amp = cutoff_taper(ts) * np.sin(2.0 * ts) ** (-0.5 * n)
    vals = amp * np.exp(1j * r * mehler.ph.phase_value(ts, x, y))
    total = half * np.dot(vals.reshape(panels, -1), mehler._GL_W).sum()
    return complex(total), ts.size


class TestLevelTaper:
    CASES = [
        (np.array([0.3]), np.array([-0.2]), 101.0),
        (np.array([0.3, -0.5]), np.array([-0.6, 0.2]), 402.0),
        (np.array([0.1, 0.4, -0.3]), np.array([-0.5, 0.2, 0.6]), 203.0),
    ]

    def _count_taper(self, monkeypatch):
        calls = []
        taper = mehler.cutoff_taper

        def counting(t):
            calls.append(np.size(t))
            return taper(t)

        monkeypatch.setattr(mehler, "cutoff_taper", counting)
        return calls

    def test_flat_levels_skip_the_taper(self, monkeypatch):
        calls = self._count_taper(monkeypatch)
        for k in range(2, 8):
            lo, hi = _dyadic_level(k)
            assert hi <= FLAT_END
            _level(*_a2_b(np.array([0.3]), np.array([-0.2])), 101.0, 1, lo,
                   hi)
        assert calls == []

    def test_top_levels_apply_the_taper(self, monkeypatch):
        calls = self._count_taper(monkeypatch)
        for k in (0, 1):
            lo, hi = _dyadic_level(k)
            assert hi > FLAT_END
            _, used = _level(*_a2_b(np.array([0.3]), np.array([-0.2])),
                             101.0, 1, lo, hi)
            assert calls[-1] == used
        assert len(calls) == 2

    @pytest.mark.parametrize("case", range(3))
    def test_levels_match_the_tapered_form_exactly(self, case):
        x, y, r = self.CASES[case]
        for k in range(8):
            lo, hi = _dyadic_level(k)
            got = _level(*_a2_b(x, y), r, x.size, lo, hi)
            assert _bits(got) == _bits(
                _tapered_level(x, y, r, x.size, lo, hi, 200_000))

    @pytest.mark.parametrize("case", [1, 2])
    def test_deep_levels_match_the_tapered_form_exactly(self, case):
        # 5k to 91k panels a level: one gemv, on one thread as in the
        # kernel, against the reference's gemv on the default threads
        x, y, r = self.CASES[case]
        for k in range(8, 12):
            lo, hi = _dyadic_level(k)
            with _blas.one_thread():
                got = _level(*_a2_b(x, y), r, x.size, lo, hi)
            assert got[1] > 5_000 * mehler._GL_W.size
            assert _bits(got) == _bits(
                _tapered_level(x, y, r, x.size, lo, hi, 200_000))

    @pytest.mark.parametrize("r", [21.0, 41.0, 81.0, 161.0])
    def test_one_dim_levels_match_the_tapered_form_exactly(self, r):
        # the kernel-cross levels: both half integrals, (x, y) and (x, -y)
        deepest = 0
        for x, y in _kernel_cross_pairs(3, 2):
            for y_sign in (y, -y):
                for k in range(12):
                    lo, hi = _dyadic_level(k)
                    with _blas.one_thread():
                        got = _level(*_a2_b(x, y_sign), r, 1, lo, hi)
                    assert _bits(got) == _bits(
                        _tapered_level(x, y_sign, r, 1, lo, hi, 200_000))
                deepest = max(deepest, got[1])
        assert deepest > 5_000 * mehler._GL_W.size


class TestLevelThreads:
    @pytest.mark.parametrize("panels", [4, 255, 256, 257, 511, 766, 1025, 4097, 5678])
    def test_one_thread_gemv_matches_row_blocks(self, panels):
        # the level sum's one gemv, on one thread, has the bits of the
        # same gemv cut into even blocks of at most 255 rows, each below
        # the size from which OpenBLAS threads a complex gemv (4096
        # elements); even blocks keep every block a gemv, not a 1-row dot
        assert 255 * mehler._GL_W.size < 4096
        rng = np.random.default_rng(panels)
        rows = rng.standard_normal((panels, 16)) + 1j * rng.standard_normal((panels, 16))
        with _blas.one_thread():
            got = np.dot(rows, mehler._GL_W)
        blocks = np.array_split(rows, -(-panels // 255))
        want = np.concatenate([np.dot(block, mehler._GL_W) for block in blocks])
        assert np.array_equal(got.view(float), want.view(float))

    def test_level_gemv_runs_on_one_thread(self, monkeypatch):
        # a fake OpenBLAS (get, set) at 7 threads; record the count at
        # every level gemv, in the caller or a helper thread
        history, seen = [7], []
        monkeypatch.setattr(_blas, "_found", (lambda: history[-1],
                                              history.append))
        dot = np.dot

        def recording(a, b, *args, **kwargs):
            if b is mehler._GL_W:
                seen.append(history[-1])
            return dot(a, b, *args, **kwargs)

        monkeypatch.setattr(mehler.np, "dot", recording)
        x, y, r = TestLevelTaper.CASES[1]
        got = oscillatory_half_integral(x, y, r)
        # one pair: one block, so one gemv, a level
        assert got.levels > 1 and len(seen) == got.levels
        assert set(seen) == {1}
        # one scope for the whole call, not one per level or per worker
        assert history == [7, 1, 7]
        del seen[:]
        results = mehler._half_integrals(_mixed_cases(), 1e-8)
        assert len(seen) >= max(h.levels for h in results)
        assert set(seen) == {1}
        assert history == [7, 1, 7, 1, 7]


def _mixed_cases():
    """Rescaled (x, y, r) cases of dimensions 1 to 3, both signs of y and
    several eigenvalues, whose descents stop after different level counts."""
    cases = []
    for x, y, r in TestLevelTaper.CASES:
        cases += [(x, y, r), (x, -y, r)]
    for x, y in _kernel_cross_pairs(5, 3):
        for r in (21.0, 161.0):
            cases += [(x, y, r), (x, -y, r)]
    return cases


def _record_levels(monkeypatch):
    """Record every (case, level, t_lo, sum, nodes) the driver steps."""
    levels = []
    init, step = mehler._Descent.__init__, mehler._Descent.step

    def recording_init(self, x, y, r, tol):
        init(self, x, y, r, tol)
        self.case = (x, y, r)

    def recording_step(self, level, t_lo, contrib, used):
        levels.append((self.case, level, t_lo, contrib, used))
        return step(self, level, t_lo, contrib, used)

    monkeypatch.setattr(mehler._Descent, "__init__", recording_init)
    monkeypatch.setattr(mehler._Descent, "step", recording_step)
    return levels


def _record_helper_threads(monkeypatch):
    """Record the thread of every level block not run by the main thread."""
    helpers = []
    block = mehler._level_block

    def recording(*args):
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
        return block(*args)

    monkeypatch.setattr(mehler, "_level_block", recording)
    return helpers


def _result_bits(result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return (result.value.real.hex(), result.value.imag.hex(),
            float(result.achieved).hex(), result.levels, result.evals)


class TestDriver:
    def test_mixed_batch_levels_match_the_tapered_form_exactly(
            self, monkeypatch):
        levels = _record_levels(monkeypatch)
        cases = _mixed_cases()
        results = mehler._half_integrals(cases, 1e-8)
        assert len({h.levels for h in results}) > 2
        assert {x.size for x, _, _ in cases} == {1, 2, 3}
        # every level of every case, the sum as the case alone gives it
        assert len(levels) == sum(h.levels for h in results)
        for (x, y, r), _, t_lo, contrib, used in levels:
            want = _tapered_level(x, y, r, x.size, t_lo, 2.0 * t_lo, 200_000)
            assert _bits((contrib, used)) == _bits(want)

    def test_each_case_as_alone(self):
        cases = _mixed_cases()
        batch = mehler._half_integrals(cases, 1e-8)
        for case, got in zip(cases, batch):
            alone = oscillatory_half_integral(*case, tol=1e-8)
            assert _result_bits(got) == _result_bits(alone)

    @pytest.mark.parametrize("name,value", [
        pytest.param("_BLOCK_PANELS", 4, id="_BLOCK_PANELS-4"),
        # one worker: every block in the caller, in worker 0's buffers
        pytest.param("on_two_workers",
                     lambda block, count: [block(k, 0) for k in range(count)],
                     id="_WORKERS-1"),
    ])
    def test_bits_do_not_depend_on_blocks_or_workers(self, monkeypatch,
                                                     name, value):
        cases = _mixed_cases()
        want = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        monkeypatch.setattr(mehler, name, value)
        got = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        assert got == want

    def test_more_workers_than_cores_keep_the_bits(self, monkeypatch):
        # each worker writes its own blocks' sums and uses its own
        # buffers; with small blocks and a thread switch every
        # microsecond, a lost or crossed write would move a result
        cases = _mixed_cases()
        want = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        monkeypatch.setattr(mehler, "_BLOCK_PANELS", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [_result_bits(h)
                   for h in mehler._half_integrals(cases, 1e-8)]
            threads = threading.active_count()
            again = [_result_bits(h)
                     for h in mehler._half_integrals(cases, 1e-8)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want and again == want
        # the second call starts no thread and leaves none behind
        assert threading.active_count() == threads

    def test_helper_blocks_run_on_one_thread_across_calls(self, monkeypatch):
        helpers = _record_helper_threads(monkeypatch)
        monkeypatch.setattr(mehler, "_BLOCK_PANELS", 4)
        first = mehler._half_integrals(_mixed_cases(), 1e-8)
        calls = len(helpers)
        second = mehler._half_integrals(_mixed_cases(), 1e-8)
        assert 0 < calls < len(helpers)
        assert max(h.levels for h in first + second) > 2
        assert len(set(helpers)) == 1

    def test_a_helper_failure_keeps_the_next_call(self, monkeypatch):
        cases = _mixed_cases()
        monkeypatch.setattr(mehler, "_BLOCK_PANELS", 4)
        helpers = _record_helper_threads(monkeypatch)
        want = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        block = mehler._level_block

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper")
            return block(*args)

        with monkeypatch.context() as patch:
            patch.setattr(mehler, "_level_block", failing)
            with pytest.raises(RuntimeError, match="helper"):
                mehler._half_integrals(cases, 1e-8)
        got = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        assert got == want
        assert len(helpers) > 0 and len(set(helpers)) == 1

    def test_a_capped_pair_fails_alone(self, monkeypatch):
        levels = _record_levels(monkeypatch)
        cases = _mixed_cases()
        big = (np.array([0.3]), np.array([-0.2]), 1601.0)
        cases.insert(3, big)
        want = [_result_bits(h) for h in mehler._half_integrals(cases, 1e-8)]
        most = {}
        for case, _, _, _, used in levels:
            key = id(case[0]), id(case[1]), case[2]
            most[key] = max(most.get(key, 0), used // mehler._GL_X.size)
        big_panels = most.pop((id(big[0]), id(big[1]), big[2]))
        cap = max(most.values())
        assert big_panels > cap
        monkeypatch.setattr(mehler, "_PANEL_CAP", cap)
        got = mehler._half_integrals(cases, 1e-8)
        assert isinstance(got[3], TailConvergenceError)
        assert f"(cap {cap})" in str(got[3])
        assert math.isinf(got[3].achieved)
        assert [_result_bits(h) for i, h in enumerate(got) if i != 3] == \
            [bits for i, bits in enumerate(want) if i != 3]

    def test_a_failed_lead_stops_its_follower(self, monkeypatch):
        levels = _record_levels(monkeypatch)
        counts = mehler._panel_counts

        def cap_hit_on_level_2(lo, hi, a2, b, r):
            # the r = 1601 case needs one panel too many from level 2 on
            return [mehler._PANEL_CAP + 1 if ri == 1601.0 and
                    hi <= WINDOW_END / 4 else p
                    for p, ri in zip(counts(lo, hi, a2, b, r), r)]

        monkeypatch.setattr(mehler, "_panel_counts", cap_hit_on_level_2)
        x, y = np.array([0.3]), np.array([0.2])
        cases = [(x, y, 1601.0), (x, -y, 161.0), (y, -x, 81.0)]
        alone = mehler._half_integrals(cases, 1e-8)
        assert alone[1].levels > 3
        levels.clear()
        got = mehler._half_integrals(cases, 1e-8, [None, 0, None])
        assert isinstance(got[0], TailConvergenceError)
        assert got[1] is got[0]
        assert _result_bits(got[2]) == _result_bits(alone[2])
        # the follower stepped the levels its lead finished, no more
        assert [level for case, level, *_ in levels
                if case[2] == 161.0] == [0, 1]

    def test_a_helper_failure_reaches_the_caller(self, monkeypatch):
        block = mehler._level_block

        def failing(lo, hi, a2, b, r, n, panels, buf):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper")
            return block(lo, hi, a2, b, r, n, panels, buf)

        monkeypatch.setattr(mehler, "_level_block", failing)
        monkeypatch.setattr(mehler, "_BLOCK_PANELS", 4)
        with pytest.raises(RuntimeError, match="helper"):
            mehler._half_integrals(_mixed_cases(), 1e-8)

    def test_kernel_batch_keeps_failures_as_data(self):
        cases = [([0.1], [0.2], 22), ([1.9], [-0.6], 21),
                 ([1.0, 0.0], [1.2, 0.0], 102)]
        got = mehler.kernel_oscillatory_batch(cases)
        assert isinstance(got[0], ValueError)
        assert isinstance(got[2], NearDiagonalError)
        assert got[1] == kernel_oscillatory([1.9], [-0.6], 21)

    def test_checks_workload_work_counts(self, monkeypatch):
        # the seed-0 checks cross-validate and sphase configs of the
        # benchmark: the work pinned when the driver replaced the
        # per-pair loop
        import importlib.util
        from pathlib import Path

        from hermlp import config, runner

        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_checks_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        done = []
        driver = mehler._half_integrals

        def recording(cases, tol, leads=None):
            out = driver(cases, tol, leads)
            done.extend(out)
            return out

        monkeypatch.setattr(mehler, "_half_integrals", recording)
        # the threads the pass starts, from a fresh process's state
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread)
                            or start(thread))
        monkeypatch.setattr(_blas, "_helper", None)
        try:
            for raw in workloads.configs("checks", 0):
                if raw["experiment"] == "sphase-check" or \
                        raw["parameters"].get("mode") == "cross-validate":
                    result = runner.run(config.parse_config(raw), None)
                    assert result.exit_code == 0
        finally:
            if _blas._helper is not None:
                _blas._helper.shutdown()
        assert sum(h.evals for h in done) == 21_488_272
        assert sum(h.levels for h in done) == 7_137
        assert len(started) == 1  # the helper, once for the whole pass


class TestBitRisks:
    """The numpy behaviours the driver's bits rest on, on this machine."""

    def test_transcendentals_ignore_chunks_and_strides(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-40.0, 40.0, 5_003)
        for fn in (np.sin, np.cos, np.exp):
            whole = fn(x)
            for start, stop in ((0, 17), (3, 4_100), (1, 5_003), (2_049, 2_050)):
                assert np.array_equal(fn(x[start:stop]), whole[start:stop])
            out = np.empty(x.size, dtype=complex)
            fn(x, out=out.real)
            assert np.array_equal(out.real, whole)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_in_place_power_with_a_scalar_exponent(self, n):
        s = np.random.default_rng(n).uniform(1e-3, 1.0, 4_099)
        got = s.copy()
        got[5:4_000] **= -0.5 * n
        want = s ** (-0.5 * n)
        assert np.array_equal(got[5:4_000], want[5:4_000])

    def test_broadcast_column_product_is_the_scalar_product(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((7, 16))
        col = rng.standard_normal(7)
        got = rows * col[:, None]
        for i in range(7):
            assert np.array_equal(got[i], rows[i] * float(col[i]))
            assert np.array_equal(got[i], float(col[i]) * rows[i])


class TestNormalization:
    def test_ground_state_origin(self):
        # closed form: the two half-integrals collapse to a beta function
        # and K_1(0,0) = pi^{-1/2} exactly
        kv = kernel_oscillatory([0.0], [0.0], 1, tol=1e-9)
        assert kv.value == pytest.approx(1.0 / math.sqrt(math.pi), abs=2e-9)

    def test_diagonal_matches_square_of_eigenfunction(self):
        for r, xv in ((21, 0.7), (41, 2.1)):
            level = (r - 1) // 2
            direct = hermite.hermite_batch([level], [xv])[0, 0] ** 2
            kv = kernel_oscillatory([xv], [xv], r, tol=1e-7)
            assert kv.value == pytest.approx(direct, abs=5e-8)


# fixed well-separated sample pairs, in units of lambda = sqrt(r)
_PAIRS_1D = [(0.31, -0.44), (0.62, 0.55), (-0.83, 0.12), (0.05, 0.71)]
_PAIRS_2D = [
    ((0.40, 0.10), (-0.30, 0.35)),
    ((0.62, -0.20), (0.05, 0.55)),
    ((-0.75, 0.30), (0.20, -0.60)),
]


class TestCrossValidation:
    @pytest.mark.parametrize("r", [21, 41, 81])
    def test_dimension_one(self, r):
        lam = math.sqrt(r)
        level = (r - 1) // 2
        for sx, sy in _PAIRS_1D:
            x, y = sx * lam, sy * lam
            direct = spectral.projection_kernel_sum(level, 1, np.array([x]), np.array([y]))
            kv = kernel_oscillatory([x], [y], r, tol=1e-9)
            assert kv.value == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("r", [42, 102])
    def test_dimension_two(self, r):
        lam = math.sqrt(r)
        level = (r - 2) // 2
        for sx, sy in _PAIRS_2D:
            x = lam * np.array(sx)
            y = lam * np.array(sy)
            assert min(np.dot(x - y, x - y), np.dot(x + y, x + y)) >= 1.0
            direct = spectral.projection_kernel_sum(level, 2, x, y)
            kv = kernel_oscillatory(x, y, r, tol=1e-8)
            assert kv.value == pytest.approx(direct, abs=1e-8)

    def test_dimension_three(self):
        x = np.array([1.3, -0.8, 2.0])
        y = np.array([0.4, 1.1, -0.7])
        direct = spectral.projection_kernel_sum(11, 3, x, y)
        kv = kernel_oscillatory(x, y, 25, tol=1e-8)
        assert kv.value == pytest.approx(direct, abs=1e-8)

    def test_symmetry_in_arguments(self):
        kv_xy = kernel_oscillatory([1.9], [-0.6], 21)
        kv_yx = kernel_oscillatory([-0.6], [1.9], 21)
        assert kv_xy.value == kv_yx.value

    def test_joint_sign_flip(self):
        kv = kernel_oscillatory([1.9], [-0.6], 21)
        kv_neg = kernel_oscillatory([-1.9], [0.6], 21)
        assert kv.value == kv_neg.value


class TestAssemblyStructure:
    def test_parts_are_conjugate_pairs(self):
        kv = kernel_oscillatory([0.9, 0.2], [-0.4, 1.3], 42)
        p = kv.parts
        assert p[1] == np.conj(p[0])
        assert p[3] == np.conj(p[2])
        assert kv.imag_residual == 0.0

    def test_error_estimate_honest(self):
        r = 41
        lam = math.sqrt(r)
        x, y = 0.31 * lam, -0.44 * lam
        direct = spectral.projection_kernel_sum(20, 1, np.array([x]), np.array([y]))
        kv = kernel_oscillatory([x], [y], r, tol=1e-8)
        assert abs(kv.value - direct) <= 10.0 * kv.error_estimate + 1e-12

    def test_determinism(self):
        a = kernel_oscillatory([0.9, 0.2], [-0.4, 1.3], 42)
        b = kernel_oscillatory([0.9, 0.2], [-0.4, 1.3], 42)
        assert a.value == b.value
        assert a.evals == b.evals


class TestRefusals:
    def test_near_diagonal_refused_in_2d(self):
        with pytest.raises(NearDiagonalError):
            kernel_oscillatory([1.0, 0.0], [1.2, 0.0], 102)

    def test_near_antidiagonal_refused_in_2d(self):
        with pytest.raises(NearDiagonalError):
            kernel_oscillatory([1.0, 0.0], [-1.2, 0.3], 102)

    def test_diagonal_fine_in_1d(self):
        kv = kernel_oscillatory([0.7], [0.7], 21, tol=1e-6)
        assert math.isfinite(kv.value)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            kernel_oscillatory([0.1], [0.2], 22)  # wrong parity for n=1
        with pytest.raises(ValueError):
            kernel_oscillatory([0.1, 0.2], [0.3, 0.4], 1)  # below n
        with pytest.raises(ValueError):
            kernel_oscillatory([0.1], [0.2], 21.5)

    def test_high_dimension_unsupported(self):
        with pytest.raises(ValueError):
            kernel_oscillatory([0.1] * 4, [2.2] * 4, 10)

    def test_tail_budget_exhaustion_reports_estimate(self, monkeypatch):
        monkeypatch.setattr(mehler, "_MAX_LEVELS", 5)
        with pytest.raises(TailConvergenceError) as exc:
            oscillatory_half_integral(
                np.array([0.4]), np.array([0.4]), 21.0, tol=1e-9
            )
        assert math.isfinite(exc.value.achieved)


class TestLeadingModel:
    def test_tracks_full_evaluation(self):
        for r, rel in ((81, 5e-3), (321, 2e-2)):
            lam = math.sqrt(r)
            x, y = 0.31 * lam, -0.44 * lam
            exact = kernel_oscillatory([x], [y], r, tol=1e-10).value
            model = kernel_stationary_model([x], [y], r)
            assert model == pytest.approx(exact, rel=rel)

    def test_absolute_error_shrinks_with_r(self):
        errs = []
        for r in (81, 321):
            lam = math.sqrt(r)
            x, y = 0.31 * lam, -0.44 * lam
            exact = kernel_oscillatory([x], [y], r, tol=1e-10).value
            errs.append(abs(kernel_stationary_model([x], [y], r) - exact))
        assert errs[1] < errs[0]

    def test_two_dimensional_pair(self):
        r = 402
        lam = math.sqrt(r)
        x = lam * np.array([0.4, 0.1])
        y = lam * np.array([-0.3, 0.35])
        exact = kernel_oscillatory(x, y, r, tol=1e-10).value
        model = kernel_stationary_model(x, y, r)
        assert model == pytest.approx(exact, rel=2e-3)


def _bound_check_by_sample(n, r, sample):
    """kernel_bound_check's report with one projection_kernel_sum per
    sample pair, drawing each pair just before its kernel value."""
    level = (r - n) // 2
    lam = math.sqrt(r)
    rng = np.random.default_rng(sample.seed)
    normalizer = (r * sample.mu) ** (0.5 * (n - 2))
    ratios = []
    diag_ratio = 0.0
    for i in range(sample.count):
        direction = rng.standard_normal(n)
        direction /= math.hypot(*direction)
        rho_x = max(1.0 - sample.mu * (1.0 + 0.5 * (rng.random() - 0.5)), 0.0)
        x = rho_x * direction
        kind = i % 4
        if kind == 0:
            y = x
        elif kind == 1:
            y = -x
        elif kind == 2:
            y = mehler._on_shell(direction, rho_x, 1.0 / lam)
        else:
            rho_y = max(1.0 - sample.mu * (1.0 + 0.5 * (rng.random() - 0.5)),
                        0.0)
            y = mehler._on_shell(direction, rho_y, 4.0 / lam)
        value = spectral.projection_kernel_sum(level, n, lam * x, lam * y)
        ratio = abs(value) / normalizer
        ratios.append(ratio)
        if kind == 0:
            diag_ratio = max(diag_ratio, ratio)
    return mehler.KernelBoundReport(
        n=n, r=int(r), mu=sample.mu, normalizer=normalizer,
        max_ratio=float(max(ratios)), median_ratio=float(np.median(ratios)),
        diagonal_ratio=diag_ratio, count=len(ratios),
    )


class TestKernelBoundCheck:
    def test_frozen_report_two_dim(self):
        rep = mehler.kernel_bound_check(
            2, 102, mehler.KernelSampleSpec(mu=0.2, count=16, seed=0)
        )
        assert rep.normalizer == 1.0
        assert rep.count == 16
        assert rep.max_ratio == pytest.approx(0.1797, abs=2e-3)
        assert rep.median_ratio == pytest.approx(0.1000, abs=2e-3)
        assert rep.max_ratio <= 50.0

    def test_no_growth_in_eigenvalue(self):
        maxes = []
        grid = [102, 202, 402]
        for r in grid:
            rep = mehler.kernel_bound_check(
                2, r, mehler.KernelSampleSpec(mu=0.2, count=16, seed=0)
            )
            assert rep.max_ratio <= 50.0
            maxes.append(rep.max_ratio)
        slope = np.polyfit(np.log(grid), np.log(maxes), 1)[0]
        assert abs(slope) <= 0.15

    def test_one_dim_diagonal_constant_recorded(self):
        rep = mehler.kernel_bound_check(
            1, 161, mehler.KernelSampleSpec(mu=0.3, count=8, seed=1)
        )
        assert rep.diagonal_ratio == pytest.approx(0.4088, abs=2e-3)
        assert 0.0 < rep.max_ratio < 50.0

    def test_origin_shell_finite(self):
        rep = mehler.kernel_bound_check(
            2, 102, mehler.KernelSampleSpec(mu=1.0, count=4, seed=2)
        )
        assert rep.max_ratio == pytest.approx(1.0 / math.pi, rel=1e-6)

    @pytest.mark.parametrize("n,r,mu,count,seed", [
        (1, 161, 0.3, 8, 1), (2, 102, 0.2, 16, 0), (2, 402, 0.4, 16, 5),
        (3, 43, 0.2, 16, 3), (3, 163, 0.4, 12, 7)])
    def test_matches_a_kernel_sum_per_sample(self, n, r, mu, count, seed):
        spec = mehler.KernelSampleSpec(mu=mu, count=count, seed=seed)
        got = dataclasses.asdict(mehler.kernel_bound_check(n, r, spec))
        want = dataclasses.asdict(_bound_check_by_sample(n, r, spec))
        for name in want:
            assert got[name] == want[name], name

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_hermite_table_per_check(self, monkeypatch, n):
        calls = []
        grid = spectral.hermite_batch_grid

        def counted(k_max, xs):
            calls.append(len(xs))
            return grid(k_max, xs)

        monkeypatch.setattr(spectral, "hermite_batch_grid", counted)
        mehler.kernel_bound_check(
            n, 2 * 40 + n, mehler.KernelSampleSpec(mu=0.2, count=16, seed=0))
        assert calls == [16 * 2 * n]

    def test_validation(self):
        with pytest.raises(ValueError):
            mehler.KernelSampleSpec(mu=0.0)
        with pytest.raises(ValueError):
            mehler.KernelSampleSpec(mu=0.2, count=3)
        with pytest.raises(ValueError):
            mehler.kernel_bound_check(
                2, 101, mehler.KernelSampleSpec(mu=0.2)
            )


class TestStationaryConsistency:
    def test_residual_decays_in_eigenvalue(self):
        r_values = [41, 81, 161, 321]
        residuals = [mehler.consistency_residual([0.31], [-0.27], r)
                     for r in r_values]
        slope = float(np.polyfit(np.log(r_values), np.log(residuals), 1)[0])
        assert slope <= -0.4
        assert slope == pytest.approx(-1.461, abs=0.3)
        assert residuals[0] > residuals[-1]


class TestLeadingTracksQuadrature:
    def test_factor_band_one_dim(self):
        rng = np.random.default_rng(7)
        for r in (81, 161):
            lam = math.sqrt(r)
            for _ in range(12):
                x = rng.uniform(0.15, 0.75) * rng.choice([-1, 1])
                y = rng.uniform(0.15, 0.75) * rng.choice([-1, 1])
                quad = kernel_oscillatory([lam * x], [lam * y], r).value
                model = kernel_stationary_model([lam * x], [lam * y], r)
                assert 1 / 3 <= abs(model) / abs(quad) <= 3


class TestConfigPanelRule:
    """config refuses a consistency radius by the driver's own count of
    panels for the top level, mehler.consistency_top_panels."""

    def test_refuses_only_what_the_driver_refuses(self, monkeypatch):
        # a small cap keeps the driver's first level cheap; the last odd r
        # whose count is at most the cap passes, the next is refused
        cap = 2000
        monkeypatch.setattr(mehler, "_PANEL_CAP", cap)
        point = (0.31, -0.27)

        def count(r):
            return mehler.consistency_top_panels(*point, r)

        lo, hi = 1, 100001  # counts 4 and 10589, both odd r
        while hi - lo > 2:
            mid = (lo + hi) // 2 | 1
            if count(mid) > cap:
                hi = mid
            else:
                lo = mid
        assert count(lo) == cap and count(hi) > cap

        def sphase(r):
            return config.parse_config({
                "experiment": "sphase-check",
                "parameters": {"consistency_r_values": [101, r]}})

        assert sphase(lo).parameters["consistency_r_values"] == [101, lo]
        with pytest.raises(config.ConfigError,
                           match=rf"consistency_r_values\[1\]: .* needs "
                                 rf"{count(hi)} panels at this r "
                                 rf"\(cap {cap}\)"):
            sphase(hi)

        monkeypatch.setattr(mehler, "_MAX_LEVELS", 1)

        def first_level(r):
            # both halves of the pair, as consistency_residual hands them
            # to the driver, which stops after its first level
            x, y = mehler._rescaled(*mehler._physical(*point, r), r)
            return mehler._half_integrals([(x, y, r), (x, -y, r)],
                                          mehler._CONSISTENCY_TOL)

        top = f"level [{0.5 * WINDOW_END:.3e}, {WINDOW_END:.3e}]"
        assert not any(top in str(v) for v in first_level(lo))
        assert f"{top} needs {count(hi)} panels (cap {cap})" in [
            str(v) for v in first_level(hi)]

    def test_reproducer_count(self):
        assert mehler.consistency_top_panels(0.31, -0.27,
                                             100000001) == 10_588_024
