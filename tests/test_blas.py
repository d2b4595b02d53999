import ast
import contextvars
import ctypes
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hermlp import _blas
from hermlp import normquad as NQ

# The leggauss sizes of a seed-0 sweep-tube pass, in call order.
SWEEP_TUBE_SIZES = (268, 318, 378, 454, 642, 907, 33, 33, 804, 33, 33, 33,
                    33, 146, 189)
# The axis-rule sizes of a sweep-random pass, levels 200 to 3200.
SWEEP_RANDOM_SIZES = (268, 318, 378, 454, 642)
RULE_SIZES = sorted({*range(2, 65), *SWEEP_TUBE_SIZES, *SWEEP_RANDOM_SIZES,
                     1024})


def _openblas():
    found = _blas._lookup()
    if found is None:
        pytest.skip("no OpenBLAS in this process")
    return found


class TestScope:
    def test_restores_after_the_block(self, fake_blas):
        with _blas.one_thread():
            assert fake_blas.count == 1
        assert fake_blas.count == 7
        assert fake_blas.history == [1, 7]

    def test_restores_after_an_exception(self, fake_blas):
        with pytest.raises(RuntimeError, match="boom"):
            with _blas.one_thread():
                raise RuntimeError("boom")
        assert fake_blas.count == 7

    def test_scopes_nest(self, fake_blas):
        with _blas.one_thread():
            with _blas.one_thread():
                assert fake_blas.count == 1
            assert fake_blas.count == 1
        assert fake_blas.count == 7
        assert fake_blas.history == [1, 1, 1, 7]

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr(_blas, "_lookup", lambda: None)
        monkeypatch.setattr(_blas, "_found", _blas._UNSET)
        with _blas.one_thread():
            pass
        assert _blas._found is None
        with pytest.raises(KeyError):
            with _blas.one_thread():
                raise KeyError("passes through")

    def test_one_thread_inside_on_the_real_library(self):
        get, _ = _openblas()
        before = get()
        with _blas.one_thread():
            assert get() == 1
            with _blas.one_thread():
                assert get() == 1
            assert get() == 1
        assert get() == before


class TestTwoWorkers:
    def test_block_k_runs_on_worker_k_mod_2(self):
        seen = []
        _blas.on_two_workers(
            lambda k, w: seen.append((k, w, threading.current_thread())), 7)
        assert sorted((k, w) for k, w, _ in seen) == [(k, k % 2)
                                                      for k in range(7)]
        caller = threading.current_thread()
        assert {t is caller for k, w, t in seen if w == 0} == {True}
        assert {t is caller for k, w, t in seen if w == 1} == {False}
        # each worker takes its blocks in order
        for w in (0, 1):
            assert [k for k, v, _ in seen if v == w] == list(range(w, 7, 2))

    def test_one_helper_for_every_call(self):
        threads = []
        for count in (2, 5, 3):
            _blas.on_two_workers(
                lambda k, w: w and threads.append(threading.current_thread()),
                count)
        assert len(threads) == 1 + 2 + 1 and len(set(threads)) == 1

    def test_helper_runs_in_the_callers_context(self):
        var = contextvars.ContextVar("var", default="unset")
        seen = {}

        def block(k, w):
            seen[w] = var.get()
            var.set(f"set by {w}")

        token = var.set("caller's")
        try:
            _blas.on_two_workers(block, 2)
            # a copy: the helper's own set does not reach the caller
            assert seen == {0: "caller's", 1: "caller's"}
            assert var.get() == "set by 0"
        finally:
            var.reset(token)

    @pytest.mark.parametrize("count", [0, 1])
    def test_under_two_blocks_no_thread_starts(self, monkeypatch, count):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread)
                            or start(thread))
        monkeypatch.setattr(_blas, "_helper", None)
        seen = []
        _blas.on_two_workers(
            lambda k, w: seen.append((k, w, threading.current_thread())),
            count)
        assert seen == [(k, 0, threading.current_thread())
                        for k in range(count)]
        assert started == [] and _blas._helper is None

    def test_a_caller_failure_waits_for_the_helper(self):
        handed, finished = threading.Event(), []

        def block(k, w):
            if w == 0:
                handed.wait(5.0)
                raise RuntimeError("caller")
            handed.set()
            threading.Event().wait(0.2)
            finished.append(k)

        with pytest.raises(RuntimeError, match="caller"):
            _blas.on_two_workers(block, 2)
        assert finished == [1]

    def test_the_callers_failure_wins_over_the_helpers(self):
        def block(k, w):
            raise RuntimeError(f"worker {w}")

        with pytest.raises(RuntimeError, match="worker 0"):
            _blas.on_two_workers(block, 2)
        with pytest.raises(RuntimeError, match="worker 1"):
            _blas.on_two_workers(
                lambda k, w: w and block(k, w), 2)

    def test_only_blas_imports_threads(self):
        # every thread of the library is the one helper of on_two_workers
        src = Path(_blas.__file__).parent
        importers = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] in ("threading", "concurrent",
                                           "multiprocessing", "_thread")
                       for n in names):
                    importers.add(path.name)
        assert importers == {"_blas.py"}


def _hex(rule):
    return [[x.hex() for x in a.tolist()] for a in rule]


@pytest.mark.parametrize("m", sorted({*range(2, 65), *SWEEP_TUBE_SIZES, 1024}))
def test_leggauss_bits_do_not_depend_on_the_scope(m):
    want = leggauss(m)
    with _blas.one_thread():
        got = leggauss(m)
    assert _hex(got) == _hex(want)


@pytest.fixture
def no_sterf(monkeypatch):
    monkeypatch.setattr(_blas, "_lookup_sterf", lambda: None)
    monkeypatch.setattr(_blas, "_sterf", _blas._UNSET)


class TestGaussLegendre:
    """The axis rule takes the companion eigenvalues from dsterf and must
    give leggauss's bits, through dsterf and through the eigvalsh
    fallback."""

    @pytest.mark.parametrize("m", RULE_SIZES)
    def test_rule_equals_leggauss(self, m):
        assert _hex(NQ._gauss_legendre(m)) == _hex(leggauss(m))

    @pytest.mark.parametrize("m", [2, 3, 33, 268, 642])
    def test_fallback_without_dsterf(self, no_sterf, m):
        assert _hex(NQ._gauss_legendre(m)) == _hex(leggauss(m))
        assert _blas._sterf is None

    def test_fallback_when_dsterf_fails(self, monkeypatch):
        calls = []

        def failing(n, d, e, info):
            calls.append(n._obj.value)
            info._obj.value = 1

        monkeypatch.setattr(_blas, "_sterf", (failing, ctypes.c_int64))
        assert _hex(NQ._gauss_legendre(40)) == _hex(leggauss(40))
        assert calls == [40]

    def test_dsterf_matches_eigvalsh_on_a_tridiagonal_matrix(self):
        if _blas._lookup_sterf() is None:
            pytest.skip("no dsterf in this process")
        rng = np.random.default_rng(3)
        d, e = rng.standard_normal(200), rng.standard_normal(199)
        dense = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        got = _blas.tridiagonal_eigvalsh(d, e)
        assert _hex([got]) == _hex([np.linalg.eigvalsh(dense)])
        assert got is not d and np.array_equal(d, dense.diagonal())
        with pytest.raises(ValueError):
            _blas.tridiagonal_eigvalsh(d, e[:-1])

    def test_lookups_wait_for_first_use(self):
        code = ("import hermlp, hermlp.runner, hermlp._blas as b; "
                "print(b._sterf is b._UNSET, b._found is b._UNSET)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["True", "True"]
