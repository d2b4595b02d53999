import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hermlp import _blas

# The leggauss sizes of a seed-0 sweep-tube pass, in call order.
SWEEP_TUBE_SIZES = (268, 318, 378, 454, 642, 907, 33, 33, 804, 33, 33, 33,
                    33, 146, 189)


class _FakeBlas:
    """A (get, set) pair that records every count it is set to."""

    def __init__(self, count):
        self.count = count
        self.history = []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.history.append(count)


@pytest.fixture
def fake_blas(monkeypatch):
    fake = _FakeBlas(7)
    monkeypatch.setattr(_blas, "_found", (fake.get, fake.set))
    return fake


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


@pytest.mark.parametrize("m", sorted({*range(2, 65), *SWEEP_TUBE_SIZES, 1024}))
def test_leggauss_bits_do_not_depend_on_the_scope(m):
    want = leggauss(m)
    with _blas.one_thread():
        got = leggauss(m)
    for a, b in zip(got, want):
        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]
