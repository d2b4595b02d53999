import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hermlp import phase as ph

coord = st.floats(min_value=-0.75, max_value=0.75)


def random_pair(rng, n, lo=-0.8, hi=0.8):
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


class TestDerivatives:
    def test_quarter_period_value(self):
        # cos 2t vanishes at t = pi/4, leaving t - x.y
        x = np.array([0.3, 0.4])
        y = np.array([-0.2, 0.9])
        assert ph.phase_value(math.pi / 4, x, y) == pytest.approx(
            math.pi / 4 - np.dot(x, y), rel=1e-14
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_derivative_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_pair(rng, int(rng.integers(1, 4)))
        t = rng.uniform(0.15, 0.7)
        h = 1e-6
        fd = (ph.phase_value(t + h, x, y) - ph.phase_value(t - h, x, y)) / (2 * h)
        assert ph.phase_derivative(t, x, y) == pytest.approx(fd, abs=1e-6, rel=1e-7)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_second_derivative_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_pair(rng, int(rng.integers(1, 4)))
        t = rng.uniform(0.15, 0.7)
        h = 1e-4
        fd = (
            ph.phase_value(t + h, x, y)
            - 2 * ph.phase_value(t, x, y)
            + ph.phase_value(t - h, x, y)
        ) / h**2
        assert ph.phase_second_derivative(t, x, y) == pytest.approx(fd, abs=1e-5, rel=1e-6)

    def test_vectorized_over_t(self):
        x = np.array([0.1])
        y = np.array([0.6])
        ts = np.linspace(0.1, 1.4, 9)
        vals = ph.phase_value(ts, x, y)
        assert vals.shape == (9,)
        assert vals[3] == ph.phase_value(float(ts[3]), x, y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ph.phase_value(0.3, np.array([1.0, 2.0]), np.array([1.0]))


class TestPrivateKernels:
    """The public phase functions wrap the (t, a2, b) kernels that the
    quadrature calls directly; both routes give the same bits."""

    KERNELS = [("phase_value", "_value"),
               ("phase_derivative", "_derivative"),
               ("phase_second_derivative", "_second_derivative")]

    @staticmethod
    def _invariants(x, y):
        return float(np.dot(x, x) + np.dot(y, y)), float(np.dot(x, y))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arrays_match_exactly(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_pair(rng, seed + 1)
        a2, b = self._invariants(x, y)
        ts = rng.uniform(1e-6, 1.5, 257)
        for public, kernel in self.KERNELS:
            got = getattr(ph, public)(ts, x, y)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, getattr(ph, kernel)(ts, a2, b))

    @pytest.mark.parametrize("t", [0.37, np.float64(1e-5), np.array(0.9)])
    def test_scalars_match_exactly_and_return_float(self, t):
        x, y = np.array([0.3, -0.5]), np.array([-0.6, 0.2])
        a2, b = self._invariants(x, y)
        for public, kernel in self.KERNELS:
            got = getattr(ph, public)(t, x, y)
            assert type(got) is float
            assert got == float(getattr(ph, kernel)(t, a2, b))

    def test_value_with_sine_passed_in(self):
        x, y = np.array([0.1, 0.4, -0.3]), np.array([-0.5, 0.2, 0.6])
        a2, b = self._invariants(x, y)
        ts = np.linspace(1e-4, 1.2, 101)
        got = ph._value(ts, a2, b, 2.0 * np.sin(2.0 * ts))
        assert np.array_equal(got, ph.phase_value(ts, x, y))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_value_in_place_has_the_bits_of_the_formula(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_pair(rng, seed + 2)
        a2, b = self._invariants(x, y)
        ts = np.concatenate([rng.uniform(1e-9, 1.5, 513), [0.0, math.pi / 2]])
        s, c = np.sin(2.0 * ts), np.cos(2.0 * ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = ts + (a2 * c - 2.0 * b) / (2.0 * s)
        got = ph._value(ts, a2, b, 2.0 * s, c, out=c)
        assert got is c
        assert got.tobytes() == want.tobytes()
        assert ph._value(ts, a2, b).tobytes() == want.tobytes()
        assert float(ph._value(float(ts[7]), a2, b)).hex() == want[7].hex()


class TestCriticalPoints:
    @given(st.lists(coord, min_size=1, max_size=4), st.data())
    def test_derivative_vanishes_at_interior_points(self, xl, data):
        x = np.array(xl)
        y = np.array([data.draw(coord) for _ in xl])
        cps = ph.critical_points(x, y)
        for p in cps.interior():
            if p.sin2t < 1e-3:
                continue  # derivative check loses accuracy at the edges
            assert abs(ph.phase_derivative(p.t, x, y)) < 1e-8
            assert ph.phase_second_derivative(p.t, x, y) == pytest.approx(
                p.curvature, rel=1e-8, abs=1e-8
            )

    def test_worked_example(self):
        # x = y = (1/sqrt 2, 0): plus root collides with t = 0, minus root
        # sits at the quarter period with curvature -2 and phase pi/4 - 1/2
        x = np.array([2**-0.5, 0.0])
        cps = ph.critical_points(x, x)
        assert cps.disc == pytest.approx(0.25, rel=1e-14)
        assert cps.plus is not None and cps.plus.at_boundary and cps.plus.t == 0.0
        p2 = cps.minus
        assert p2 is not None
        assert p2.t == pytest.approx(math.pi / 4, rel=1e-15)
        assert p2.curvature == pytest.approx(-2.0, rel=1e-13)
        assert ph.phase_value(p2.t, x, x) == pytest.approx(math.pi / 4 - 0.5, rel=1e-14)

    def test_diagonal_discriminant(self):
        x = np.array([0.6, 0.1, 0.3])
        cps = ph.critical_points(x, x)
        assert cps.disc == pytest.approx((1 - np.dot(x, x)) ** 2, abs=1e-15)

    def test_antipodal_boundary(self):
        x = np.array([0.5, 0.2])
        cps = ph.critical_points(x, -x)
        assert cps.minus is None or cps.minus.at_boundary
        roots = [p for p in (cps.plus, cps.minus) if p is not None]
        bnd = [p for p in roots if p.at_boundary]
        assert all(p.t in (0.0, math.pi / 2) for p in bnd)

    def test_no_points_when_disc_negative(self):
        # push |x|, |y| large with near-orthogonal directions: a2 >> 1 + b^2
        x = np.array([2.0, 0.0])
        y = np.array([0.0, 2.0])
        cps = ph.critical_points(x, y)
        assert cps.disc < 0
        assert cps.plus is None and cps.minus is None
        assert ph.stationary_points_in(x, y, 1.5) == []

    def test_minus_root_quarter_period_convention(self):
        # b < sqrt(disc) drops the minus root from the convention object
        # even though it exists inside a wider window
        x = np.array([0.9])
        y = np.array([-0.25])
        cps = ph.critical_points(x, y)
        assert cps.b < math.sqrt(cps.disc)
        assert cps.minus is None
        wide = ph.stationary_points_in(x, y, 3 * math.pi / 8)
        kinds = {p.kind for p in wide}
        assert "minus" in kinds

    @given(st.lists(coord, min_size=1, max_size=3), st.data())
    def test_window_enumeration_sorted_and_complete(self, xl, data):
        x = np.array(xl)
        y = np.array([data.draw(coord) for _ in xl])
        pts = ph.stationary_points_in(x, y, 3 * math.pi / 8)
        ts = [p.t for p in pts]
        assert ts == sorted(ts)
        for p in pts:
            assert 0.0 < p.t < 3 * math.pi / 8
            assert abs(ph.phase_derivative(p.t, x, y)) < 1e-7 * (1 + 1 / p.sin2t**2)


class TestFactorization:
    def test_derivative_factors_through_roots(self):
        # a2 > 1 keeps both roots under the quarter-period convention
        x = np.array([0.8])
        y = np.array([0.7])
        cps = ph.critical_points(x, y)
        t1, t2 = cps.plus.t, cps.minus.t
        ts = np.linspace(0.05, 1.5, 40)
        lhs = ph.phase_derivative(ts, x, y)
        rhs = (
            -(4.0 / np.sin(2 * ts) ** 2)
            * np.sin(ts + t1) * np.sin(ts - t1)
            * np.sin(ts + t2) * np.sin(ts - t2)
        )
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestReducedPhase:
    def test_near_diagonal_ratio(self):
        # psi at the plus root scales like |x-y| sqrt(1-|x|^2) near the diagonal
        x = np.array([0.4, 0.3])
        direction = np.array([1.0, -0.5]) / np.hypot(1.0, -0.5)
        target = math.sqrt(1 - np.dot(x, x))
        for eps in [1e-3, 1e-4]:
            y = x + eps * direction
            cps = ph.critical_points(x, y)
            ratio = ph.phase_value(cps.plus.t, x, y) / np.linalg.norm(x - y)
            assert ratio == pytest.approx(target, rel=2e-3)


class TestMixedHessian:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_spectrum_structure(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        x, y = random_pair(rng, n, -0.7, 0.7)
        cps = ph.critical_points(x, y)
        for p in cps.interior():
            M = ph.mixed_hessian(x, y, p)
            ev = np.sort(np.real(np.linalg.eigvals(M)))
            target = np.sort(np.concatenate([[0.0], np.full(n - 1, -1.0 / p.sin2t)]))
            assert np.allclose(ev, target, atol=1e-9)

    def test_dim_one_is_exactly_the_zero_matrix_limit(self):
        x = np.array([0.2])
        y = np.array([0.55])
        cps = ph.critical_points(x, y)
        for p in cps.interior():
            M = ph.mixed_hessian(x, y, p)
            assert M.shape == (1, 1)
            assert abs(M[0, 0]) < 1e-12

    def test_matches_finite_differences_of_reduced_phase(self):
        x = np.array([0.31, -0.42])
        y = np.array([-0.11, 0.52])

        def reduced(xv, yv, kind):
            cps = ph.critical_points(xv, yv)
            p = cps.plus if kind == "plus" else cps.minus
            return float(ph.phase_value(p.t, xv, yv))

        h = 1e-5
        cps = ph.critical_points(x, y)
        for p in cps.interior():
            M = ph.mixed_hessian(x, y, p)
            fd = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    yp, ym = y.copy(), y.copy()
                    yp[j] += h
                    ym[j] -= h
                    fd[i, j] = (
                        reduced(xp, yp, p.kind) - reduced(xp, ym, p.kind)
                        - reduced(xm, yp, p.kind) + reduced(xm, ym, p.kind)
                    ) / (4 * h * h)
            assert np.abs(M - fd).max() < 1e-6

    def test_rejects_boundary_point(self):
        x = np.array([0.5, 0.0])
        cps = ph.critical_points(x, x)
        with pytest.raises(ValueError):
            ph.mixed_hessian(x, x, cps.plus)
