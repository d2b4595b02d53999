import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hermlp import stationary as sph

GAMMA = 0.2
BUMP_W = 0.8


def cubic_phase(t):
    return 0.5 * t * t + GAMMA * t**3


def cubic_phase_series(order=30):
    c = np.zeros(order)
    c[2] = 0.5
    c[3] = GAMMA
    return c


def bump_amp(t):
    return sph.smooth_bump(t, BUMP_W)


class TestSeriesHelpers:
    def test_bump_series_rationals(self):
        # exp(-s/(1-s)) = 1 - s - s^2/2 - s^3/6 + s^4/24 + 19 s^5/120 + 151 s^6/720 + ...
        cs = sph.smooth_bump_series(12)
        expect = [1.0, -1.0, -0.5, -1 / 6, 1 / 24, 19 / 120, 151 / 720]
        assert np.allclose(cs[::2], expect, rtol=1e-14)
        assert np.all(cs[1::2] == 0.0)

    def test_bump_high_derivatives(self):
        cs = sph.smooth_bump_series(12)
        assert cs[6] * math.factorial(6) == pytest.approx(-120.0, rel=1e-13)
        assert cs[12] * math.factorial(12) == pytest.approx(100457280.0, rel=1e-12)

    def test_bump_series_scales_with_width(self):
        a = sph.smooth_bump_series(8, 2.0)
        b = sph.smooth_bump_series(8, 1.0)
        assert a[4] == pytest.approx(b[4] / 16.0, rel=1e-14)

    def test_bump_values(self):
        assert sph.smooth_bump(0.0) == 1.0
        assert sph.smooth_bump(1.0) == 0.0
        assert sph.smooth_bump(-3.0) == 0.0
        pos = np.linspace(0.1, 0.9, 5)
        ts = np.concatenate([-pos[::-1], [0.0], pos])
        vals = sph.smooth_bump(ts)
        assert np.array_equal(vals, vals[::-1])

    def test_bump_series_matches_values(self):
        cs = sph.smooth_bump_series(20, BUMP_W)
        for t in (0.05, 0.15, -0.2):
            series_val = sum(c * t**i for i, c in enumerate(cs))
            assert series_val == pytest.approx(bump_amp(t), rel=1e-10)

    @given(st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=6))
    def test_series_exp_inverse(self, coeffs):
        u = np.array(coeffs)
        e_plus = sph.series_exp(u, 8)
        e_minus = sph.series_exp(-u, 8)
        prod = sph.series_mul(e_plus, e_minus, 8)
        expect = np.zeros(9)
        expect[0] = 1.0
        assert np.allclose(prod, expect, atol=1e-12)

    def test_series_mul_truncates(self):
        out = sph.series_mul([1.0, 1.0], [1.0, 1.0, 1.0], 2)
        assert np.allclose(out, [1.0, 2.0, 2.0])
        assert out.shape == (3,)


class TestExpansionStructure:
    def test_m1_term_powers(self):
        e = sph.expand_from_series(cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 1)
        assert [t.power for t in e.terms] == [-0.5, -1.5, -2.5, -3.5]
        assert all(t.k == 0 for t in e.terms)

    def test_m2_includes_k2_row(self):
        e = sph.expand_from_series(cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 2)
        ks = {(t.k, t.j) for t in e.terms}
        assert (2, 3) in ks
        assert all(k % 2 == 0 for k, _ in ks)  # odd rows vanish: cubic + even amp

    def test_leading_term_is_fresnel(self):
        e = sph.expand_from_series(cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 1)
        lead = e.terms[0]
        lam = 137.0
        assert lead.coefficient * lam**lead.power == pytest.approx(
            sph.fresnel_leading(lam, 0.0, 1.0, 1.0), rel=1e-14
        )

    def test_phase_offset_rotates_value(self):
        base = cubic_phase_series()
        shifted = base.copy()
        shifted[0] = 0.3
        e0 = sph.expand_from_series(base, [1.0], 1)
        e1 = sph.expand_from_series(shifted, [1.0], 1)
        lam = 17.0
        rot = complex(math.cos(0.3 * lam), math.sin(0.3 * lam))
        assert e1.evaluate(lam) == pytest.approx(e0.evaluate(lam) * rot, rel=1e-13)

    def test_negated_phase_conjugates(self):
        e_plus = sph.expand_from_series(cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 2)
        e_minus = sph.expand_from_series(-cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 2)
        lam = 93.0
        assert e_minus.evaluate(lam) == pytest.approx(
            e_plus.evaluate(lam).conjugate(), rel=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            sph.expand_from_series([0.0, 0.5, 1.0], [1.0], 1)  # linear term
        with pytest.raises(ValueError):
            sph.expand_from_series([0.0, 0.0, 0.0, 1.0], [1.0], 1)  # degenerate
        with pytest.raises(ValueError):
            sph.expand_from_series(cubic_phase_series(), [1.0], 0)
        with pytest.raises(ValueError):
            sph.fresnel_leading(10.0, 0.0, 0.0, 1.0)

    def test_stationarity_tolerance_is_relative(self):
        # the first-order term is judged against the largest coefficient
        sph.expand_from_series([0.0, 1e-9, 5.0, 1.0], [1.0], 1)
        with pytest.raises(ValueError, match="first-order"):
            sph.expand_from_series([0.0, 1e-7, 5.0, 1.0], [1.0], 1)

    @pytest.mark.parametrize("phase,amp", [([0.0, 0.0, 0.5], 1.0),
                                           ([0.2, 0.0, -1.5], 2.0)])
    def test_pure_quadratic_is_leading_term_only(self, phase, amp):
        e = sph.expand_from_series(phase, [amp], 3)
        assert len(e.terms) == 1
        lam = 50.0
        assert e.evaluate(lam) == pytest.approx(
            sph.fresnel_leading(lam, phase[0], 2.0 * phase[2], amp), rel=1e-14
        )


class TestAgainstQuadrature:
    lams = np.array([160.0, 320.0, 640.0, 1280.0])

    def reference(self, lam):
        return sph.oscillatory_quadrature(
            bump_amp, cubic_phase, lam, -BUMP_W, BUMP_W,
            panels=max(300, int(3 * lam)), nodes=16,
        )

    def test_quadrature_self_consistency(self):
        lam = 320.0
        r1 = self.reference(lam)
        r2 = sph.oscillatory_quadrature(
            bump_amp, cubic_phase, lam, -BUMP_W, BUMP_W, panels=2100, nodes=20
        )
        assert abs(r1 - r2) < 1e-13

    @pytest.mark.parametrize("m,min_drop,final_rel", [(1, 1.3, 1e-3), (2, 2.2, 1e-5)])
    def test_error_decay_slope(self, m, min_drop, final_rel):
        e = sph.expand_from_series(
            cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), m
        )
        errs = np.array([abs(e.evaluate(lam) - self.reference(lam)) for lam in self.lams])
        slope = np.polyfit(np.log(self.lams), np.log(errs), 1)[0]
        assert slope < -min_drop
        # and the expansion is genuinely close at the largest lam
        assert errs[-1] < final_rel * abs(self.reference(self.lams[-1]))

    def test_m1_pointwise_relative_error(self):
        e = sph.expand_from_series(
            cubic_phase_series(), sph.smooth_bump_series(28, BUMP_W), 1
        )
        lam = 320.0
        ref = self.reference(lam)
        assert abs(e.evaluate(lam) - ref) / abs(ref) < 2e-3

    def test_polynomial_amplitude_orders_improve(self):
        poly = [1.0, 0.0, -0.3, 0.0, 0.05]
        amp_series = sph.series_mul(poly, sph.smooth_bump_series(28, BUMP_W), 28)

        def amp(t):
            return (1.0 - 0.3 * t**2 + 0.05 * t**4) * bump_amp(t)

        for lam in self.lams[2:]:
            ref = sph.oscillatory_quadrature(
                amp, cubic_phase, lam, -BUMP_W, BUMP_W,
                panels=int(3 * lam), nodes=16,
            )
            errs = [abs(sph.expand_from_series(
                cubic_phase_series(), amp_series, m).evaluate(lam) - ref)
                / abs(ref) for m in (1, 2, 3)]
            assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8


def _per_panel_quadrature(amplitude, phase, lam, lo, hi, panels, nodes):
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        ts = mid + half * base_x
        vals = amplitude(ts) * np.exp(1j * lam * phase(ts))
        total += half * np.dot(base_w, vals)
    return complex(total)


class TestQuadratureBlocks:
    block = sph.PANEL_BLOCK

    @pytest.mark.parametrize("panels", [1, 300, sph.PANEL_BLOCK,
                                        2 * sph.PANEL_BLOCK + 7])
    def test_matches_per_panel_loop_exactly(self, panels):
        for lam, nodes in ((40.0, 16), (900.0, 24)):
            got = sph.oscillatory_quadrature(bump_amp, cubic_phase, lam,
                                             -BUMP_W, BUMP_W, panels, nodes)
            want = _per_panel_quadrature(bump_amp, cubic_phase, lam,
                                         -BUMP_W, BUMP_W, panels, nodes)
            assert got == want

    def test_callables_see_bounded_1d_blocks(self):
        nodes = 16
        panels = 2 * self.block + 7
        sizes = []

        def amplitude(t):
            assert t.ndim == 1 and t.size <= self.block * nodes
            sizes.append(t.size)
            return bump_amp(t)

        sph.oscillatory_quadrature(amplitude, cubic_phase, 500.0, -BUMP_W,
                                   BUMP_W, panels, nodes)
        assert sizes == [self.block * nodes, self.block * nodes, 7 * nodes]

