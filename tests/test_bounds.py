"""Closed-form bound module: exponents, envelopes, regions, max tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlp import bounds as B


class TestExponents:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_zero_at_p2(self, n):
        assert B.sogge_exponent(n, 2.0) == 0.0
        assert B.global_lp_exponent(n, 2.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sigma_kink_continuity(self, n):
        pc = B.sogge_kink(n)
        lo = 0.5 * (n - 1) * (0.5 - 1 / pc)
        hi = 0.5 * (n - 1) - n / pc
        assert abs(lo - hi) < 1e-15
        assert abs(B.sogge_exponent(n, pc) - 0.5 * (n - 1) / (n + 1)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_rho_kink_continuity_and_value(self, n):
        qc = B.rho_kink(n)
        v1 = -0.5 + 1 / qc
        v2 = (n - 2) / 6 - n / (3 * qc)
        assert abs(v1 - v2) < 1e-15
        assert abs(v1 + 1.0 / (n + 3)) < 1e-15

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_rho_second_kink_vanishes(self, n):
        sc = B.thangavelu_kink(n)
        assert abs((n - 2) / 6 - n / (3 * sc)) < 1e-15
        assert abs(0.5 * (n - 2) - n / sc) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rho_minimized_at_kink(self, n):
        qc = B.rho_kink(n)
        ps = np.linspace(2.0, qc + 6.0, 400)
        vals = [B.global_lp_exponent(n, p) for p in ps]
        assert abs(ps[int(np.argmin(vals))] - qc) < 0.03

    def test_small_dimension_values(self):
        assert abs(B.global_lp_exponent(1, 4.0) + 0.25) < 1e-15
        assert abs(B.global_lp_exponent(1, math.inf) + 1 / 6) < 1e-15
        assert B.global_lp_exponent(2, math.inf) == 0.0
        assert abs(B.global_lp_exponent(3, math.inf) - 0.5) < 1e-15
        # one dimension: fixed balls never grow
        assert all(B.sogge_exponent(1, p) == 0.0 for p in (2, 5, 17, math.inf))

    def test_kink_conventions(self):
        assert B.sogge_kink(1) == math.inf
        assert B.thangavelu_kink(1) == math.inf
        assert B.thangavelu_kink(2) == math.inf
        assert B.sogge_kink(3) == 4.0
        assert B.thangavelu_kink(3) == 6.0

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            B.sogge_exponent(2, 1.5)


class TestMuParams:
    def test_worked_values(self):
        mu, mut = B.mu_params(2, 10.0, 1.0, 9.0)
        assert abs(mu - 0.1) < 1e-15
        assert abs(mut - 10.0 ** (-4 / 3)) < 1e-18

    def test_center_at_origin(self):
        mu, mut = B.mu_params(2, 10.0, 1.0, 0.0)
        assert mu == 1.0
        assert abs(mut - 0.9) < 1e-15

    def test_floor_engages(self):
        mu, mut = B.mu_params(2, 10.0, 1.0, 10.0)
        assert abs(mu - 10.0 ** (-4 / 3)) < 1e-18
        assert mut == mu

    def test_range_validation(self):
        with pytest.raises(ValueError):
            B.mu_params(2, -1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            B.mu_params(2, 10.0, 11.0, 0.0)
        with pytest.raises(ValueError):
            B.mu_params(2, 10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            B.mu_params(2, 10.0, 1.0, 12.0)


PS = st.sampled_from([2.0, 2.7, 10 / 3, 4.0, 6.0, 9.0, 30.0, math.inf])


class TestLocalEnvelope:
    def test_frozen_example(self):
        got = B.lambda_lp(2, 100.0, 1.0, 50.0, 6.0)
        assert got.branch == "tube-low-p"
        assert abs(got.value - 0.24182711751219574) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 4, 7]),
           loglam=st.floats(1.5, 14.0),
           frac=st.floats(0.0, 1.0),
           p=PS)
    def test_point_tube_seam_identity(self, n, loglam, frac, p):
        lam = math.exp(loglam)
        mu = math.exp(frac * math.log(lam ** (-4 / 3)))
        ip = 0.0 if p == math.inf else 1.0 / p
        s = lam * math.sqrt(mu)
        r1 = 1.0 / s
        point = 0.5 * (n - 2) * math.log(s) + n * ip * math.log(r1)
        if p <= B.sogge_kink(n):
            e = 0.25 * (n - 1) - 0.5 * (n + 1) * ip
            tube = e * (math.log(s) - math.log(r1)) + (ip - 0.5) * math.log(s)
        else:
            tube = (0.5 * (n - 2) - n * ip) * math.log(s)
        assert abs(point - tube) < 1e-10 * max(1.0, abs(point))
        assert abs(B.lambda_lp_at_mu(n, lam, r1, mu, p).log_value - point) \
            < 1e-10 * max(1.0, abs(point))

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 4, 7]),
           loglam=st.floats(1.5, 14.0),
           frac=st.floats(0.05, 1.0),
           p=st.sampled_from([2.0, 2.2, 2.7, 3.0]))
    def test_tube_cap_seam_identity(self, n, loglam, frac, p):
        # exact only below the rho kink, where neither side quotes mu_tilde
        lam = math.exp(loglam)
        mu = math.exp(frac * math.log(lam ** (-4 / 3)))
        if p >= B.rho_kink(n):
            return
        ip = 1.0 / p
        s = lam * math.sqrt(mu)
        r2 = lam * mu
        if r2 <= 1.0 / s:
            return
        e = 0.25 * (n - 1) - 0.5 * (n + 1) * ip
        tube = e * (math.log(s) - math.log(r2)) + (ip - 0.5) * math.log(s)
        ec = 0.25 * (n + 3) * ip - 0.125 * (n + 1)
        cap = ec * (math.log(r2) - math.log(lam)) + (ip - 0.5) * math.log(lam)
        assert abs(tube - cap) < 1e-10 * max(1.0, abs(tube))
        assert abs(B.lambda_lp_at_mu(n, lam, r2, mu, p).log_value - cap) \
            < 1e-10 * max(1.0, abs(cap))

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 7]),
           loglam=st.floats(1.5, 12.0),
           nufrac=st.floats(0.0, 1.0))
    def test_p_kink_continuity(self, n, loglam, nufrac):
        lam = math.exp(loglam)
        nu = nufrac * lam
        mu = max(lam ** (-4 / 3), 1 - nu / lam)
        pc, qc, sc = B.sogge_kink(n), B.rho_kink(n), B.thangavelu_kink(n)
        r1, r2 = 1.0 / (lam * math.sqrt(mu)), lam * mu
        if r2 > 1.0001 * r1:
            r = math.sqrt(r1 * r2)
            lo = B.lambda_lp(n, lam, r, nu, pc * (1 - 1e-12)).log_value
            hi = B.lambda_lp(n, lam, r, nu, pc * (1 + 1e-12)).log_value
            assert abs(lo - hi) < 1e-9 * max(1.0, abs(lo))
        if r2 <= lam:
            r = math.sqrt(r2 * lam)
            kinks = [qc, pc] + ([sc] if math.isfinite(sc) else [])
            for pk in kinks:
                lo = B.lambda_lp(n, lam, r, nu, pk * (1 - 1e-12)).log_value
                hi = B.lambda_lp(n, lam, r, nu, pk * (1 + 1e-12)).log_value
                assert abs(lo - hi) < 1e-9 * max(1.0, abs(lo))

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 5, 9]),
           loglam=st.floats(1.0, 12.0),
           p=PS)
    def test_unit_ball_at_center_recovers_fixed_ball_rate(self, n, loglam, p):
        lam = math.exp(loglam)
        got = B.lambda_lp(n, lam, 1.0, 0.0, p).log_value
        want = (B.sogge_exponent(n, p) - 0.5) * math.log(lam)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_quarter_power_slope_in_mu(self):
        n, lam, r = 3, 1.0e4, 1.0
        mus = [0.2, 0.35, 0.6, 0.9]
        vals = [B.lambda_lp_at_mu(n, lam, r, m, 2.0) for m in mus]
        assert {v.branch for v in vals} == {"tube-low-p"}
        for a, b, ma, mb in zip(vals, vals[1:], mus, mus[1:]):
            slope = (b.log_value - a.log_value) / (math.log(mb) - math.log(ma))
            assert abs(slope + 0.25) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 5]),
           loglam=st.floats(1.5, 10.0),
           nufrac=st.floats(0.0, 1.0))
    def test_monotone_in_r_and_one_at_full_ball(self, n, loglam, nufrac):
        lam = math.exp(loglam)
        nu = nufrac * lam
        rs = np.geomspace(lam ** (-4 / 3), lam, 200)
        vals = [B.lambda_lp(n, lam, float(rr), nu, 2.0).log_value for rr in rs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(B.lambda_lp(n, lam, lam, nu, 2.0).log_value) < 1e-12

    def test_mu_floor_validation(self):
        with pytest.raises(ValueError):
            B.lambda_lp_at_mu(2, 100.0, 1.0, 1e-6, 2.0)

    def test_cap_regime_mu_tilde_sits_at_floor(self):
        bv = B.lambda_lp(2, 100.0, 80.0, 60.0, 4.0)
        assert bv.branch.startswith("cap")
        assert bv.mu_tilde == 100.0 ** (-4 / 3)


class TestRegions:
    def test_worked_examples(self):
        assert B.classify_region(10.0, 9.99).kind == "boundary"
        assert B.classify_region(10.0, 0.0) == B.Region("interior", 0)
        assert B.classify_region(10.0, 11.0).kind == "exterior"

    @settings(max_examples=200, deadline=None)
    @given(loglam=st.floats(1.5, 10.0), xfrac=st.floats(0.0, 1.2))
    def test_tags_are_total_and_consistent(self, loglam, xfrac):
        lam = math.exp(loglam)
        x = xfrac * (lam + 2.0)
        reg = B.classify_region(lam, x)
        width = lam ** (-1 / 3)
        if x > lam + 0.5 * width:
            assert reg.kind == "exterior"
        elif abs(x - lam) <= width:
            assert reg.kind == "boundary"
        else:
            assert reg.kind == "interior"
            depth = lam - x
            j = reg.j
            jmax = max(math.floor(2 * math.log2(lam) / 3), 0)
            assert 0 <= j <= jmax
            center = lam * 2.0 ** (-2 * j)
            if not (j == 0 and depth > center) and not (j == jmax and depth < center):
                assert center / 2.0 <= depth < center * 2.0

    def test_deeper_points_get_smaller_j(self):
        lam = 100.0
        xs = np.linspace(0.0, lam - lam ** (-1 / 3) - 1e-9, 2000)
        js = [B.classify_region(lam, float(x)).j for x in xs]
        assert all(b >= a for a, b in zip(js, js[1:]))

    def test_region_invariants(self):
        with pytest.raises(ValueError):
            B.Region("interior")
        with pytest.raises(ValueError):
            B.Region("boundary", 3)
        with pytest.raises(ValueError):
            B.Region("nonsense")


class TestAnnulus:
    def test_p2_interior_is_pure_dyadic_decay(self):
        for j in range(4):
            v = B.annulus_lp_bound(2, 50.0, B.Region("interior", j), 2.0)
            assert abs(v - 2.0 ** (-0.5 * j)) < 1e-14

    def test_p2_boundary_rate(self):
        v = B.annulus_lp_bound(3, 77.0, B.BOUNDARY, 2.0)
        assert abs(v - 77.0 ** (-1 / 3)) < 1e-14

    def test_exterior_matches_boundary(self):
        a = B.annulus_lp_bound(3, 77.0, B.EXTERIOR, 5.0)
        assert a == B.annulus_lp_bound(3, 77.0, B.BOUNDARY, 5.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_interior_formulas_meet_at_kink(self, n, j):
        lam = 400.0
        pc = B.sogge_kink(n)
        ip = 1.0 / pc
        a = math.exp((ip - 0.5) * math.log(lam)
                     + (0.25 * (n + 1) - 0.5 * (n + 3) * ip) * j * math.log(2))
        b = (lam * 2.0 ** (-j)) ** (0.5 * (n - 2) - n * ip)
        assert abs(a - b) < 1e-12 * a
        got = B.annulus_lp_bound(n, lam, B.Region("interior", j), pc)
        assert abs(got - a) < 1e-12 * a

    def test_annulus_index_range_enforced(self):
        with pytest.raises(ValueError):
            B.annulus_lp_bound(2, 10.0, B.Region("interior", 9), 2.0)


class TestMaxTable:
    @staticmethod
    def _brute(n, lam, r, p, m=2500):
        mus = np.geomspace(lam ** (-4 / 3), 1.0, m)
        return max(B.lambda_lp_at_mu(n, lam, r, float(mm), p).log_value
                   for mm in mus)

    @pytest.mark.parametrize("n,p", [(2, 2.0), (2, 3.0), (2, 4.0), (2, 9.0),
                                     (2, math.inf), (3, 2.5), (3, 3.5),
                                     (3, 8.0), (3, 12.0), (3, math.inf),
                                     (5, 2.2), (5, 20.0)])
    def test_matches_brute_force_over_mu(self, n, p):
        lam = 300.0
        for r in (0.5 / lam, 3.0 / lam, 0.5 * lam ** (-1 / 3),
                  2.0 * lam ** (-1 / 3), 1.0, 0.04 * lam, 0.6 * lam):
            got = B.max_local_bound(n, lam, r, p)
            brute = self._brute(n, lam, r, p)
            rel = got.log_value - brute
            # table is the exact sup; grid undershoots by its resolution
            assert -1e-3 < rel < 0.02, (r, got.branch, rel)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_r_seams_continuous(self, n):
        for p in [2.0, 3.0, B.rho_kink(n), 6.0, math.inf]:
            if p > B.thangavelu_kink(n):
                continue
            for lam in (100.0, 4000.0):
                for rs in (1.0 / lam, lam ** (-1 / 3)):
                    lo = B.max_local_bound(n, lam, rs * (1 - 1e-12), p).log_value
                    hi = B.max_local_bound(n, lam, rs * (1 + 1e-12), p).log_value
                    assert abs(lo - hi) < 1e-9 * max(1.0, abs(lo))

    def test_one_dimension_rejected(self):
        with pytest.raises(ValueError):
            B.max_local_bound(1, 100.0, 1.0, 4.0)

    def test_branch_labels_cover_cells(self):
        lam = 300.0
        seen = {B.max_local_bound(2, lam, r, p).branch
                for r in (0.1 / lam, 0.01, 1.0, 10.0)
                for p in (2.5, 4.0)}
        assert "max:origin" in seen
        assert "max:cap" in seen
        assert "max:boundary-touch" in seen
        assert B.max_local_bound(3, 300.0, 1.0, 12.0).branch == "max:origin-top"
