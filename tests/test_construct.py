import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlp import construct as ct
from hermlp.bounds import TubeSpec, classify_region, lambda_lp, saturate_cell
from hermlp.config import parse_config
from hermlp.hermite import hermite_batch, phase_action
from hermlp.runner import run


def case2_report(level):
    # first-annulus tube whose width matches a unit ball at p-kink scale
    lam = math.sqrt(2 * level + 2)
    delta = (lam * math.sqrt(0.75)) ** -0.5
    return ct.build_concentrated(2, level, 0, delta)


def saturation_ratio(rep, nu, r, p):
    # a saturate tube row's ratio: the local p-norm over B(nu, r) per unit
    # L2 mass, divided by the local bound at the ball's distance parameters
    e = rep.eigenfunction
    measured = ct.ball_lp_norm(e, nu, r, p, rep.tube.half_width)
    bound = lambda_lp(e.dim, rep.tube.lam, r, math.hypot(*nu), p)
    return (measured / e.global_l2_norm()) / bound.value


class TestIndexSet:
    def test_window_example(self):
        got = ct.index_set(2, 100, 1 / 3)
        assert got == [(100 - a2, a2) for a2 in range(6, 19, 2)]
        assert len(got) == 7

    def test_cardinality_scaling_two_dim(self):
        got = ct.index_set(2, 800, 0.1)
        assert len(got) == 76
        assert 100 / 4 <= len(got) <= 100 * 4

    def test_cardinality_scaling_three_dim(self):
        got = ct.index_set(3, 400, 0.25)
        assert len(got) == 169
        target = 0.25**-4
        assert target / 4 <= len(got) <= target * 4

    def test_one_dim_is_single_index(self):
        assert ct.index_set(1, 57, 0.3) == [(57,)]
        assert ct.index_set(1, 0, 0.01) == [(0,)]

    def test_remainder_must_stay_nonnegative(self):
        got = ct.index_set(2, 10, 0.25)
        assert got == [(2, 8), (0, 10)]
        assert ct.index_set(2, 6, 0.25) == []

    def test_empty_window_reported_not_raised(self):
        # window [0.41, 1.65] holds no even integer
        assert ct.index_set(2, 100, 1.1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ct.index_set(0, 10, 0.5)
        with pytest.raises(ValueError):
            ct.index_set(2, -1, 0.5)
        with pytest.raises(ValueError):
            ct.index_set(2, 10, 0.0)

    @given(
        n=st.integers(2, 4),
        level=st.integers(0, 3000),
        delta=st.floats(0.08, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_postconditions(self, n, level, delta):
        got = ct.index_set(n, level, delta)
        lo = delta**-2 / ct.DEFAULT_WINDOW
        hi = ct.DEFAULT_WINDOW * delta**-2
        for alpha in got:
            assert len(alpha) == n
            assert sum(alpha) == level
            assert alpha[0] >= 0
            for ak in alpha[1:]:
                assert ak % 2 == 0
                assert lo - 2 <= ak <= hi + 2
        assert len(set(got)) == len(got)


class TestPhaseBin:
    def test_singleton(self):
        sel = ct.phase_bin([(57,)], x1_star=8.0)
        assert sel.selected == ((57,),)
        assert sel.fraction == 1.0

    def test_pigeonhole_exact(self):
        indices = ct.index_set(2, 800, 0.1)
        lam = math.sqrt(1602)
        sel = ct.phase_bin(indices, lam / 2)
        assert sum(len(b) for b in sel.bins) == len(indices)
        assert len(sel.selected) >= math.ceil(len(indices) / 8)
        assert sel.fraction >= 1 / 8

    def test_within_bin_phase_spread(self):
        indices = ct.index_set(2, 800, 0.1)
        lam = math.sqrt(1602)
        sel = ct.phase_bin(indices, lam / 2)
        phases = [
            ct.first_axis_action(a[0], lam / 2) % (2 * math.pi)
            for a in sel.selected
        ]
        assert max(phases) - min(phases) <= 2 * math.pi / 8

    def test_parity_filter_keeps_larger_class(self):
        mixed = [(4, 2), (6, 0), (3, 3)]
        sel = ct.phase_bin(mixed, x1_star=1.5)
        kept = [a for b in sel.bins for a in b]
        assert sorted(kept) == [(4, 2), (6, 0)]

    def test_beyond_turning_point_is_handled(self):
        # orders whose classical region ends left of the center
        sel = ct.phase_bin([(2, 10), (4, 8)], x1_star=9.0)
        assert sum(len(b) for b in sel.bins) == 2

    def test_deterministic(self):
        indices = ct.index_set(2, 400, 0.15)
        lam = math.sqrt(802)
        a = ct.phase_bin(indices, lam / 2)
        b = ct.phase_bin(indices, lam / 2)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ct.phase_bin([(4, 2)], 1.0, m_bins=3)
        with pytest.raises(ValueError):
            ct.phase_bin([], 1.0)
        with pytest.raises(ValueError):
            ct.phase_bin([(4, 2)], -1.0)


class TestTubeSpec:
    def test_center_placement(self):
        spec = TubeSpec.from_level(2, 800, 2, 0.3)
        assert spec.lam == pytest.approx(math.sqrt(1602), rel=1e-15)
        assert spec.x1_star == pytest.approx(spec.lam * (1 - 2**-4), rel=1e-15)
        at0 = TubeSpec.from_level(2, 800, 0, 0.3)
        assert at0.x1_star == pytest.approx(at0.lam / 4, rel=1e-15)

    def test_geometry(self):
        spec = TubeSpec.from_level(2, 800, 2, 0.3)
        assert spec.half_length == pytest.approx(
            0.125 * spec.lam * 0.25 * 0.09, rel=1e-12
        )
        assert spec.half_width == pytest.approx(0.125 * 0.3, rel=1e-15)

    def test_tube_sits_in_its_annulus(self):
        for n, level, j, delta in [(2, 800, 2, 0.3), (2, 800, 0, 0.2),
                                   (3, 1200, 1, 0.4)]:
            spec = TubeSpec.from_level(n, level, j, delta)
            for sx in (-1.0, 1.0):
                x1 = spec.x1_star + sx * spec.half_length
                radius = math.hypot(x1, *([spec.half_width] * (n - 1)))
                region = classify_region(spec.lam, radius)
                assert region.kind == "interior"
                assert region.j == j

    def test_feasibility_window(self):
        lam = math.sqrt(1602)
        with pytest.raises(ValueError):
            TubeSpec(j=6, delta=0.1, x1_star=lam / 2, lam=lam)
        with pytest.raises(ValueError):
            TubeSpec(j=1, delta=0.9, x1_star=lam / 2, lam=lam)  # > 2^{-1/2}
        with pytest.raises(ValueError):
            TubeSpec(j=1, delta=0.01, x1_star=lam / 2, lam=lam)  # < 2/lam
        with pytest.raises(ValueError):
            TubeSpec(j=1, delta=0.3, x1_star=lam * 1.1, lam=lam)
        TubeSpec(j=1, delta=2**-0.5, x1_star=lam / 2, lam=lam)  # edge ok

    def test_grid_shape(self):
        spec = TubeSpec.from_level(2, 800, 1, 0.3)
        assert [len(a) for a in ct.tube_axes(spec, 2)] == [41, 21]
        assert [len(a) for a in ct.tube_axes(spec, 3)] == [41, 21, 21]
        assert [len(a) for a in ct.tube_axes(spec, 1)] == [41]


class TestBuildConcentrated:
    def test_one_dim_single_mode(self):
        rep = ct.build_concentrated(1, 800, 1, 2**-0.5)
        e = rep.eigenfunction
        assert e.indices == ((800,),)
        assert e.coefficients == (1.0,)
        assert rep.bin_fraction == 1.0
        assert rep.target_amplitude == pytest.approx(
            rep.tube.lam**-0.5 * 2**0.5, rel=1e-12
        )
        ratio = ct.median_amplitude(rep) / rep.target_amplitude
        assert 0.1 <= ratio <= 10.0

    def test_two_dim_report(self):
        rep = case2_report(800)
        e = rep.eigenfunction
        assert len(e.indices) == 5
        assert all(c == 1.0 for c in e.coefficients)
        assert e.global_l2_norm() == math.sqrt(len(e.indices))
        assert rep.bin_fraction >= 1 / 8
        ratio = ct.median_amplitude(rep) / rep.target_amplitude
        assert 0.1 <= ratio <= 10.0

    def test_amplitude_ratio_stable_across_levels(self):
        ratios = [
            ct.median_amplitude(r) / r.target_amplitude
            for r in (case2_report(200), case2_report(800))
        ]
        assert ratios[0] == pytest.approx(0.1455, abs=2e-3)
        assert ratios[1] == pytest.approx(0.1464, abs=2e-3)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty index window"):
            ct.build_concentrated(2, 50, 0, 1 / math.sqrt(102))

    def test_all_evanescent_raises(self):
        # window forces the first-axis order below the tube center energy
        with pytest.raises(ValueError, match="oscillates"):
            ct.build_concentrated(2, 200, 0, 380**-0.5)


class TestCoherenceInvariants:
    def test_pairwise_phase_drift_across_tube(self):
        rep = case2_report(800)
        tube = rep.tube
        xs = np.linspace(tube.x1_star - tube.half_length,
                         tube.x1_star + tube.half_length, 33)
        orders = [a[0] for a in rep.eigenfunction.indices]
        for a1, b1 in itertools.combinations(orders, 2):
            ua, ub = math.sqrt(2 * a1 + 1), math.sqrt(2 * b1 + 1)
            diff = [phase_action(x, ua) - phase_action(x, ub) for x in xs]
            assert max(diff) - min(diff) <= math.pi / 2

    def test_transverse_factor_amplitude_band(self):
        # orders in the window have |h| ~ sqrt(delta) near the axis
        delta = 0.1
        window = range(50, 201, 10)
        xs = np.linspace(-delta / 4, delta / 4, 9)
        vals = np.abs(hermite_batch(window, xs)).ravel()
        med = float(np.median(vals))
        assert math.sqrt(delta) / 5 <= med <= 5 * math.sqrt(delta)


class TestSaturationRatio:
    def test_whole_space_bounded_by_one(self):
        rep = ct.build_concentrated(1, 60, 1, 2**-0.5)
        ratio = saturation_ratio(rep, (0.0,), rep.tube.lam, 2.0)
        assert 0.9 <= ratio <= 1.0

    def test_case_two_frozen_values(self):
        lam200 = math.sqrt(402)
        r200 = saturation_ratio(case2_report(200), (lam200 / 4, 0.0), 1.0, 2.0)
        assert r200 == pytest.approx(0.3103, abs=3e-3)
        lam800 = math.sqrt(1602)
        r800 = saturation_ratio(case2_report(800), (lam800 / 4, 0.0), 1.0, 2.0)
        assert r800 == pytest.approx(0.2675, abs=3e-3)

    def test_case_three_flat_in_level(self):
        ratios = []
        for level in (800, 1600):
            lam = math.sqrt(2 * level + 1)
            rep = ct.build_concentrated(1, level, 1, 2**-0.5)
            ratios.append(saturation_ratio(rep, (lam * 0.75,), lam / 4, 2.0))
        assert ratios[0] == pytest.approx(0.8078, abs=3e-3)
        assert ratios[1] == pytest.approx(0.8094, abs=3e-3)
        assert abs(math.log(ratios[1] / ratios[0])) < 0.05

    def test_upper_bound_side(self):
        ceiling = parse_config({"experiment": "saturate"}).parameters[
            "upper_bound"]
        rep = case2_report(800)
        xc = rep.tube.x1_star
        for nu, r, p in [((xc, 0.0), 0.5, 2.0), ((xc, 0.0), 1.0, 4.0),
                         ((xc, 0.0), 1.0, math.inf)]:
            ratio = saturation_ratio(rep, nu, r, p)
            assert 0.0 < ratio <= ceiling

    def test_center_dimension_checked(self):
        rep = case2_report(200)
        with pytest.raises(ValueError, match="expected 2 axes, got 3"):
            saturation_ratio(rep, (1.0, 2.0, 3.0), 1.0, 2.0)

    @pytest.mark.parametrize("case", [
        pytest.param({"kind": "case2", "n": 2, "levels": [200]}, id="case2"),
        pytest.param({"kind": "case3", "levels": [400]}, id="case3")])
    def test_saturate_row_is_the_oracle(self, tmp_path, case):
        # a saturate tube row's ratio and Lambda cells are the oracle's bits
        cfg = parse_config({"experiment": "saturate",
                            "parameters": {"cases": [case]}})
        with open(run(cfg, out_dir=tmp_path).csv_path, newline="",
                  encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        case = cfg.parameters["cases"][0]
        tube, nu, r = saturate_cell(case, case["levels"][0])
        rep = ct.build_concentrated(len(nu), case["levels"][0], tube.j,
                                    tube.delta)
        bound = lambda_lp(len(nu), rep.tube.lam, r, math.hypot(*nu),
                          case["p"]).value
        assert row["status"] == "ok"
        assert row["ratio"] == repr(saturation_ratio(rep, nu, r, case["p"]))
        assert row["Lambda"] == repr(bound)
