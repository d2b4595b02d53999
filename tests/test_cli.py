"""Config schema, runner artifacts, plot emission, CLI exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hermlp
from hermlp import (bounds, cli, construct, hermite, mehler, phase, runner,
                    spectral, stationary)
from hermlp.config import ConfigError, load_config, parse_config
from hermlp.runner import SATURATE_HEADER, _Ctx, emit_plot_data, run


def violations_of(data):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    return err.value.violations


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def by_name(result):
    return {a.name: a for a in result.assertions}


class TestConfigSchema:
    def test_defaults_fill_in(self):
        cfg = parse_config({"experiment": "eval"})
        assert cfg.seed == 0 and cfg.threads == 1
        assert cfg.tolerance_scale == 1.0 and cfg.out is None
        assert cfg.parameters == {
            "k_max_ortho": 200, "k_max_eigen": 500, "eigen_samples": 6,
            "quad_points": 256, "tol_ortho": 1e-8, "tol_eigen": 1e-6}

    def test_every_violation_collected(self):
        got = violations_of({
            "experiment": "eval", "seed": -1, "extra": True,
            "parameters": {"k_max_ortho": 300, "quad_points": 100,
                           "bogus": 1}})
        assert sorted(got) == [
            "extra: unknown entry",
            "parameters.bogus: unknown entry",
            "parameters.k_max_ortho: must be <= 240 (got 300)",
            "seed: must be >= 0 (got -1)",
        ]

    def test_quad_points_must_exceed_ortho_degree(self):
        (msg,) = violations_of({"experiment": "eval", "parameters": {
            "k_max_ortho": 100, "quad_points": 64}})
        assert msg == ("parameters.quad_points: must exceed k_max_ortho=100"
                       " for exact pair integrals")

    @pytest.mark.parametrize("threads,ok", [(1, True), (256, True),
                                            (0, False), (257, False)])
    def test_threads_key_is_validated(self, threads, ok):
        data = {"experiment": "eval", "threads": threads}
        if ok:
            assert parse_config(data).threads == threads
        else:
            (msg,) = violations_of(data)
            assert msg.startswith("threads: must be")

    def test_bool_is_not_an_integer(self):
        (msg,) = violations_of({"experiment": "eval", "parameters": {
            "k_max_eigen": True}})
        assert "must be an integer (got True)" in msg

    def test_unknown_experiment(self):
        (msg,) = violations_of({"experiment": "evall"})
        assert msg.startswith("experiment: must be one of")

    def test_experiment_required(self):
        (msg,) = violations_of({})
        assert msg == "experiment: missing required entry"

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError) as err:
            parse_config([1, 2], source="inline")
        assert err.value.violations == ("inline: top level must be a mapping",)

    def test_kernel_spectrum_parity(self):
        (msg,) = violations_of({"experiment": "kernel-compare",
                                "parameters": {"r_values": [22]}})
        assert "must be 2*level + 1 for dimension 1 (got 22)" in msg
        assert msg.startswith("parameters.r_values: [0]:")

    def test_separation_cannot_exceed_box_diameter(self):
        (msg,) = violations_of({"experiment": "kernel-compare",
                                "parameters": {"min_separation": 2.0}})
        assert msg == ("parameters.min_separation: cannot exceed the box"
                       " diameter 1.8")

    def test_consistency_slope_needs_two_radii(self):
        # the kernel-consistency slope is fitted to one row per radius
        (msg,) = violations_of({"experiment": "sphase-check", "parameters": {
            "consistency_r_values": [101]}})
        assert msg == ("parameters.consistency_r_values: needs at least 2"
                       " entries (got 1)")

    def test_cubic_term_must_not_degenerate_phase(self):
        (msg,) = violations_of({"experiment": "sphase-check", "parameters": {
            "cubic_coefficient": 0.3, "bump_half_width": 0.8}})
        assert "need 6*|c|*width < 1" in msg

    @pytest.mark.parametrize("experiment, params, violation", [
        ("sphase-check", {"orders": [1, 1]},
         "parameters.orders: [1]: repeats [0] (got 1)"),
        ("phase-identities", {"dims": [2, 3, 2]},
         "parameters.dims: [2]: repeats [0] (got 2)"),
        ("kernel-compare", {"mode": "bound-check", "mu_values": [0.2, 0.2]},
         "parameters.mu_values: [1]: repeats [0] (got 0.2)")])
    def test_repeated_entries_refused(self, experiment, params, violation):
        # each entry names an assertion and a metric; a repeat would give
        # summary.json two assertions of one name and overwrite the metric
        got = violations_of({"experiment": experiment, "parameters": params})
        assert got == (violation,)

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_choice_wants_the_option_type(self, order):
        (msg,) = violations_of({"experiment": "sphase-check",
                                "parameters": {"orders": [order]}})
        assert msg == ("parameters.orders: [0]: must be one of 1, 2 "
                       f"(got {order!r})")

    def test_bounds_radius_and_mu_floors(self):
        got = violations_of({"experiment": "bounds-table", "parameters": {
            "lambda_values": [1000.0], "r_values": [2000.0],
            "mu_values": [1e-5]}})
        assert any("exceeds the smallest eigenvalue 1000.0" in m for m in got)
        assert any("below the mu floor" in m for m in got)

    def test_max_table_needs_n_at_least_2(self):
        got = violations_of({"experiment": "bounds-table", "parameters": {
            "n_values": [2, 1], "lambda_values": [1000.0]}})
        assert got == ("parameters.n_values[1]: the max table is stated for "
                       "n >= 2 (got 1); set include_max_table to false",)

    def test_infinite_p_spelled_as_string(self):
        cfg = parse_config({"experiment": "bounds-table", "parameters": {
            "p_values": [2, "inf"]}})
        assert cfg.parameters["p_values"] == [2.0, math.inf]
        echoed = cfg.echo()["parameters"]["p_values"]
        assert echoed == [2.0, "inf"]
        json.dumps(cfg.echo())

    def test_tube_window_checked_per_level(self):
        (msg,) = violations_of({"experiment": "construct", "parameters": {
            "levels": [5], "delta": {"type": "fixed", "value": 0.1}}})
        assert msg.startswith("parameters.levels[0]: delta=0.1 outside the"
                              " admissible window")

    def test_empty_annulus_checked_per_level(self):
        # lambda = sqrt(12) puts lambda**(2/3) under 2**3
        (msg,) = violations_of({"experiment": "construct", "parameters": {
            "levels": [5, 400], "j": 3,
            "delta": {"type": "fixed", "value": 0.3}}})
        assert msg == ("parameters.levels[0]: 2**j = 8 exceeds lam**(2/3) = "
                       "2.28943; the annulus is empty at level 5")

    def test_delta_rule_shapes(self):
        bad = [{"type": "fixed"}, {"type": "case2", "r": 1.0, "x": 1},
               {"type": "other"}, 0.3]
        for rule in bad:
            got = violations_of({"experiment": "construct", "parameters": {
                "levels": [100], "delta": rule}})
            assert any(m.startswith("parameters.delta:") for m in got)

    def test_saturate_case_schema(self):
        got = violations_of({"experiment": "saturate", "parameters": {
            "cases": [{"levels": [100]},
                      {"kind": "case3", "n": 2, "levels": [100]},
                      {"kind": "case2", "levels": [3], "r": 10.0},
                      {"kind": "sideways", "levels": [100]},
                      {"kind": "case3", "n": 2, "k": 3, "levels": [1]}]}})
        assert any(m == "parameters.cases[0].kind: missing required entry"
                   for m in got)
        assert any("cases[1].n: must be one of 1" in m for m in got)
        assert any("exceeds the eigenvalue" in m for m in got)
        assert any("cases[3].kind: must be one of" in m for m in got)
        # a bad n does not hide the infeasible tube of a case3 level
        assert got[-2:] == (
            "parameters.cases[4].n: must be one of 1 (got 2)",
            "parameters.cases[4].levels[0]: 2**j = 8 exceeds lam**(2/3) = "
            "1.44225; the annulus is empty at level 1")

    def test_saturate_case2_delta_rule_feasibility(self):
        # r chosen so the induced tube width leaves the admissible window
        got = violations_of({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "case2", "levels": [200], "r": 0.001}]}})
        assert any("outside the admissible window" in m for m in got)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{bad", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        (msg,) = err.value.violations
        assert f"{path}:1:2:" in msg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "absent.json")
        assert "absent.json" in err.value.violations[0]

    def test_load_config_roundtrip(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "construct", "seed": 3,
                                     "parameters": {"levels": [100, 200]}})
        cfg = load_config(path)
        assert cfg.experiment == "construct" and cfg.seed == 3
        assert cfg.parameters["levels"] == [100, 200]
        assert cfg.parameters["delta"] == {"type": "case2", "r": 1.0}
        # an override replaces its entry; None leaves the file's value
        cfg = load_config(path, {"seed": 5, "tolerance_scale": None})
        assert cfg.seed == 5 and cfg.tolerance_scale == 1.0

    def test_config_imports_no_numpy(self):
        # perfbench/child.py imports config before runner, and a process
        # that loads numpy earlier peaks higher on the same work, which
        # would move sweep-tube's peak_rss_mb.  So importing config, and
        # parsing every config without consistency radii (the seed-0
        # sweeps among them), loads no numpy; only radii import mehler.
        repo = Path(hermlp.__file__).resolve().parents[2]
        code = "\n".join([
            "import sys, hermlp.config as c, workloads as w",
            "for name in ('sweep-random', 'sweep-tube'):",
            "    for data in w.configs(name, 0):",
            "        c.parse_config(data)",
            "c.parse_config({'experiment': 'sphase-check'})",
            "print('numpy' in sys.modules)"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(repo / "src"), str(repo / "perfbench")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


EVAL_SMALL = {"experiment": "eval", "parameters": {
    "k_max_ortho": 40, "k_max_eigen": 80, "quad_points": 64,
    "eigen_samples": 4}}

SPHASE_CONSISTENCY = {"experiment": "sphase-check", "parameters": {
    "lambda_values": [100.0, 215.443469003188],
    "consistency_r_values": [101, 201, 401]}}

# One small config per experiment, kernel-compare in both modes, and a
# library call made inside one of its cells.  eval, sphase-check and
# bounds-table have no cells of their own: the experiment is its one cell.
# kernel-cross computes every cell's quadrature before its cells, keeping
# each case's failure for its cell to raise: a phase call that every
# case's descent makes fails them all.
CONTAINED = {
    "eval": (EVAL_SMALL, hermite, "hermite_on_grids"),
    "kernel-cross": ({"experiment": "kernel-compare", "parameters": {
        "r_values": [21], "pair_count": 3}}, phase, "stationary_points_in"),
    "kernel-bound": ({"experiment": "kernel-compare", "parameters": {
        "mode": "bound-check", "r_values": [102, 202], "mu_values": [0.2],
        "sample_count": 4}}, mehler, "kernel_bound_check"),
    "sphase-check": (SPHASE_CONSISTENCY, stationary, "expand_from_series"),
    "phase-identities": ({"experiment": "phase-identities", "parameters": {
        "sample_count": 400, "dims": [2, 3], "hessian_samples": 4}},
        phase, "mixed_hessian"),
    "bounds-table": ({"experiment": "bounds-table"}, bounds,
                     "max_local_bound"),
    "construct": ({"experiment": "construct", "parameters": {
        "levels": [100, 200]}}, construct, "build_concentrated"),
    "saturate": ({"experiment": "saturate", "parameters": {
        "cases": [{"kind": "case2", "levels": [100, 200]},
                  {"kind": "random", "levels": [50], "per_level": 2}]}},
        bounds, "saturate_cell"),
}

# An experiment whose last stage fails: the library call patched to raise
# (None: the config alone fails), a config that makes the same earlier rows
# and then succeeds, the check column of those rows, the assertions made
# before the failure, and the error that fails it.
SPHASE_SMALL = {"experiment": "sphase-check", "parameters": {
    "lambda_values": [100.0, 215.443469003188]}}
# A consistency radius whose top Mehler level fits the panel cap, so the
# config takes it, but whose fourth level needs 214130 panels (cap 200000)
DEEP_CAP_R = 1000001
EVAL_TINY = {"experiment": "eval", "parameters": {
    "k_max_ortho": 20, "k_max_eigen": 40, "quad_points": 64,
    "eigen_samples": 4}}
LATE_FAILURES = {
    "eval": (EVAL_TINY, (hermite, "hermite_on_grids"), EVAL_TINY,
             ["orthonormality"] * 21, ["orthonormality-deviation"],
             "RuntimeError: boom"),
    "sphase-check": (
        {"experiment": "sphase-check", "parameters": {
            **SPHASE_SMALL["parameters"],
            "consistency_r_values": [101, DEEP_CAP_R]}},
        None, {"experiment": "sphase-check", "parameters": {
            **SPHASE_SMALL["parameters"], "consistency_r_values": [101, 201]}},
        ["remainder"] * 4 + ["gaussian-exactness"] * 2
        + ["kernel-consistency"],
        ["remainder-slope-m1", "remainder-slope-m2", "gaussian-exactness"],
        "TailConvergenceError: "),
    "bounds-table": (
        {"experiment": "bounds-table"}, (runner, "_bounds_identities"),
        {"experiment": "bounds-table"}, (["at-mu"] * 4 + ["max"]) * 20, [],
        "RuntimeError: boom"),
}

SATURATE_MINI = {"experiment": "saturate", "parameters": {
    "slope_limit": 0.25,
    "cases": [{"kind": "case2", "levels": [200, 400]},
              {"kind": "case3", "levels": [800]},
              {"kind": "random", "levels": [200], "per_level": 2}]}}


@pytest.fixture(scope="module")
def mini_saturate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("satmini")
    return run(parse_config(SATURATE_MINI), out_dir=out), out


class TestRunnerArtifacts:
    def test_eval_small(self, tmp_path):
        res = run(parse_config(EVAL_SMALL), out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["orthonormality-deviation"].observed == pytest.approx(
            2.8483684022638723e-15, rel=1e-6)
        assert a["eigen-equation-residual"].observed == pytest.approx(
            5.631491154316832e-10, rel=1e-6)
        header, rows = read_csv(res.csv_path)
        assert header == ("check", "k", "value", "status")
        assert len(rows) == 41 + 81
        assert all(row[-1] == "ok" for row in rows)

    def test_eval_runs_one_recurrence_per_check(self, monkeypatch, tmp_path):
        stops = []
        tables = hermite._tables

        def counted(requests):
            stops.append(sorted(max(orders) for orders, _ in requests))
            return tables(requests)

        monkeypatch.setattr(hermite, "_tables", counted)
        res = run(parse_config(EVAL_SMALL), out_dir=tmp_path)
        assert res.exit_code == 0
        # the orthonormality table to order 40, then one recurrence over
        # the eigen-equation stencils of orders 0..80, each its own grid
        assert stops == [[40], list(range(81))]

    def test_phase_identities_small(self, tmp_path):
        cfg = parse_config({"experiment": "phase-identities", "parameters": {
            "sample_count": 400, "dims": [2], "hessian_samples": 6}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["derivative-factorization-n2"].observed == pytest.approx(
            4.167345779246863e-15, rel=1e-6)
        assert a["mixed-hessian-fd-n2"].observed == pytest.approx(
            6.715355216293226e-07, rel=1e-6)

    def test_stationary_small(self, tmp_path):
        cfg = parse_config({"experiment": "sphase-check", "parameters": {
            "lambda_values": [100.0, 1000.0, 10000.0], "orders": [1]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["remainder-slope-m1"].observed == pytest.approx(
            -1.6281548213314583, rel=1e-6)
        assert a["gaussian-exactness"].observed < 1e-12

    def test_stationary_kernel_consistency(self, tmp_path):
        cfg = parse_config({"experiment": "sphase-check", "parameters": {
            "lambda_values": [100.0, 215.443469003188],
            "consistency_r_values": [101, 201]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        _, rows = read_csv(res.csv_path)
        consistency = [row for row in rows if row[0] == "kernel-consistency"]
        assert [(row[1], row[2]) for row in consistency] == [
            ("0", "101.0"), ("0", "201.0")]
        assert float(consistency[0][3]) > float(consistency[1][3]) > 0.0
        slope = res.summary["metrics"]["kernel_consistency_slope"]
        gate = by_name(res)["kernel-consistency-slope"]
        assert gate.passed and gate.observed == slope
        assert slope <= -0.4

    def test_kernel_cross_small(self, tmp_path):
        cfg = parse_config({"experiment": "kernel-compare", "parameters": {
            "mode": "cross-validate", "r_values": [21], "pair_count": 8}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["cross-validation-relative-error"].observed == pytest.approx(
            1.1359343525936713e-10, rel=1e-3)
        assert a["cross-validation-imag-residual"].observed == 0.0
        header, rows = read_csv(res.csv_path)
        assert len(rows) == 8 and header[0] == "r"

    def test_kernel_cross_pair_failure_stays_in_its_cell(self, tmp_path,
                                                         monkeypatch):
        # one window integral of the second cell needs 1559 panels on a
        # level; every other cell's need at most 1538
        data = {"experiment": "kernel-compare", "parameters": {
            "r_values": [21, 41, 81], "pair_count": 2}}
        clean = run(parse_config(data), out_dir=tmp_path / "clean")
        monkeypatch.setattr(mehler, "_PANEL_CAP", 1550)
        res = run(parse_config(data), out_dir=tmp_path / "capped")
        assert clean.exit_code == 0 and res.exit_code == 3
        _, want = read_csv(clean.csv_path)
        _, rows = read_csv(res.csv_path)
        assert len(rows) == len(want) == 6
        assert rows[:1] + rows[2:] == want[:1] + want[2:]
        assert set(rows[1][:-1]) == {""}
        assert rows[1][-1].startswith("error: TailConvergenceError: level [")
        assert rows[1][-1].endswith("needs 1559 panels (cap 1550)")
        (failure,) = res.summary["computational_failures"]
        assert failure["cell"] == str((21, float(want[1][1]),
                                       float(want[1][2])))

    def test_kernel_cross_eigenbasis_failure_stays_in_its_cells(
            self, tmp_path, monkeypatch):
        # the eigenbasis sums at r = 41 fail: its two cells leave error
        # rows, the cells at 21 and 81 theirs as in a clean run
        data = {"experiment": "kernel-compare", "parameters": {
            "r_values": [21, 41, 81], "pair_count": 2}}
        clean = run(parse_config(data), out_dir=tmp_path / "clean")
        sums = spectral.projection_kernel_sums

        def failing(level, dim, x, y):
            if level == 20:
                raise RuntimeError("no table")
            return sums(level, dim, x, y)

        monkeypatch.setattr(spectral, "projection_kernel_sums", failing)
        res = run(parse_config(data), out_dir=tmp_path / "failing")
        assert clean.exit_code == 0 and res.exit_code == 3
        _, want = read_csv(clean.csv_path)
        _, rows = read_csv(res.csv_path)
        assert rows[:2] + rows[4:] == want[:2] + want[4:]
        assert [row[-1] for row in rows[2:4]] == \
            ["error: RuntimeError: no table"] * 2
        assert len(res.summary["computational_failures"]) == 2

    def test_kernel_cross_seed_changes_pairs(self, tmp_path):
        data = {"experiment": "kernel-compare", "parameters": {
            "mode": "cross-validate", "r_values": [21], "pair_count": 4}}
        r0 = run(parse_config(data), out_dir=tmp_path / "s0")
        r1 = run(parse_config(dict(data, seed=1)), out_dir=tmp_path / "s1")
        _, rows0 = read_csv(r0.csv_path)
        _, rows1 = read_csv(r1.csv_path)
        assert rows0[0][1] != rows1[0][1]

    def test_kernel_bound_small(self, tmp_path):
        cfg = parse_config({"experiment": "kernel-compare", "parameters": {
            "mode": "bound-check", "r_values": [102, 202],
            "mu_values": [0.2], "sample_count": 4}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["bound-check-max-ratio"].observed == pytest.approx(
            0.14906968007504043, rel=1e-6)
        assert res.summary["metrics"]["slope_mu_0.2"] == pytest.approx(
            0.015294794888297908, rel=1e-6)

    def test_construct_small(self, tmp_path):
        cfg = parse_config({"experiment": "construct",
                            "parameters": {"levels": [200]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        a = by_name(res)
        assert a["bin-fraction-pigeonhole"].observed == pytest.approx(2 / 13)
        assert a["amplitude-ratio-low"].observed == pytest.approx(
            0.14546427969267417, rel=1e-6)
        header, rows = read_csv(res.csv_path)
        assert header[:5] == ("n", "N", "lambda", "j", "delta")
        assert int(rows[0][5]) > 0

    def test_saturate_mini_rows(self, mini_saturate_run):
        res, _ = mini_saturate_run
        assert res.exit_code == 0
        header, rows = read_csv(res.csv_path)
        assert header == SATURATE_HEADER
        # row order follows the case grid, not completion order
        assert [r[0] for r in rows] == ["case2", "case2", "case3",
                                        "random-0", "random-1"]
        ratios = [float(r[11]) for r in rows]
        assert ratios[0] == pytest.approx(0.31030489266735456, rel=1e-12)
        assert ratios[1] == pytest.approx(0.2906260712280244, rel=1e-12)
        assert ratios[2] == pytest.approx(0.8077858589134591, rel=1e-12)
        assert rows[0][6] == "5.0124844139408555;0.0"

    def test_saturate_mini_assertions(self, mini_saturate_run):
        res, _ = mini_saturate_run
        a = by_name(res)
        assert a["band-ratio-case2-0"].observed == pytest.approx(
            1.067711824187618, rel=1e-9)
        assert a["trend-slope-case2-0"].observed == pytest.approx(
            0.1897263683537062, rel=1e-9)
        assert a["upper-bound"].limit == 4.0
        met = res.summary["metrics"]
        assert met["c_upper"] == 4.0
        assert met["sweep_median"] == pytest.approx(0.31030489266735456)

    def test_byte_determinism_across_runs_and_threads(self, tmp_path):
        data = {"experiment": "saturate", "seed": 7,
                "parameters": {"cases": [{
                    "kind": "random", "levels": [50], "per_level": 3}]}}
        cfg = parse_config(data)
        # "threads" is accepted and must change no byte
        threaded = parse_config(dict(data, threads=4))
        digests = []
        for name, c in (("a", cfg), ("b", cfg), ("c", threaded)):
            res = run(c, out_dir=tmp_path / name)
            body = Path(res.csv_path).read_bytes()
            summary = Path(res.summary_path).read_bytes()
            digests.append((hashlib.sha256(body).hexdigest(),
                            hashlib.sha256(summary).hexdigest()))
        assert digests[0] == digests[1] == digests[2]

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config({"experiment": "bounds-table"})
        res = run(cfg, out_dir=tmp_path)
        manifest = json.loads(Path(res.manifest_path).read_text())
        assert manifest["config"]["experiment"] == "bounds-table"
        assert manifest["config"]["parameters"]["p_values"][-1] == "inf"
        assert "numpy" in manifest["versions"]
        assert manifest["timing"]["duration_seconds"] >= 0.0

    def test_manifest_records_running_code_version(self, tmp_path):
        # The manifest names the version of the code that ran without
        # scanning installed distributions, a scan that would leave about
        # 1.7 MB resident and find nothing in a source tree.  A subprocess,
        # since pytest's own plugins import importlib.metadata.
        repo = Path(hermlp.__file__).resolve().parents[2]
        code = "\n".join([
            "import sys, hermlp",
            "from hermlp.config import parse_config",
            "from hermlp.runner import run",
            "run(parse_config({'experiment': 'bounds-table'}),",
            f"    out_dir={str(tmp_path)!r})",
            "print(hermlp.__version__)",
            "print('importlib.metadata' in sys.modules)"])
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        version, scanned = done.stdout.split()
        manifest = json.loads((tmp_path / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["versions"]["hermlp"] == version
        assert version == hermlp.__version__
        assert scanned == "False"

    def test_project_version_is_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        repo = Path(hermlp.__file__).resolve().parents[2]
        with open(repo / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == hermlp.__version__

    def test_duration_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        # a wall clock stepped back during the run gives no negative span
        steps = iter(range(10**6))
        monkeypatch.setattr(time, "time", lambda: 1e9 - next(steps))
        res = run(parse_config({"experiment": "bounds-table"}),
                  out_dir=tmp_path)
        manifest = json.loads(Path(res.manifest_path).read_text())
        assert manifest["timing"]["duration_seconds"] >= 0.0

    def test_tolerance_scale_loosens_limits(self, tmp_path):
        data = {"experiment": "bounds-table",
                "parameters": {"tol_identity": 1e-30}}
        strict = run(parse_config(data), out_dir=tmp_path / "strict")
        assert strict.exit_code == 1
        assert not by_name(strict)["envelope-seam-identities"].passed
        loose = run(parse_config(dict(data, tolerance_scale=1e20)),
                    out_dir=tmp_path / "loose")
        assert loose.exit_code == 0

    def test_out_dir_from_config(self, tmp_path):
        cfg = parse_config({"experiment": "bounds-table",
                            "out": str(tmp_path / "nested" / "dir")})
        res = run(cfg)
        assert res.csv_path == tmp_path / "nested" / "dir" / "results.csv"
        assert res.csv_path.is_file()

    def test_cell_failure_recorded_in_place(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(construct, "build_concentrated", explode)
        cfg = parse_config({"experiment": "construct",
                            "parameters": {"levels": [200, 400]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 3
        header, rows = read_csv(res.csv_path)
        assert len(rows) == 2
        for row in rows:
            assert row[-1] == "error: RuntimeError: boom"
            assert set(row[:-1]) == {""}
        failures = res.summary["computational_failures"]
        assert [f["cell"] for f in failures] == ["200", "400"]
        assert res.summary["passed"] is False

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("op, limit, scaled", [
        ("<=", 0.4, {0.5: 0.2, 1.0: 0.4, 2.0: 0.8}),
        ("<=", -0.4, {0.5: -0.8, 1.0: -0.4, 2.0: -0.2}),
        (">=", 0.4, {0.5: 0.8, 1.0: 0.4, 2.0: 0.2}),
        (">=", -0.4, {0.5: -0.2, 1.0: -0.4, 2.0: -0.8})])
    def test_check_moves_limits_to_the_passing_side(self, scale, op, limit,
                                                    scaled):
        # a scale above 1 moves every limit toward the side where the check
        # passes, whatever its sign; a scale below 1 moves it away
        ctx = _Ctx(params={}, seed=0, scale=scale)
        ctx.check("gate", limit, limit, op)
        (a,) = ctx.assertions
        assert (a.name, a.observed, a.limit, a.op) == (
            "gate", limit, scaled[scale], op)
        assert a.passed == (scale >= 1.0)

    def test_tolerance_scale_loosens_negative_ceilings(self, tmp_path):
        # the consistency slope's ceiling is negative: a large scale moves
        # it toward zero, so the run that passes at 1 passes at 1000 too
        for scale in (1.0, 1000.0):
            cfg = parse_config(dict(SPHASE_CONSISTENCY, tolerance_scale=scale))
            res = run(cfg, out_dir=tmp_path / str(scale))
            assert res.exit_code == 0
            gate = by_name(res)["kernel-consistency-slope"]
            assert gate.limit == -0.4 / scale and gate.passed
            assert by_name(res)["remainder-slope-m2"].limit == -1.7 / scale

    def test_crash_outside_cells_writes_every_artifact(self, tmp_path,
                                                       monkeypatch):
        # the second radius needs more Mehler panels than the cap allows
        # (10589 on its top level, the first radius at most 1477); the
        # failure is the experiment's, recorded after its first gates.
        # The config is parsed at the shipped cap, which it fits.
        cfg = parse_config({"experiment": "sphase-check", "parameters": {
            "lambda_values": [100.0, 215.443469003188],
            "consistency_r_values": [101, 100001]}})
        monkeypatch.setattr(mehler, "_PANEL_CAP", 2000)
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 3
        for path in (res.csv_path, res.summary_path, res.manifest_path):
            assert path.is_file()
        header, rows = read_csv(res.csv_path)
        assert header == ("check", "order", "lambda", "value", "status")
        # the rows made before the failure stay, in order, then its error;
        # the first radius's consistency row is one of them
        assert [(row[0], row[-1]) for row in rows[:-1]] == (
            [("remainder", "ok")] * 4 + [("gaussian-exactness", "ok")] * 2
            + [("kernel-consistency", "ok")])
        assert rows[-2][2] == "101.0"
        assert set(rows[-1][:-1]) == {""}
        assert rows[-1][-1].startswith("error: TailConvergenceError: ")
        (failure,) = res.summary["computational_failures"]
        assert failure["cell"] == "sphase-check"
        assert [a.name for a in res.assertions] == [
            "remainder-slope-m1", "remainder-slope-m2", "gaussian-exactness"]
        assert res.summary["row_count"] == 8

    @pytest.mark.parametrize("name", sorted(LATE_FAILURES))
    def test_rows_survive_a_late_failure(self, tmp_path, monkeypatch, name):
        data, patch, clean, checks, names, error = LATE_FAILURES[name]
        _, want = read_csv(run(parse_config(clean),
                               out_dir=tmp_path / "clean").csv_path)
        want = want[:len(checks)]
        assert [row[0] for row in want] == checks
        if patch is not None:
            def explode(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(*patch, explode)
        res = run(parse_config(data), out_dir=tmp_path / "late")
        assert res.exit_code == 3
        header, rows = read_csv(res.csv_path)
        # every row made before the failure, in order, then its one error
        assert rows[:-1] == want and all(row[-1] == "ok" for row in want)
        assert set(rows[-1][:-1]) == {""}
        assert rows[-1][-1].startswith(f"error: {error}")
        assert [f["cell"] for f in res.summary["computational_failures"]] == [
            data["experiment"]]
        assert res.summary["row_count"] == len(rows)
        assert [a.name for a in res.assertions] == names

    @pytest.mark.parametrize("where", ["in-cell", "outside"])
    @pytest.mark.parametrize("name", sorted(CONTAINED))
    def test_every_experiment_contains_crashes(self, tmp_path, monkeypatch,
                                               name, where):
        data, module, attr = CONTAINED[name]

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        if where == "in-cell":
            monkeypatch.setattr(module, attr, explode)
        else:
            # the first assertion: every experiment makes it outside its
            # cells, where no one library call is common to all of them
            monkeypatch.setattr(_Ctx, "check", explode)
        bodies = []
        for out in ("a", "b"):
            res = run(parse_config(data), out_dir=tmp_path / out)
            assert res.exit_code == 3
            for path in (res.csv_path, res.summary_path, res.manifest_path):
                assert path.is_file()
            header, rows = read_csv(res.csv_path)
            assert header[-1] == "status"
            assert all(len(row) == len(header) for row in rows)
            errors = [row for row in rows if row[-1] != "ok"]
            assert errors and all(
                row[-1] == "error: RuntimeError: boom" for row in errors)
            failures = res.summary["computational_failures"]
            assert len(failures) == len(errors)
            if where == "outside":
                assert failures[-1]["cell"] == data["experiment"]
            bodies.append((res.csv_path.read_bytes(),
                           res.summary_path.read_bytes()))
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("per_level", [1, 4])
    def test_random_level_builds_axis_tables_once(self, monkeypatch, tmp_path,
                                                  stepped_points, per_level):
        calls = []
        real = spectral.hermite_on_grids

        def counted(orders, grids):
            calls.append([len(g) for g in grids])
            return real(orders, grids)

        monkeypatch.setattr(spectral, "hermite_on_grids", counted)
        cfg = parse_config({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "random", "levels": [60],
                       "per_level": per_level}]}})
        _, rows = read_csv(run(cfg, out_dir=tmp_path).csv_path)
        # one recurrence over both axes, each stepped to order 60
        assert len(calls) == 1 and len(calls[0]) == 2
        assert stepped_points.steps == 60 * sum(calls[0])
        assert [row[0] for row in rows] == [f"random-{i}"
                                            for i in range(per_level)]
        assert all(row[-1] == "ok" and float(row[9]) > 0.0 for row in rows)

    @pytest.mark.parametrize("case, axes", [
        ({"kind": "case2", "n": 2, "levels": [200]}, 2),
        ({"kind": "case3", "levels": [200]}, 1),
        ({"kind": "case2", "n": 2, "levels": [200, 400, 800]}, 2),
        ({"kind": "case3", "levels": [200, 400, 800]}, 1)])
    def test_tube_cell_runs_one_recurrence_per_ball(
            self, monkeypatch, stepped_points, tmp_path, case, axes):
        # the report measures no tube median, so the only tables a saturate
        # tube case builds are those of its balls' axes: it plans every
        # level before its first cell and steps them in one recurrence
        seen = []
        real = spectral.hermite_on_grids

        def counted(orders, grids):
            seen.append([(max(o), len(g)) for o, g in zip(orders, grids)])
            return real(orders, grids)

        monkeypatch.setattr(spectral, "hermite_on_grids", counted)
        cfg = parse_config({"experiment": "saturate",
                            "parameters": {"cases": [case]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.summary["computational_failures"] == []
        assert len(seen) == 1 and len(seen[0]) == axes * len(case["levels"])
        # every axis steps only to its own highest order
        assert stepped_points.steps == sum(k * m for k, m in seen[0])

    def test_failed_tube_plan_stays_in_its_cell(self, monkeypatch, tmp_path):
        # the middle level's construction fails while the case is planned:
        # its cell gives the error row, in place, and the other levels'
        # rows are the clean run's
        levels = [200, 400, 800]
        cfg = parse_config({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "case2", "n": 2, "levels": levels}]}})
        _, clean = read_csv(run(cfg, out_dir=tmp_path / "clean").csv_path)
        real = construct.build_concentrated

        def failing(n, level, *args, **kwargs):
            if level == 400:
                raise RuntimeError("boom")
            return real(n, level, *args, **kwargs)

        monkeypatch.setattr(construct, "build_concentrated", failing)
        res = run(cfg, out_dir=tmp_path / "failed")
        assert res.exit_code == 3
        _, rows = read_csv(res.csv_path)
        assert rows[0] == clean[0] and rows[2] == clean[2]
        assert set(rows[1][:-1]) == {""}
        assert rows[1][-1] == "error: RuntimeError: boom"
        assert res.summary["computational_failures"] == [
            {"cell": "(0, 400)", "error": "RuntimeError: boom"}]

    def test_tube_plan_raises_what_the_cell_raised_first(self, monkeypatch,
                                                         tmp_path):
        # the plan calls the library in the cell's order: the bound comes
        # before the construction, so its failure is the one reported
        def failing(message):
            def explode(*args, **kwargs):
                raise RuntimeError(message)
            return explode

        monkeypatch.setattr(bounds, "lambda_lp", failing("bound"))
        monkeypatch.setattr(construct, "build_concentrated",
                            failing("construction"))
        cfg = parse_config({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "case2", "n": 2, "levels": [200, 400]}]}})
        res = run(cfg, out_dir=tmp_path)
        assert [f["error"] for f in res.summary["computational_failures"]] \
            == ["RuntimeError: bound"] * 2

    def test_finished_tube_level_frees_its_evaluator(self, monkeypatch,
                                                     tmp_path):
        # every level is planned before the first cell; a cell's evaluator,
        # and with it its tables, is gone before the next cell measures
        built, measured = [], []
        real_build = construct.build_concentrated
        real_ratio = construct.saturation_ratio

        def build(*args, **kwargs):
            rep = real_build(*args, **kwargs)
            built.append(weakref.ref(rep.eigenfunction))
            return rep

        def ratio(rep, *args, **kwargs):
            assert len(built) == 3
            assert all(ref() is None for ref in measured)
            measured.append(weakref.ref(rep.eigenfunction))
            return real_ratio(rep, *args, **kwargs)

        monkeypatch.setattr(construct, "build_concentrated", build)
        monkeypatch.setattr(construct, "saturation_ratio", ratio)
        cfg = parse_config({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "case2", "n": 2, "levels": [200, 400, 800]}]}})
        assert run(cfg, out_dir=tmp_path).summary[
            "computational_failures"] == []
        assert [ref() for ref in built] == [None] * 3
        assert len(measured) == 3

    def test_failed_shared_recurrence_fails_the_experiment(self, monkeypatch,
                                                           tmp_path):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(spectral, "hermite_on_grids", explode)
        cfg = parse_config({"experiment": "saturate", "parameters": {
            "cases": [{"kind": "case2", "n": 2, "levels": [200, 400]}]}})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 3
        _, rows = read_csv(res.csv_path)
        assert len(rows) == 1 and rows[0][-1] == "error: RuntimeError: boom"
        assert res.summary["computational_failures"] == [
            {"cell": "saturate", "error": "RuntimeError: boom"}]

    def test_phase_identities_crash_contained(self, tmp_path):
        cfg = load_config(str(Path(__file__).resolve().parents[1]
                              / "configs" / "phase-identities.json"),
                          {"seed": 6})
        res = run(cfg, out_dir=tmp_path)
        assert res.exit_code == 3
        for path in (res.csv_path, res.summary_path, res.manifest_path):
            assert path.is_file()
        header, rows = read_csv(res.csv_path)
        assert [row[1] for row in rows[:4]] == ["2"] * 4
        assert all(row[-1] == "ok" for row in rows[:4])
        assert len(rows) == 5 and rows[4][-1].startswith("error: ")
        failures = res.summary["computational_failures"]
        assert [f["cell"] for f in failures] == ["(1, 3)"]
        assert set(by_name(res)) == {
            "derivative-factorization-n2", "curvature-vs-fd-n2",
            "mixed-hessian-closed-n2", "mixed-hessian-fd-n2"}


class TestEmitPlot:
    def test_hermite_profile(self):
        header, rows = emit_plot_data("hermite-profile", params={"k": 100})
        assert header == ("x", "value", "szego", "envelope", "regime")
        assert len(rows) == 1601
        regimes = {row[4] for row in rows}
        assert regimes == {"oscillatory", "transition", "decay"}
        peak = max(rows, key=lambda row: abs(row[1]))
        assert 13.0 < abs(peak[0]) < math.sqrt(201.0)
        interior = [row for row in rows if row[4] == "oscillatory"]
        assert all(np.isfinite(row[2]) and row[3] > 0 for row in interior)

    def test_rho_sigma_kink_markers(self):
        _, rows = emit_plot_data("rho-sigma", params={"n": 2})
        marks = {(row[3], row[0]) for row in rows if row[3]}
        assert marks == {("sogge-kink", 6.0), ("rho-kink", 10.0 / 3.0)}
        _, rows3 = emit_plot_data("rho-sigma", params={"n": 3})
        assert {m for m, _ in {(row[3], row[0]) for row in rows3 if row[3]}} \
            == {"sogge-kink", "rho-kink", "thangavelu-kink"}
        ps = [row[0] for row in rows]
        assert ps == sorted(ps)

    def test_bound_vs_r_branches(self):
        header, rows = emit_plot_data("bound-vs-r", params={"n": 2})
        assert header == ("r", "mu", "branch", "log_value", "value")
        assert {row[2] for row in rows} == {"point", "tube-low-p",
                                            "cap-low-p"}
        assert all(row[4] > 0 for row in rows)

    def test_bound_vs_mu_branches(self):
        _, rows = emit_plot_data("bound-vs-mu", params={})
        assert {row[1] for row in rows} == {"tube-low-p", "cap-low-p"}

    @pytest.mark.parametrize("kind, params, rule", [
        ("bound-vs-r", {"points": 0}, "points >= 2"),
        ("bound-vs-r", {"points": 1}, "points >= 2"),
        ("bound-vs-r", {"n": 0}, "n >= 1"),
        ("bound-vs-mu", {"n": 0}, "n >= 1"),
        ("bound-vs-r", {"lambda": -5}, "lambda > 0"),
        ("bound-vs-mu", {"lambda": 0}, "lambda > 0"),
        ("bound-vs-mu", {"lambda": 1000, "r": 5000}, "r <= lambda"),
        ("bound-vs-mu", {"r": 0}, "0 < r")])
    def test_bound_slices_reject_bad_input(self, kind, params, rule):
        # refused before numpy sees the value (no warning), with one
        # violation tagged by the key the rule is about and its value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                emit_plot_data(kind, params=params)
        (violation,) = err.value.violations
        tag, _, problem = violation.partition(": ")
        refused_kind, _, key = tag.partition(".")
        assert refused_kind == kind
        assert key in rule.split()
        assert f"(got {params[key]!r}" in problem

    def test_lists_every_bad_key(self):
        with pytest.raises(ConfigError) as err:
            emit_plot_data("bound-vs-r", params={"n": 0, "points": 1,
                                                 "nu_abs": -1.0, "zz": 1})
        assert err.value.violations == (
            "bound-vs-r.n: must be >= 1 (got 0)",
            "bound-vs-r.points: must be >= 2 (got 1)",
            "bound-vs-r.nu_abs: must be >= 0.0 (got -1.0)",
            "bound-vs-r.zz: unknown entry")

    @pytest.mark.parametrize("kind, params, violation", [
        # int(2.7) used to plot order 2, and mu = 2.0 was plotted as given
        ("hermite-profile", {"k": 2.7},
         "hermite-profile.k: must be an integer (got 2.7)"),
        ("bound-vs-r", {"mu": 2.0}, "bound-vs-r.mu: must be <= 1.0 (got 2.0)"),
        ("bound-vs-r", {"lambda": 1000, "mu": 1e-5},
         "bound-vs-r.mu: below the mu floor 1.000e-04 of lambda=1000.0"),
        ("hermite-profile", {"x_min": 3.0, "x_max": 3.0},
         "hermite-profile.x_max: must exceed x_min=3.0 (got 3.0)"),
        ("rho-sigma", {"n": 1}, "rho-sigma.n: must be >= 2 (got 1)"),
        ("rho-sigma", {"p_max": 2}, "rho-sigma.p_max: must be > 2.0 (got 2)"),
        ("bound-vs-r", {"lambda": 10, "nu_abs": 11},
         "bound-vs-r.nu_abs: must be <= 10.0 (got 11)"),
        ("bound-vs-r", {"lambda": 0.5},
         "bound-vs-r.lambda: must be >= 1.0 (got 0.5)"),
        ("bound-vs-mu", {"p": 1.5},
         'bound-vs-mu.p: must be >= 2.0 (got 1.5) or the string "inf"'),
        ("saturate-ratios", {"k": 1}, "saturate-ratios.k: unknown entry")])
    def test_plot_schema_rules(self, kind, params, violation):
        with pytest.raises(ConfigError) as err:
            emit_plot_data(kind, params=params)
        assert err.value.violations == (violation,)

    def test_bound_slices_read_p_once(self):
        for kind in ("bound-vs-r", "bound-vs-mu"):
            _, inf_rows = emit_plot_data(kind, params={"p": "inf"})
            _, six_rows = emit_plot_data(kind, params={"p": 6})
            assert inf_rows != six_rows
            assert emit_plot_data(kind, params={"p": 6.0})[1] == six_rows

    def test_saturate_ratios_reads_run(self, mini_saturate_run):
        _, out = mini_saturate_run
        header, rows = emit_plot_data("saturate-ratios", run_dir=out)
        assert header == ("kind", "n", "lambda", "r", "p", "ratio")
        assert len(rows) == 5
        assert float(rows[0][5]) == pytest.approx(0.31030489266735456)

    def test_saturate_ratios_rejects_other_runs(self, tmp_path):
        run(parse_config({"experiment": "bounds-table"}), out_dir=tmp_path)
        with pytest.raises(ConfigError, match="not a saturate run"):
            emit_plot_data("saturate-ratios", run_dir=tmp_path)

    def test_saturate_ratios_needs_run_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="needs a completed run"):
            emit_plot_data("saturate-ratios")
        with pytest.raises(ConfigError, match="no completed run"):
            emit_plot_data("saturate-ratios", run_dir=tmp_path / "nope")

    def test_unknown_kind_and_params(self):
        with pytest.raises(ConfigError, match="kind: must be one of "
                           "'hermite-profile', .* \\(got 'histogram'\\)"):
            emit_plot_data("histogram")
        with pytest.raises(ConfigError) as err:
            emit_plot_data("hermite-profile", params={"zz": 1})
        assert err.value.violations == ("hermite-profile.zz: unknown entry",)

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "profile.csv"
        emit_plot_data("hermite-profile", params={"k": 12, "points": 11},
                       out_path=out)
        header, rows = read_csv(out)
        assert header == ("x", "value", "szego", "envelope", "regime")
        assert len(rows) == 11


class TestCommandLine:
    def test_pass_run_prints_assertions(self, tmp_path, capsys):
        path = write_json(tmp_path, {"experiment": "bounds-table"})
        code = cli.main(["bounds-table", "--config", path,
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS exponent-kink-continuity:" in out
        assert "wrote" in out

    def test_assertion_failure_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "parameters": {"tol_identity": 1e-30}})
        code = cli.main(["bounds-table", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_scale_flag(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "parameters": {"tol_identity": 1e-30}})
        code = cli.main(["bounds-table", "--config", path,
                         "--out", str(tmp_path / "out"),
                         "--tolerance-scale", "1e20"])
        assert code == 0

    @pytest.mark.parametrize("flag, value, problem", [
        ("--seed", "-1", "must be >= 0"),
        ("--seed", str(2**64), "must be <= 18446744073709551615"),
        ("--tolerance-scale", "0", "must be > 0.0"),
        ("--tolerance-scale", "-1", "must be > 0.0"),
        ("--tolerance-scale", "nan", "must be finite"),
        ("--tolerance-scale", "inf", "must be finite"),
    ])
    def test_override_flags_obey_config_rules(self, tmp_path, capsys, flag,
                                              value, problem):
        # the config file itself would refuse these values; so do the flags,
        # named as the entry they set, before anything runs or is written
        path = write_json(tmp_path, {"experiment": "bounds-table"})
        out = tmp_path / "out"
        code = cli.main(["bounds-table", "--config", path, "--out", str(out),
                         flag, value])
        captured = capsys.readouterr()
        entry, got = (("seed", int(value)) if flag == "--seed"
                      else ("tolerance_scale", float(value)))
        assert code == 2
        assert captured.err.splitlines() == [
            "config error:", f"  {entry}: {problem} (got {got})"]
        assert captured.out == ""
        assert not out.exists()

    def test_flag_and_file_violations_reported_together(self, tmp_path,
                                                        capsys):
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "parameters": {"tol_identity": -1}})
        out = tmp_path / "out"
        code = cli.main(["bounds-table", "--config", path, "--out", str(out),
                         "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "config error:",
            "  seed: must be >= 0 (got -1)",
            "  parameters.tol_identity: must be > 0.0 (got -1)"]
        assert captured.out == ""
        assert not out.exists()

    def test_flags_are_config_entries(self, tmp_path):
        # a flag run and a run of the file carrying the same entries give
        # the same bytes and the same config echo
        src = (Path(__file__).resolve().parents[1] / "configs"
               / "determinism.json")
        data = json.loads(src.read_text(encoding="utf-8"))
        copy = write_json(tmp_path, dict(data, seed=11, tolerance_scale=2))
        assert cli.main(["saturate", "--config", str(src), "--seed", "11",
                         "--tolerance-scale", "2",
                         "--out", str(tmp_path / "flags")]) == 0
        assert cli.main(["saturate", "--config", copy,
                         "--out", str(tmp_path / "file")]) == 0
        for name in ("results.csv", "summary.json"):
            assert ((tmp_path / "flags" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes())
        echoes = [json.loads((tmp_path / side / "manifest.json").read_text(
            encoding="utf-8"))["config"] for side in ("flags", "file")]
        assert echoes[0] == dict(echoes[1], out=str(tmp_path / "flags"))
        assert (echoes[0]["seed"], echoes[0]["tolerance_scale"]) == (11, 2.0)

    def test_out_flag_is_the_echoed_out(self, tmp_path):
        # --out replaces the file's "out": the manifest echoes the
        # directory the run wrote its artifacts to
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "out": str(tmp_path / "from-file")})
        flag = tmp_path / "from-flag"
        assert cli.main(["bounds-table", "--config", path,
                         "--out", str(flag)]) == 0
        assert not (tmp_path / "from-file").exists()
        manifest = json.loads((flag / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["config"]["out"] == str(flag)

    def test_threads_flag_is_usage_error(self, tmp_path):
        path = write_json(tmp_path, {"experiment": "saturate", "parameters": {
            "cases": [{"kind": "random", "levels": [50], "per_level": 1}]}})
        with pytest.raises(SystemExit) as err:
            cli.main(["saturate", "--config", path,
                      "--out", str(tmp_path / "out"), "--threads", "2"])
        assert err.value.code == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"experiment": "eval", "parameters": {
            "k_max_ortho": 300, "bogus": 1}})
        code = cli.main(["eval", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "parameters.k_max_ortho" in err and "parameters.bogus" in err

    def test_json_syntax_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "eval",', encoding="utf-8")
        code = cli.main(["eval", "--config", str(path)])
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    def test_subcommand_mismatch_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"experiment": "bounds-table"})
        code = cli.main(["eval", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "is a 'bounds-table' config, not 'eval'" in err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_emit_plot_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "rs.csv"
        code = cli.main(["emit-plot", "--kind", "rho-sigma",
                         "--out", str(out), "--param", "n=3"])
        assert code == 0
        header, _ = read_csv(out)
        assert header == ("p", "sigma", "rho", "marker")
        assert "wrote" in capsys.readouterr().out

    def test_emit_plot_bad_value_exits_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(["emit-plot", "--kind", "bound-vs-r",
                         "--param", "points=0", "--out", str(out)])
        assert code == 2
        assert ("bound-vs-r.points: must be >= 2 (got 0)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind, param, violation", [
        ("rho-sigma", "p_max=inf",
         "rho-sigma.p_max: must be a number (got 'inf')"),
        ("bound-vs-r", "lambda=Infinity",
         "bound-vs-r.lambda: must be finite (got inf)"),
        ("hermite-profile", "k=2.7",
         "hermite-profile.k: must be an integer (got 2.7)"),
        ("bound-vs-r", "mu=2.0", "bound-vs-r.mu: must be <= 1.0 (got 2.0)")])
    def test_emit_plot_names_the_refused_key(self, tmp_path, capsys, kind,
                                             param, violation):
        out = tmp_path / "x.csv"
        code = cli.main(["emit-plot", "--kind", kind, "--param", param,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config error:\n  {violation}\n"
        assert not out.exists()

    def test_emit_plot_lists_all_bad_params(self, tmp_path, capsys):
        code = cli.main(["emit-plot", "--kind", "rho-sigma",
                         "--out", str(tmp_path / "x.csv"),
                         "--param", "n=1", "--param", "points=1.5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error:\n  rho-sigma.n: must be >= 2 (got 1)\n"
            "  rho-sigma.points: must be an integer (got 1.5)\n")

    def test_emit_plot_repeated_param_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["emit-plot", "--kind", "rho-sigma", "--out", str(out),
                         "--param", "n=2", "--param", "n=3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error:\n  --param n: given more than once\n")
        assert not out.exists()

    def test_emit_plot_run_for_generator_kind_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["emit-plot", "--kind", "rho-sigma", "--out", str(out),
                         "--run", str(tmp_path / "nonexistent")])
        assert code == 2
        assert "--run: only saturate-ratios reads" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_plot_unknown_kind_exits_2(self, tmp_path, capsys):
        code = cli.main(["emit-plot", "--kind", "pie",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "kind: must be one of" in capsys.readouterr().err

    def test_emit_plot_malformed_param_exits_2(self, tmp_path, capsys):
        code = cli.main(["emit-plot", "--kind", "rho-sigma",
                         "--out", str(tmp_path / "x.csv"),
                         "--param", "nokey"])
        assert code == 2
        assert "expected KEY=VALUE" in capsys.readouterr().err

    def test_emit_plot_unknown_param_exits_2(self, tmp_path, capsys):
        code = cli.main(["emit-plot", "--kind", "rho-sigma",
                         "--out", str(tmp_path / "x.csv"),
                         "--param", "zz=1"])
        assert code == 2
        assert "rho-sigma.zz: unknown entry" in capsys.readouterr().err

    def test_max_table_for_n_1_exits_2(self, tmp_path, capsys):
        params = {"n_values": [1, 2], "lambda_values": [1000.0]}
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "parameters": params})
        out = tmp_path / "out"
        code = cli.main(["bounds-table", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "parameters.n_values[0]" in err
        assert "set include_max_table to false" in err
        assert not out.exists()
        path = write_json(tmp_path, {"experiment": "bounds-table",
                                     "parameters": {"n_values": [1],
                                                    "include_max_table": False}})
        assert cli.main(["bounds-table", "--config", path,
                         "--out", str(out)]) == 0

    def test_infeasible_consistency_radius_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, {"experiment": "sphase-check",
                                     "parameters": {
                                         "consistency_r_values": [101, 100000001]}})
        out = tmp_path / "out"
        code = cli.main(["sphase-check", "--config", path, "--out", str(out)])
        assert code == 2
        assert ("parameters.consistency_r_values[1]: the top Mehler level "
                "needs 10588024 panels at this r (cap 200000)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_crash_outside_cells_exits_3(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("exploded")

        monkeypatch.setattr(cli, "run", explode)
        path = write_json(tmp_path, {"experiment": "bounds-table"})
        code = cli.main(["bounds-table", "--config", path])
        assert code == 3
        assert ("computational failure: RuntimeError: exploded"
                in capsys.readouterr().err)

    def test_cell_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(construct, "build_concentrated", explode)
        path = write_json(tmp_path, {"experiment": "construct",
                                     "parameters": {"levels": [200]}})
        code = cli.main(["construct", "--config", path,
                         "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert "ERROR cell 200: RuntimeError: boom" in captured.err
        assert "wrote" in captured.out

    def test_console_script_installed(self, tmp_path):
        # An install turns the [project.scripts] entry into a launcher on
        # PATH. Build that same launcher from the committed metadata, so the
        # entry point, argument pass-through and exit codes are checked as a
        # separate process without the package being installed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["hermlp"]
        module, _, func = spec.partition(":")
        exe = tmp_path / "bin" / "hermlp"
        exe.parent.mkdir()
        exe.write_text(f"#!{sys.executable}\n"
                       "import sys\n"
                       f"from {module} import {func}\n"
                       "if __name__ == '__main__':\n"
                       f"    sys.exit({func}())\n", encoding="utf-8")
        exe.chmod(0o755)
        # the directory that holds the imported hermlp, so the launcher runs
        # the code under test and never another installed copy
        env = dict(os.environ,
                   PYTHONPATH=str(Path(hermlp.__file__).resolve().parents[1]))

        def launch(*args):
            return subprocess.run([str(exe), *args], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)

        done = launch("emit-plot", "--kind", "rho-sigma",
                      "--out", str(tmp_path / "rs.csv"))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "rs.csv").is_file()
        done = launch("emit-plot", "--kind", "pie",
                      "--out", str(tmp_path / "x.csv"))
        assert done.returncode == 2
        assert "kind: must be one of" in done.stderr

    def test_run_all_configs_script(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        done = subprocess.run(
            [sys.executable, str(repo / "scripts" / "run_all_configs.py"),
             "--only", "bounds-table", "--only", "determinism",
             "--out-root", str(tmp_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        verdicts = [line.split()[:2] for line in done.stdout.splitlines()
                    if line.split()[1:2] == ["pass"]]
        assert verdicts == [["bounds-table", "pass"], ["determinism", "pass"]]
        for name in ("bounds-table", "determinism"):
            for artifact in ("results.csv", "summary.json", "manifest.json"):
                assert (tmp_path / name / artifact).is_file()

    def test_run_all_configs_refuses_unknown_names(self, tmp_path):
        # a misspelled name next to a good one would silently shrink a
        # --compare gate to the configs that matched
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        done = subprocess.run(
            [sys.executable, str(repo / "scripts" / "run_all_configs.py"),
             "--only", "bounds-table", "--only", "hermite-evall",
             "--only", "nope", "--out-root", str(tmp_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert "no config named hermite-evall, nope in " in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_run_all_configs_prints_failures(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        configs = tmp_path / "configs"
        configs.mkdir()
        write_json(configs, LATE_FAILURES["sphase-check"][0], "large-r.json")
        done = subprocess.run(
            [sys.executable, str(repo / "scripts" / "run_all_configs.py"),
             "--configs-dir", str(configs), "--out-root", str(tmp_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 3
        assert ("large-r: ERROR cell sphase-check: TailConvergenceError: "
                in done.stderr)

    def test_run_all_configs_compare(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))

        def run_all(out_root, *extra):
            return subprocess.run(
                [sys.executable, str(repo / "scripts" / "run_all_configs.py"),
                 "--only", "bounds-table", "--only", "determinism",
                 "--out-root", str(out_root), *extra],
                cwd=tmp_path, env=env, capture_output=True, text=True)

        assert run_all(tmp_path / "ref").returncode == 0
        done = run_all(tmp_path / "same", "--compare", str(tmp_path / "ref"))
        assert done.returncode == 0, done.stdout + done.stderr
        assert "compared 4 files" in done.stdout
        assert "0 differ" in done.stdout

        corrupt = tmp_path / "ref" / "determinism" / "results.csv"
        data = bytearray(corrupt.read_bytes())
        data[len(data) // 2] ^= 1
        corrupt.write_bytes(bytes(data))
        done = run_all(tmp_path / "other", "--compare", str(tmp_path / "ref"))
        assert done.returncode == 1
        differ = [line for line in done.stdout.splitlines()
                  if line.startswith("differs")]
        assert len(differ) == 1
        assert differ[0].endswith(str(Path("determinism", "results.csv")))
        assert "1 differ" in done.stdout

    def test_run_all_configs_compare_names_moved_cells(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))

        def run_all(out_root, *extra):
            return subprocess.run(
                [sys.executable, str(repo / "scripts" / "run_all_configs.py"),
                 "--only", "determinism", "--out-root", str(out_root),
                 *extra], cwd=tmp_path, env=env, capture_output=True,
                text=True)

        assert run_all(tmp_path / "run").returncode == 0
        # the reference: a copy of the run with one cell and one metric
        # edited
        ref = tmp_path / "ref" / "determinism"
        ref.mkdir(parents=True)
        with open(tmp_path / "run" / "determinism" / "results.csv",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("measured")
        measured = rows[3][column]
        rows[3][column] = repr(2.0 * float(measured))
        with open(ref / "results.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        summary = json.loads(
            (tmp_path / "run" / "determinism" / "summary.json").read_text())
        summary["metrics"]["c_upper"] = 5.0
        (ref / "summary.json").write_text(json.dumps(summary))

        done = run_all(tmp_path / "new", "--compare", str(tmp_path / "ref"))
        assert done.returncode == 1
        cells = [line.strip() for line in done.stdout.splitlines()
                 if line.startswith("  ")]
        assert cells == [
            f"determinism: results.csv row 3 ({rows[3][0]}) measured: "
            f"{rows[3][column]} -> {measured} (rel -0.5)",
            "determinism: summary.json metric c_upper: 5.0 -> 4.0 "
            "(rel -0.2)"]
        assert "compared 2 files" in done.stdout and "2 differ" in done.stdout

    @pytest.mark.parametrize("pairs", ["1", "0"])
    def test_bench_pairs_rejects_too_few_pairs(self, tmp_path, pairs):
        # a copy of the script beside a copy of BENCHMARK.json, so a run
        # that got past its arguments would export and write in tmp_path
        repo = Path(__file__).resolve().parents[1]
        (tmp_path / "scripts").mkdir()
        script = tmp_path / "scripts" / "bench_pairs.py"
        script.write_bytes((repo / "scripts" / "bench_pairs.py").read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes(
            (repo / "BENCHMARK.json").read_bytes())
        done = subprocess.run(
            [sys.executable, str(script), "--parent", "HEAD",
             "--workload", "sweep-tube", "--pairs", pairs],
            cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 2
        assert "at least 2 pairs" in done.stderr
        assert done.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCHMARK.json", "scripts"]

    def test_make_figures_script(self, tmp_path, mini_saturate_run):
        _, run_dir = mini_saturate_run
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        figs = tmp_path / "figs"
        done = subprocess.run(
            [sys.executable, str(repo / "scripts" / "make_figures.py"),
             "--out-dir", str(figs), "--saturate-run", str(run_dir)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        headers = {path.name: read_csv(path)[0]
                   for path in figs.glob("*.csv")}
        slice_r = ("r", "mu", "branch", "log_value", "value")
        assert headers == {
            "hermite-profile.csv": ("x", "value", "szego", "envelope",
                                    "regime"),
            "rho-sigma-n2.csv": ("p", "sigma", "rho", "marker"),
            "rho-sigma-n3.csv": ("p", "sigma", "rho", "marker"),
            "bound-vs-r-n2-p2.0.csv": slice_r,
            "bound-vs-r-n2-p6.0.csv": slice_r,
            "bound-vs-mu-n2-p2.0.csv": ("mu", "branch", "log_value",
                                        "value"),
            "saturate-ratios.csv": ("kind", "n", "lambda", "r", "p",
                                    "ratio"),
        }
