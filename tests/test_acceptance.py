"""Acceptance gate: each criterion runs a shipped config end to end.

Every test loads one of the JSON configs under configs/ through the same
loader and runner the command line uses, re-asserts the criterion's
quantitative conditions against the literal thresholds (not the config's
echo of them), and records a one-line verdict that the terminal summary
echoes after the run.
"""

import csv
import time
from pathlib import Path

import pytest
from conftest import record_criterion

from hermlp.config import load_config
from hermlp.runner import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_config(name, out_dir):
    t0 = time.perf_counter()
    result = run(load_config(CONFIGS / name), out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    # every shipped config writes a full, failure-free results.csv
    with open(result.csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[-1] == "status", header
    assert all(len(row) == len(header) for row in rows)
    assert all(row[-1] == "ok" for row in rows)
    assert result.summary["row_count"] == len(rows)
    return result, elapsed


def named(result):
    return {a.name: a for a in result.assertions}


def verdict(num, ok, detail, elapsed=None, budget=None):
    line = f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}"
    if budget is not None:
        line += f" [{elapsed:.1f}s of {budget:.0f}s allowed]"
    record_criterion(line)
    return line


@pytest.fixture(scope="module")
def saturation_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("saturate-sweep")
    return run_config("saturate-sweep.json", out)


def test_criterion_1_hermite_foundation(tmp_path):
    result, dt = run_config("hermite-eval.json", tmp_path)
    a = named(result)
    ortho = a["orthonormality-deviation"].observed
    eigen = a["eigen-equation-residual"].observed
    ok = (result.exit_code == 0 and ortho <= 1e-8 and eigen <= 1e-6
          and dt <= 60.0)
    line = verdict(1, ok, "orthonormality deviation "
                   f"{ortho:.3e} <= 1e-08 (degrees 0..200), eigen-equation "
                   f"residual {eigen:.3e} <= 1e-06 (degrees 0..500)",
                   dt, 60)
    assert ok, line


def test_criterion_2_kernel_cross_validation(tmp_path):
    result, dt = run_config("kernel-cross.json", tmp_path)
    a = named(result)
    rel = a["cross-validation-relative-error"].observed
    imag = a["cross-validation-imag-residual"].observed
    ok = (result.exit_code == 0 and rel <= 1e-3 and imag <= 1e-3
          and result.summary["row_count"] == 150 and dt <= 300.0)
    line = verdict(2, ok, "oscillatory kernel vs spectral sum over 3 "
                   f"eigenvalues x 50 pairs: relative error {rel:.3e} <= "
                   f"1e-03, imaginary residual {imag:.3e} <= 1e-03",
                   dt, 300)
    assert ok, line


def test_criterion_3_phase_identities(tmp_path):
    result, dt = run_config("phase-identities.json", tmp_path)
    a = named(result)
    worst = {kind: max(a[f"{kind}-n{n}"].observed for n in (2, 3))
             for kind in ("derivative-factorization", "curvature-vs-fd",
                          "mixed-hessian-closed", "mixed-hessian-fd")}
    ok = (result.exit_code == 0
          and worst["derivative-factorization"] <= 1e-10
          and worst["curvature-vs-fd"] <= 1e-5
          and worst["mixed-hessian-closed"] <= 1e-6
          and worst["mixed-hessian-fd"] <= 1e-4
          and dt <= 120.0)
    line = verdict(3, ok, "factorization "
                   f"{worst['derivative-factorization']:.3e} <= 1e-10, "
                   f"curvature vs fd {worst['curvature-vs-fd']:.3e} <= "
                   "1e-05, mixed-Hessian spectrum "
                   f"{worst['mixed-hessian-closed']:.3e} <= 1e-06 closed / "
                   f"{worst['mixed-hessian-fd']:.3e} <= 1e-04 fd", dt, 120)
    assert ok, line


def test_criterion_4_stationary_remainders(tmp_path):
    result, dt = run_config("stationary-remainder.json", tmp_path)
    a = named(result)
    m1 = a["remainder-slope-m1"].observed
    m2 = a["remainder-slope-m2"].observed
    gauss = a["gaussian-exactness"].observed
    ok = (result.exit_code == 0 and m1 <= -0.8 and m2 <= -1.7
          and gauss <= 1e-10 and dt <= 120.0)
    line = verdict(4, ok, f"remainder decay slopes {m1:.3f} <= -0.8 and "
                   f"{m2:.3f} <= -1.7, quadratic-phase leading term exact "
                   f"to {gauss:.1e} <= 1e-10", dt, 120)
    assert ok, line


def test_criterion_5_bound_formula_integrity(tmp_path):
    result, dt = run_config("bounds-table.json", tmp_path)
    a = named(result)
    kink = a["exponent-kink-continuity"].observed
    seam = a["envelope-seam-identities"].observed
    fixed = a["fixed-ball-rate-identity"].observed
    slope = a["quarter-power-mu-slope"].observed
    ok = (result.exit_code == 0 and kink <= 1e-12 and seam <= 1e-12
          and fixed <= 1e-12 and slope <= 1e-6 and dt <= 10.0)
    line = verdict(5, ok, f"exponent kinks {kink:.1e} and envelope seams "
                   f"{seam:.1e} <= 1e-12, unit-ball rate identity "
                   f"{fixed:.1e} <= 1e-12, quarter-power slope deviation "
                   f"{slope:.1e} <= 1e-06", dt, 10)
    assert ok, line


def test_criterion_6_saturation_sweep(saturation_sweep):
    result, dt = saturation_sweep
    a = named(result)
    band2 = a["band-ratio-case2-0"].observed
    slope2 = result.summary["metrics"]["slope_case2-0"]
    band3 = a["band-ratio-case3-1"].observed
    slope3 = result.summary["metrics"]["slope_case3-1"]
    ok = (not result.summary["computational_failures"]
          and band2 <= 10.0 and abs(slope2) <= 0.1
          and band3 <= 10.0 and abs(slope3) <= 0.1
          and dt <= 1800.0)
    line = verdict(6, ok, "concentration ratio bands: width-scaled tubes "
                   f"{band2:.3f} <= 10 with trend slope {slope2:+.4f} in "
                   f"[-0.1, 0.1]; boundary tubes {band3:.3f} <= 10 with "
                   f"slope {slope3:+.4f}", dt, 1800)
    assert ok, line


def test_criterion_7_upper_bound_direction(saturation_sweep):
    result, dt = saturation_sweep
    a = named(result)
    met = result.summary["metrics"]
    c_upper = met["c_upper"]
    max_ratio = met["max_ratio"]
    median = met["sweep_median"]
    ok = (not result.summary["computational_failures"]
          and a["upper-bound"].passed and max_ratio <= c_upper
          and a["median-factor"].passed and max_ratio <= 10.0 * median)
    line = verdict(7, ok, "sweep plus 100 random draws per eigenspace: "
                   f"max ratio {max_ratio:.4f} <= C_upper={c_upper}, "
                   f"{max_ratio / median:.2f}x the sweep median (<= 10x); "
                   "runtime shared with criterion 6")
    assert ok, line


def test_criterion_8_kernel_size_bound(tmp_path):
    result, dt = run_config("kernel-bound.json", tmp_path)
    a = named(result)
    ratio = a["bound-check-max-ratio"].observed
    slopes = [result.summary["metrics"][f"slope_mu_{mu}"]
              for mu in (0.2, 0.4)]
    ok = (result.exit_code == 0 and ratio <= 50.0
          and all(abs(s) <= 0.15 for s in slopes) and dt <= 600.0)
    line = verdict(8, ok, "normalized kernel size over 3 eigenvalues x 2 "
                   f"window scales: max ratio {ratio:.4f} <= 50, trend "
                   f"slopes {slopes[0]:+.4f} and {slopes[1]:+.4f} within "
                   "±0.15", dt, 600)
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    first = run(load_config(CONFIGS / "determinism.json"),
                out_dir=tmp_path / "first")
    second = run(load_config(CONFIGS / "determinism.json"),
                 out_dir=tmp_path / "second")
    dt = time.perf_counter() - t0
    csv_same = (Path(first.csv_path).read_bytes()
                == Path(second.csv_path).read_bytes())
    summary_same = (Path(first.summary_path).read_bytes()
                    == Path(second.summary_path).read_bytes())
    ok = first.exit_code == 0 and csv_same and summary_same
    line = verdict(9, ok, "two runs of the same seeded config: results.csv "
                   f"{'byte-identical' if csv_same else 'DIFFER'}, "
                   f"summary.json "
                   f"{'byte-identical' if summary_same else 'DIFFER'} "
                   f"({dt:.1f}s)")
    assert ok, line
