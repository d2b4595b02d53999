#!/usr/bin/env python3
"""Self-check of the benchmark, run at a tiny size in well under a minute.

usage: python3 perfbench/selfcheck.py

1. Records tiny-size references for every workload in a scratch directory.
2. Runs every workload untraced and traced and checks that the result line
   holds exactly the metrics BENCHMARK.json lists, each with its unit, that
   each metric is also printed as a text line by name and unit, and that the
   run is correct.
3. Checks that in a traced pass only parse_config and runner.run open root
   spans, that the runner.run spans match the wall time the pass measured
   around those calls on its own clock, and that the layer self times plus
   the counters' time sum to the root spans.
4. Scores a deliberately corrupted copy of a pass's results.csv and checks
   that failed_ratio and max_rel_dev rise above 0.

Prints one line per failed check and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import record_reference
import run
import workloads

SIZE = "tiny"


def _corrupt(csv_path) -> None:
    """Scale the first nonzero numeric cell of the first data row by 1+1e-9."""
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    for i, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            continue
        if value:
            cells[i] = repr(value * (1.0 + 1e-9))
            break
    lines[1] = ",".join(cells) + "\n"
    csv_path.write_text("".join(lines), encoding="utf-8")


def check_output(workload: str, trace: int, refs, expected: dict) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace)],
                        size=SIZE, reference_dir=refs)
    tag = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{tag}: exit code {code}"]
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: not correct: {lines[-1][:200]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{tag}: metrics {got} differ from {expected}")
    for name, unit in expected.items():
        if not any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in lines[:-1]):
            problems.append(f"{tag}: no text line for {name} in {unit}")
    return problems


def check_trace_sum(workload: str, refs, work) -> list:
    configs = workloads.configs(workload, 0, SIZE)
    reference = run.load_reference(refs, workload, SIZE, configs, 0)
    passes, _ = run.measure(configs, reference, 0, 0.0, True, work)
    _, chosen = run.per_layer(passes)
    trace = chosen["trace"]
    problems = [f"{workload}: {layer} opened root spans of {seconds} s"
                for layer, seconds in trace["root_s"].items()
                if layer not in ("config", "runner") and seconds]
    traced, wall = trace["root_s"]["runner"], chosen["wall_s"]
    if not abs(traced - wall) <= 0.01 * wall:
        problems.append(f"{workload}: runner.run spans {traced} s, but the "
                        f"pass timed {wall} s around the calls")
    total = trace["counter_s"] + sum(trace["metrics"][f"{layer}.self_s"]
                                     for layer in run.LAYERS)
    roots = sum(trace["root_s"].values())
    if abs(total - roots) > 1e-6 * max(1.0, roots):
        problems.append(f"{workload}: self times and counters {total} s "
                        f"!= root spans {roots} s")
    return problems


def check_corruption(refs, work) -> list:
    workload = "sweep-random"
    configs = workloads.configs(workload, 0, SIZE)
    reference = run.load_reference(refs, workload, SIZE, configs, 0)
    work.mkdir(parents=True, exist_ok=True)
    configs_path = work / "configs.json"
    configs_path.write_text(json.dumps(configs), encoding="utf-8")
    out_dir = work / "pass"
    report = run.run_pass(configs_path, out_dir, False, run.RUN_LIMIT_S)
    clean = run.score_pass(out_dir, report["exit_codes"], reference, 0)
    if clean.failed:
        return [f"an untouched pass scored {clean.failed} failures"]
    _corrupt(out_dir / "0" / "results.csv")
    bad = run.score_pass(out_dir, report["exit_codes"], reference, 0)
    if not (bad.failed / bad.attempted > 0 and bad.max_rel_dev > 0):
        return [f"a corrupted results.csv scored failed={bad.failed}, "
                f"max_rel_dev={bad.max_rel_dev}"]
    return []


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    problems = []
    if declared["end_to_end"] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared["per_layer"] != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    scratch = run.WORK_DIR / "selfcheck"
    refs = scratch / "reference"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for workload in workloads.WORKLOADS:
                record_reference.record(workload, SIZE, refs)
        for workload in workloads.WORKLOADS:
            problems += check_output(workload, 0, refs,
                                     declared["end_to_end"])
            problems += check_output(workload, 1, refs,
                                     declared["per_layer"])
            problems += check_trace_sum(workload, refs, scratch / "trace")
        problems += check_corruption(refs, scratch / "corrupt")
    except run.BenchmarkError as exc:
        problems.append(f"benchmark error: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()
    for problem in problems:
        print(problem)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
