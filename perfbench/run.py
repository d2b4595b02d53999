#!/usr/bin/env python3
"""hermlp benchmark: runs one workload through the public runner and reports.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; hermlp is imported from src/.
Each pass of the workload runs in a fresh interpreter (child.py), as a CLI
user runs it: configs one after another, runner threads at the config
default of 1, OpenBLAS at its default thread count.  Passes repeat until S
seconds have gone by, and every metric is the median over the passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced pass with the
median wall time, plus the tracing overhead.  Every pass is checked: each
config's exit code, rows whose status column holds an error, and the
digests of results.csv and summary.json against the reference recorded for
the seed's variant in reference/.  Text lines describe the run and the
machine; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from layertrace import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

# No pass starts once it would likely end past this many seconds, so that a
# run stays well inside three minutes.
RUN_LIMIT_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "rows_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({name: "flop" if name.endswith("flops") else "count"
                  for name in COUNTS})
PER_LAYER.update({"hermite.repeat_share": "ratio", "trace_overhead_s": "s"})


class BenchmarkError(RuntimeError):
    pass


# ------------------------------------------------------------------ passes

def run_pass(configs_path: Path, out_dir: Path, traced: bool,
             timeout: float) -> dict:
    """One child pass; returns its report with setup_s added."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"),
           str(configs_path), str(out_dir)] + (["--trace"] if traced else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a pass ran longer than {timeout:.0f} s") \
            from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"a pass exited with code {proc.returncode}:\n"
                             + proc.stderr[-4000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    report["traced"] = traced
    report["span_s"] = time.monotonic() - start
    return report


# ------------------------------------------------------------- correctness

@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    max_rel_dev: float = 0.0

    def add(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_rel_dev = max(self.max_rel_dev, other.max_rel_dev)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rel_dev(got: str, want: str) -> float:
    parts_got, parts_want = got.split(";"), want.split(";")
    if len(parts_got) != len(parts_want):
        return math.inf
    worst = 0.0
    for a, b in zip(parts_got, parts_want):
        try:
            x, y = float(a), float(b)
        except ValueError:
            return math.inf
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / abs(y) if y else math.inf)
    return worst


def max_rel_dev(rows: list, reference_csv: str) -> float:
    """Largest relative deviation of any results.csv cell from the reference.

    A change of shape (header, row count, row width) or of a text cell
    counts as an infinite deviation.
    """
    ref = list(csv.reader(io.StringIO(reference_csv)))
    if len(ref) != len(rows) or ref[:1] != rows[:1]:
        return math.inf
    worst = 0.0
    for got_row, want_row in zip(rows[1:], ref[1:]):
        if len(got_row) != len(want_row):
            return math.inf
        for got, want in zip(got_row, want_row):
            if got != want:
                worst = max(worst, _rel_dev(got, want))
    return worst


def error_rows(rows: list) -> int:
    """Data rows whose status column (the last) holds an error."""
    return sum(1 for row in rows[1:] if row and row[-1].startswith("error"))


def score_pass(out_dir: Path, exit_codes: list, reference: dict,
               variant: int) -> Score:
    """Failed operations of one pass: error rows, failed gates, artifacts
    whose digest differs from the reference.  Each config attempts its rows,
    one gate and two artifacts."""
    expected = reference["variants"][str(variant)]["artifacts"]
    if len(exit_codes) != len(expected):
        raise BenchmarkError("pass ran a different number of configs "
                             "than the reference")
    score = Score()
    for index, (code, want) in enumerate(zip(exit_codes, expected)):
        results = (out_dir / str(index) / "results.csv").read_bytes()
        summary = (out_dir / str(index) / "summary.json").read_bytes()
        rows = list(csv.reader(io.StringIO(results.decode("utf-8"))))
        score.attempted += len(rows) - 1 + 3
        score.failed += error_rows(rows)
        score.failed += code != 0
        if sha256(results) != want["results_sha256"]:
            score.failed += 1
            score.max_rel_dev = max(score.max_rel_dev, max_rel_dev(
                rows, reference["results_csv"][want["results_sha256"]]))
        if sha256(summary) != want["summary_sha256"]:
            score.failed += 1
    return score


def configs_digest(configs: list) -> str:
    return sha256(json.dumps(configs, sort_keys=True).encode("utf-8"))


def reference_path(reference_dir: Path, workload: str, size: str) -> Path:
    return reference_dir / f"{workload}.{size}.json.gz"


def load_reference(reference_dir: Path, workload: str, size: str,
                   configs: list, variant: int) -> dict:
    path = reference_path(reference_dir, workload, size)
    if not path.is_file():
        raise BenchmarkError(f"no reference recorded at {path}")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        reference = json.load(fh)
    entry = reference["variants"].get(str(variant))
    if entry is None or entry["configs_sha256"] != configs_digest(configs):
        raise BenchmarkError(
            f"{path} does not hold variant {variant} of the current "
            "configs; re-record it with record_reference.py")
    return reference


# ------------------------------------------------------------- measurement

def measure(configs: list, reference: dict, variant: int, seconds: float,
            trace: bool, work: Path) -> tuple[list, Score]:
    """Passes until `seconds` have gone by (and, traced, one of each kind).

    Returns the pass reports and the correctness score.
    """
    work.mkdir(parents=True, exist_ok=True)
    configs_path = work / "configs.json"
    configs_path.write_text(json.dumps(configs), encoding="utf-8")
    start = time.monotonic()
    passes, score = [], Score()
    while True:
        out_dir = work / f"pass{len(passes)}"
        traced = trace and len(passes) % 2 == 1
        timeout = RUN_LIMIT_S + 20.0 - (time.monotonic() - start)
        report = run_pass(configs_path, out_dir, traced, timeout)
        score.add(score_pass(out_dir, report["exit_codes"], reference,
                             variant))
        shutil.rmtree(out_dir)
        passes.append(report)
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            break
        if elapsed + max(p["span_s"] for p in passes) > RUN_LIMIT_S:
            break
    return passes, score


def _median_low(passes: list, key: str) -> dict:
    ordered = sorted(passes, key=lambda p: p[key])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(passes: list) -> dict:
    values = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "rows_per_s": [p["rows"] / p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return {name: (statistics.median(v), v) for name, v in values.items()}


def per_layer(passes: list) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    chosen = _median_low(traced, "wall_s")
    metrics = dict(chosen["trace"]["metrics"])
    metrics["trace_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    return metrics, chosen


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, variant: int, passes: list, score: Score) -> dict:
    """Print the text lines and return the result object."""
    machine = {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
               **passes[0]["machine"]}
    plain = sum(1 for p in passes if not p["traced"])
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"variant={variant} passes={plain} traced_passes="
          f"{len(passes) - plain} seconds={args.seconds}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    ratio = score.failed / score.attempted
    print(f"failed_ratio {ratio:.6g} ratio ({score.failed} of "
          f"{score.attempted} operations)")
    print(f"max_rel_dev {score.max_rel_dev:.6g} ratio "
          "(results.csv against the reference)")
    if args.trace:
        metrics, chosen = per_layer(passes)
        trace = chosen["trace"]
        print(f"traced pass: {trace['spans']} spans; self times sum to "
              f"{sum(metrics[f'{l}.self_s'] for l in LAYERS):.6g} s, plus "
              f"{trace['counter_s']:.6g} s in counters; runner.run spans "
              f"{trace['root_s']['runner']:.6g} s against wall_s "
              f"{chosen['wall_s']:.6g} s timed around the calls")
        units = PER_LAYER
        for name, unit in units.items():
            print(f"{name} {_fmt(metrics[name])} {unit}")
    else:
        stats = end_to_end(passes)
        units = END_TO_END
        for name, (median, values) in stats.items():
            print(f"{name} {_fmt(median)} {units[name]} (median of "
                  f"{len(values)}; min {_fmt(min(values))}, "
                  f"max {_fmt(max(values))})")
        metrics = {name: median for name, (median, _) in stats.items()}
    return {"correct": score.failed == 0, "attempted": score.attempted,
            "failed": score.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap


def main(argv=None, *, size: str = "full",
         reference_dir: Path = REFERENCE_DIR) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "hermlp" / "__init__.py").is_file():
        print(f"no hermlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    variant = workloads.variant(args.seed)
    configs = workloads.configs(args.workload, args.seed, size)
    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        reference = load_reference(reference_dir, args.workload, size,
                                   configs, variant)
        passes, score = measure(configs, reference, variant, args.seconds,
                                bool(args.trace), work)
        result = report(args, variant, passes, score)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
