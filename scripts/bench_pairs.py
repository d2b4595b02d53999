#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit against HEAD.

usage: bench_pairs.py --parent REF --workload NAME --pairs N

N must be at least 2: the quartiles need two runs a side.  Runs `perfbench/run.py --trace 0` N times on `git archive` exports of REF
and HEAD (sibling temporary directories), each run BENCHMARK.json's
`run_seconds` long; pair i runs seed i, parent first when i is even.
BENCH_<parent>_<head>.json (one entry per workload) gets, per end-to-end
metric of BENCHMARK.json, every run, each side's median and inclusive
quartiles, HEAD's wins, and whether the medians differ by more than the
parent's quartile spread.  Exits 1 when a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pairs(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(
            f"{n} is too few: quartiles need at least 2 pairs")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=_pairs,
                    help="number of pairs, at least 2")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {side: subprocess.check_output(["git", "rev-parse", "--short", ref],
                                          cwd=ROOT, text=True).strip()
            for side, ref in (("parent", args.parent), ("change", "HEAD"))}
    runs, machine = {side: [] for side in revs}, None
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in revs.items():
            (Path(tmp) / side).mkdir()
            subprocess.run(f"git archive {rev} | tar -x -C {tmp}/{side}",
                           shell=True, cwd=ROOT, check=True)
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0
                         else ("change", "parent")):
                lines = subprocess.check_output(
                    [sys.executable, "perfbench/run.py", "--workload",
                     args.workload, "--seed", str(i), "--seconds",
                     str(bench["run_seconds"]), "--trace", "0"],
                    cwd=Path(tmp) / side, text=True).splitlines()
                machine = machine or next(
                    (ln for ln in lines if ln.startswith("machine:")), None)
                runs[side].append(json.loads(lines[-1]))
                print(f"pair {i} {side}: correct {runs[side][-1]['correct']}",
                      flush=True)
    entry = {"pairs": args.pairs, "seconds": bench["run_seconds"],
             "metrics": {},
             "correct": {s: all(r["correct"] for r in runs[s]) for s in revs},
             "failed": {s: sum(r["failed"] for r in runs[s]) for s in revs}}
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in revs}
        stats = {s: dict(zip(("q1", "median", "q3"), statistics.quantiles(
            v, n=4, method="inclusive")), runs=v) for s, v in vals.items()}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(vals["parent"], vals["change"]))
        entry["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "change_wins": f"{wins} of {args.pairs}",
            "median_change_pct": round(100 * gap / stats["parent"]["median"], 2),
            "median_gap_beyond_parent_iqr":
                abs(gap) > stats["parent"]["q3"] - stats["parent"]["q1"]}
    path = ROOT / f"BENCH_{revs['parent']}_{revs['change']}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "parent": revs["parent"], "change": revs["change"],
        "date": date.today().isoformat(), "machine_line": machine,
        "workloads": {}}
    record["workloads"][args.workload] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0 if all(entry["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
