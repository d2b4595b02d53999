#!/usr/bin/env python3
"""Record the reference artifacts the benchmark checks every pass against.

usage: python3 perfbench/record_reference.py [--out DIR] [WORKLOAD ...]

For each workload and each input variant, runs one untraced pass of the
current code and stores the SHA-256 of every config's results.csv and
summary.json, plus the results.csv text from which max_rel_dev is measured.
A pass with a failed gate or an error row is refused, not recorded.

Re-record only in a change that alters the benchmark's configs or that
deliberately changes hermlp's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def record(workload: str, size: str, out: Path) -> Path:
    entry = {"workload": workload, "size": size, "variants": {},
             "results_csv": {}}
    work = run.WORK_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for variant in range(workloads.VARIANTS):
            configs = workloads.configs(workload, variant, size)
            configs_path = work / "configs.json"
            configs_path.write_text(json.dumps(configs), encoding="utf-8")
            out_dir = work / f"v{variant}"
            report = run.run_pass(configs_path, out_dir, False,
                                  run.RUN_LIMIT_S)
            artifacts = []
            for index, code in enumerate(report["exit_codes"]):
                results = (out_dir / str(index) / "results.csv").read_bytes()
                summary = (out_dir / str(index) / "summary.json").read_bytes()
                text = results.decode("utf-8")
                errors = run.error_rows(list(csv.reader(io.StringIO(text))))
                if code != 0 or errors:
                    raise run.BenchmarkError(
                        f"{workload} variant {variant} config {index} "
                        f"exited {code} with {errors} error rows")
                digest = run.sha256(results)
                entry["results_csv"][digest] = text
                artifacts.append({"results_sha256": digest,
                                  "summary_sha256": run.sha256(summary)})
            entry["variants"][str(variant)] = {
                "configs_sha256": run.configs_digest(configs),
                "artifacts": artifacts}
            print(f"{workload} variant {variant}: {report['wall_s']:.2f} s",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.reference_path(out, workload, size)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the content is unchanged
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(entry, indent=1, sort_keys=True).encode("utf-8"))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    ap.add_argument("--out", type=Path, default=run.REFERENCE_DIR)
    args = ap.parse_args(argv)
    for workload in args.workloads:
        try:
            print(f"wrote {record(workload, 'full', args.out)}")
        except run.BenchmarkError as exc:
            print(f"not recorded: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
