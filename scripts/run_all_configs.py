#!/usr/bin/env python3
"""Run every shipped experiment config and report a pass/fail table.

Each config in configs/ is executed once, writing its artifacts under the
output root.  The process exit code is the worst per-run code (3 beats 1
beats 0), so CI can gate on this script alone.  --quick skips the one
long-running sweep.  --compare DIR then byte-compares each config's
results.csv and summary.json with DIR/<config>/ (the output root of an
earlier run, say of another commit), prints the files that differ and,
under each, one line per moved value, and exits 1 on any difference.
A results.csv line names the row (numbered from 1 below the header, with
its first column), the column, the reference value, the new value and
the relative change; a summary.json line names the assertion field or
metric.  A changed header or row count is named a shape change, and a
value that is not a number a text change.  An --only name that matches
no config exits 2 before anything runs.  Each computational failure is
printed to stderr.
"""

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from hermlp.config import ConfigError, load_config
from hermlp.runner import run

SLOW = {"saturate-sweep"}
COMPARED = ("results.csv", "summary.json")


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs-dir", default=repo / "configs", type=Path)
    ap.add_argument("--out-root", default=repo / "runs", type=Path)
    ap.add_argument("--quick", action="store_true",
                    help="skip the long sweep configs: " + ", ".join(SLOW))
    ap.add_argument("--only", action="append", default=[],
                    help="run just these config names (repeatable)")
    ap.add_argument("--compare", type=Path, default=None, metavar="DIR",
                    help="byte-compare " + " and ".join(COMPARED)
                    + " with DIR/<config>/ after the run")
    args = ap.parse_args()

    paths = sorted(args.configs_dir.glob("*.json"))
    unknown = sorted(set(args.only) - {p.stem for p in paths})
    if unknown:
        print(f"no config named {', '.join(unknown)} in {args.configs_dir}",
              file=sys.stderr)
        return 2
    if args.only:
        paths = [p for p in paths if p.stem in args.only]
    if not paths:
        print(f"no configs found in {args.configs_dir}", file=sys.stderr)
        return 2

    worst = 0
    report = []
    ran = []
    for path in paths:
        if args.quick and path.stem in SLOW:
            report.append((path.stem, "skipped", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            config = load_config(path)
        except ConfigError as exc:
            print(f"{path.stem}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            report.append((path.stem, "config error", 0.0))
            continue
        result = run(config, out_dir=args.out_root / path.stem)
        ran.append(path.stem)
        for a in result.assertions:
            mark = "PASS" if a.passed else "FAIL"
            print(f"{path.stem}: {mark} {a.name}: "
                  f"{a.observed:.6g} {a.op} {a.limit:.6g}")
        for item in result.summary["computational_failures"]:
            print(f"{path.stem}: ERROR cell {item['cell']}: {item['error']}",
                  file=sys.stderr)
        worst = max(worst, result.exit_code)
        verdict = {0: "pass", 1: "ASSERTION FAIL"}.get(
            result.exit_code, "COMPUTE FAIL")
        report.append((path.stem, verdict, time.perf_counter() - t0))

    print()
    width = max(len(name) for name, _, _ in report)
    for name, verdict, dt in report:
        print(f"{name:<{width}}  {verdict:<14}  {dt:8.1f}s")
    if args.compare is not None:
        differ = [Path(name) / artifact for name in ran for artifact in COMPARED
                  if not _same_bytes(args.out_root / name / artifact,
                                     args.compare / name / artifact)]
        print()
        for rel in differ:
            print(f"differs from {args.compare}: {rel}")
            for line in _moved(args.out_root / rel, args.compare / rel):
                print(f"  {rel.parent}: {rel.name} {line}")
        print(f"compared {len(ran) * len(COMPARED)} files with "
              f"{args.compare}: {len(differ)} differ")
        if differ:
            worst = max(worst, 1)
    return worst


def _same_bytes(a: Path, b: Path) -> bool:
    return b.is_file() and a.read_bytes() == b.read_bytes()


def _moved(new: Path, old: Path) -> list:
    """What moved from the reference artifact ``old`` to ``new``, a line
    per value."""
    if not old.is_file():
        return ["is missing from the reference"]
    if new.suffix == ".csv":
        lines = _csv_moves(_read_csv(old), _read_csv(new))
    else:
        lines = _summary_moves(_summary_values(old), _summary_values(new))
    return lines or ["differs in its bytes, in no value"]


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh)) or [[]]


def _csv_moves(old: list, new: list) -> list:
    (header, *old_rows), (new_header, *new_rows) = old, new
    if header != new_header:
        return [f"header: shape change, {len(header)} -> {len(new_header)}"
                f" columns ({','.join(header)} -> {','.join(new_header)})"]
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(f"rows: shape change, {len(old_rows)} -> "
                     f"{len(new_rows)}")
    for number, (row, new_row) in enumerate(zip(old_rows, new_rows), 1):
        if len(row) != len(new_row):
            lines.append(f"row {number}: shape change, {len(row)} -> "
                         f"{len(new_row)} cells")
            continue
        for column, a, b in zip(header, row, new_row):
            if a != b:
                lines.append(f"row {number} ({row[0]}) {column}: "
                             + _change(a, b))
    return lines


def _summary_values(path: Path) -> dict:
    """summary.json flattened: one key per assertion field and metric."""
    data = json.loads(path.read_text(encoding="utf-8"))
    values = {}
    for item in data.pop("assertions", []):
        for field, value in item.items():
            if field != "name":
                values[f"assertion {item.get('name')} {field}"] = value
    for key, value in data.pop("metrics", {}).items():
        values[f"metric {key}"] = value
    values.update(data)
    return values


def _summary_moves(old: dict, new: dict) -> list:
    lines = []
    for key in dict.fromkeys([*old, *new]):
        if key not in new:
            lines.append(f"{key}: only in the reference")
        elif key not in old:
            lines.append(f"{key}: not in the reference")
        elif old[key] != new[key]:
            lines.append(f"{key}: "
                         + _change(json.dumps(old[key]), json.dumps(new[key])))
    return lines


def _change(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return f"{old} -> {new} (text change)"
    if a == b:
        rel = 0.0
    else:
        rel = (b - a) / abs(a) if a else math.copysign(math.inf, b)
    return f"{old} -> {new} (rel {rel:+.3g})"


if __name__ == "__main__":
    sys.exit(main())
