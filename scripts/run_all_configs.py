#!/usr/bin/env python3
"""Run every shipped experiment config and report a pass/fail table.

Each config in configs/ is executed once, writing its artifacts under the
output root.  The process exit code is the worst per-run code (3 beats 1
beats 0), so CI can gate on this script alone.  --quick skips the one
long-running sweep.  --compare DIR then byte-compares each config's
results.csv and summary.json with DIR/<config>/ (the output root of an
earlier run, say of another commit), prints the files that differ and
exits 1 on any difference.  An --only name that matches no config exits 2
before anything runs.  Each computational failure is printed to stderr.
"""

import argparse
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
        print(f"compared {len(ran) * len(COMPARED)} files with "
              f"{args.compare}: {len(differ)} differ")
        if differ:
            worst = max(worst, 1)
    return worst


def _same_bytes(a: Path, b: Path) -> bool:
    return b.is_file() and a.read_bytes() == b.read_bytes()


if __name__ == "__main__":
    sys.exit(main())
