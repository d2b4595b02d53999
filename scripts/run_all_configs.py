#!/usr/bin/env python3
"""Run every shipped experiment config and report a pass/fail table.

Each config in configs/ is executed once, writing its artifacts under the
output root.  The process exit code is the worst per-run code (3 beats 1
beats 0), so CI can gate on this script alone.  --quick skips the one
long-running sweep.
"""

import argparse
import sys
import time
from pathlib import Path

from hermlp.config import ConfigError, load_config
from hermlp.runner import run

SLOW = {"saturate-sweep"}


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs-dir", default=repo / "configs", type=Path)
    ap.add_argument("--out-root", default=repo / "runs", type=Path)
    ap.add_argument("--quick", action="store_true",
                    help="skip the long sweep configs: " + ", ".join(SLOW))
    ap.add_argument("--only", action="append", default=[],
                    help="run just these config names (repeatable)")
    args = ap.parse_args()

    paths = sorted(args.configs_dir.glob("*.json"))
    if args.only:
        paths = [p for p in paths if p.stem in args.only]
    if not paths:
        print(f"no configs found in {args.configs_dir}", file=sys.stderr)
        return 2

    worst = 0
    report = []
    for path in paths:
        if args.quick and path.stem in SLOW:
            report.append((path.stem, "skipped", 0.0))
            continue
        t0 = time.time()
        try:
            config = load_config(path)
        except ConfigError as exc:
            print(f"{path.stem}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            report.append((path.stem, "config error", 0.0))
            continue
        result = run(config, out_dir=args.out_root / path.stem)
        for a in result.assertions:
            mark = "PASS" if a.passed else "FAIL"
            print(f"{path.stem}: {mark} {a.name}: "
                  f"{a.observed:.6g} {a.op} {a.limit:.6g}")
        worst = max(worst, result.exit_code)
        verdict = {0: "pass", 1: "ASSERTION FAIL"}.get(
            result.exit_code, "COMPUTE FAIL")
        report.append((path.stem, verdict, time.time() - t0))

    print()
    width = max(len(name) for name, _, _ in report)
    for name, verdict, dt in report:
        print(f"{name:<{width}}  {verdict:<14}  {dt:8.1f}s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
