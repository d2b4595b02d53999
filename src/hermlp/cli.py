"""Command-line front end.

One subcommand per experiment, each driven by a JSON config file, plus
``emit-plot`` for tidy figure data.  ``--seed`` and ``--tolerance-scale``
set the config entries they name: they are validated with the file, and
every violation from either is reported at once.  Exit codes: 0 all
assertions passed, 1 an assertion failed, 2 invalid config or usage, 3 a
computational failure occurred during the run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, PLOT_KINDS, ConfigError, load_config
from .runner import emit_plot_data, run

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermlp",
        description="Desk-scale verification sweeps for concentrated "
                    "oscillator eigenfunctions and their local bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run a {name} experiment config")
        sp.add_argument("--config", required=True,
                        help="path to a JSON experiment config")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
        sp.add_argument("--seed", type=int, default=None,
                        help="the config's seed (every random draw)")
        sp.add_argument("--tolerance-scale", type=float, default=None,
                        help="the config's tolerance_scale (limit loosening)")

    ep = sub.add_parser("emit-plot", help="write tidy CSV data for a figure")
    ep.add_argument("--kind", required=True,
                    help="one of: " + ", ".join(PLOT_KINDS))
    ep.add_argument("--run", default=None,
                    help="completed run directory (for run-derived kinds)")
    ep.add_argument("--out", default=None,
                    help="output CSV path (default: plot-<kind>.csv)")
    ep.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="figure parameter, repeatable (e.g. --param k=100)")
    return parser


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError([f"--param {pair!r}: expected KEY=VALUE"])
        if key in params:
            raise ConfigError([f"--param {key}: given more than once"])
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _run_experiment(args) -> int:
    config = load_config(args.config, {"seed": args.seed,
                                       "tolerance_scale": args.tolerance_scale})
    if config.experiment != args.command:
        raise ConfigError([f"{args.config} is a {config.experiment!r} "
                           f"config, not {args.command!r}"])
    result = run(config, out_dir=args.out)
    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"{status} {a.name}: {a.observed:.6g} {a.op} {a.limit:.6g}")
    failures = result.summary["computational_failures"]
    for item in failures:
        print(f"ERROR cell {item['cell']}: {item['error']}", file=sys.stderr)
    print(f"wrote {result.csv_path}, {result.summary_path}, "
          f"{result.manifest_path}")
    return result.exit_code


def _run_emit_plot(args) -> int:
    out = args.out or f"plot-{args.kind}.csv"
    header, rows = emit_plot_data(args.kind, run_dir=args.run,
                                  params=_parse_params(args.param),
                                  out_path=out)
    print(f"wrote {out} ({len(rows)} rows, columns: {', '.join(header)})")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "emit-plot":
            return _run_emit_plot(args)
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"config error:\n" + "\n".join("  " + v for v in exc.violations),
              file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # crash outside any cell: computational failure
        print(f"computational failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
