"""One pass of a workload in a fresh interpreter, as a CLI user runs hermlp.

usage: child.py SRC CONFIGS OUT [--trace]

Imports hermlp from SRC, parses the config dicts in the JSON file CONFIGS,
runs them one after another through ``runner.run`` with artifacts under
OUT/<index>/, and prints one JSON line: the monotonic time at which the
configs were ready, wall and CPU seconds across the ``runner.run`` calls,
peak resident memory, exit codes, row count, the BLAS it ran with and, with
--trace, the per-layer report of ``layertrace``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine(parsed) -> dict:
    import platform

    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "blas": None, "blas_version": None,
            "blas_threads": _blas_threads(),
            "runner_threads": sorted({c.threads for c in parsed})}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), \
            blas.get("version")
    except (TypeError, KeyError):
        pass
    return info


def main(argv) -> int:
    src, configs_path, out = Path(argv[0]).resolve(), argv[1], Path(argv[2])
    traced = argv[3:] == ["--trace"]
    sys.path.insert(0, str(src))
    from hermlp import config, runner

    if src not in Path(config.__file__).resolve().parents:
        print(f"hermlp was imported from {config.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    with open(configs_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    parsed = [config.parse_config(data) for data in raw]
    ready = time.monotonic()

    wall = cpu = 0.0
    exit_codes, rows = [], 0
    for index, cfg in enumerate(parsed):
        w0, c0 = time.perf_counter(), time.process_time()
        result = runner.run(cfg, out_dir=out / str(index))
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        exit_codes.append(result.exit_code)
        rows += result.summary["row_count"]

    report = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "exit_codes": exit_codes, "rows": rows,
        "machine": _machine(parsed),
        "trace": tracer.report() if tracer is not None else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
