"""Smoke test of the benchmark harness: one traced tiny pass of each
workload through ``perfbench/child.py``, on this checkout's source.

The harness reads hermlp in ways no other test covers: ``child.py`` reads
``ExperimentConfig.threads`` and calls ``runner.run(cfg, out_dir=...)``, and
``layertrace.Tracer.install`` wraps and rebinds every public layer function.
A change to any of these breaks only the benchmark, so each workload's
configs run here as the benchmark sends them, with every artifact written
under the test's own directory.  The perfbench files are only run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_child_runs_traced_tiny_workload(tmp_path, workload):
    configs = WORKLOADS.configs(workload, 0, "tiny")
    configs_path = tmp_path / "configs.json"
    configs_path.write_text(json.dumps(configs), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(REPO / "src"),
         str(configs_path), str(tmp_path / "out"), "--trace"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["exit_codes"] == [0] * len(configs)
    assert report["rows"] > 0
    assert report["machine"]["runner_threads"] == [1]
    trace = report["trace"]
    assert trace["spans"] > 0
    assert trace["metrics"]["runner.calls"] == len(configs)
    assert trace["metrics"]["runner.rows"] == report["rows"]
    for index in range(len(configs)):
        assert (tmp_path / "out" / str(index) / "summary.json").is_file()
