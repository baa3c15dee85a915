"""Smoke test of the benchmark: every workload at tiny sizes, traced and not.

    python3 -m pytest perfbench/test_smoke.py

Each run must print every metric once, with its unit, and end with the
JSON result line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_once_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    expected = dict(run.PER_LAYER if trace else run.END_TO_END + run.END_TO_END_PRINTED)
    printed = [m.groups() for m in map(METRIC_LINE.match, lines) if m]
    assert sorted(name for name, _, _ in printed) == sorted(expected)
    for name, value, unit in printed:
        assert unit == expected[name]
        float(value)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.PER_LAYER if trace else run.END_TO_END)


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES


def test_fails_without_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench("report_suite", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
