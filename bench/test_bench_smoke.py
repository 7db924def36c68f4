"""Smoke test of the benchmark: the smallest shape of each workload, one seed.

Checks that a run exits cleanly, that its last line parses, and that it
emits every metric BENCHMARK.json lists, each with its unit.  Timings are
not checked here.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(script, workload, trace, out_dir, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(script),
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
            "--out-dir",
            str(out_dir),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_listed_metric(workload, trace, section, tmp_path):
    result = result_of(run_bench(BENCH / "run.py", workload, trace, tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])


def test_trace_counts_repeat_exactly(tmp_path):
    first, second = (
        result_of(run_bench(BENCH / "run.py", "factor-rankdef", 1, tmp_path / d))
        for d in ("a", "b")
    )
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    counts.remove("trace.overhead")
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path / "bench" / "run.py", WORKLOADS[0], 0, tmp_path / "out", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
