"""Smoke test: every workload's full stage list on tiny inputs.

    python3 -m pytest -q glbabench/test_smoke.py

Checks that a run passes its output checks and emits every metric named in
BENCHMARK.json with its unit, untraced and traced, without the long runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, seed=3):
    cmd = [sys.executable, "glbabench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_for_a_seed():
    first = _run("learned-gamma", 1, seed=5)["metrics"]
    second = _run("learned-gamma", 1, seed=5)["metrics"]
    counts = ("ingest.pairs", "model.iterations", "model.eb_rounds", "model.pair_updates")
    counts += ("baselines.ds_iterations", "scoring.spammer_precision", "baselines.ds_precision")
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_sources():
    bare = ROOT / ".glbabench-work" / "without-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "glbabench", bare / "glbabench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "glbabench/run.py", "--workload", "large", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
