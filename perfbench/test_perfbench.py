"""Self-test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from perfbench import run
from perfbench.workloads import EXPECTED_PATH, ROOT, TMP_DIR, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))


def bench(*args):
    """Run the benchmark command at tiny sizes; returns (code, result, out)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0.3",
         "--profile", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_command():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_emits_every_declared_metric(workload, trace):
    code, result, out = bench("--workload", workload, "--trace", trace)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["fabric_des", "chaos_load", "suite_e12"])
def test_corrupted_expected_value_fails_the_command(workload):
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    rows = expected[workload]["tiny"]
    key = "all" if workload == "suite_e12" else "0"
    if workload == "fabric_des":
        rows[key]["metrics"]["trace_sha256"] = "0" * 64
    else:
        rows[key] = "0" * 64
    os.makedirs(TMP_DIR, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", dir=TMP_DIR, delete=False
    ) as handle:
        json.dump(expected, handle)
    try:
        code, result, out = bench("--workload", workload, "--trace", "0",
                                  "--expected", handle.name)
    finally:
        os.unlink(handle.name)
    assert code == 1, out
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_a_failed_job_raises_the_error_rate():
    workload = WORKLOADS["service_jobs"]("tiny", 0)
    try:
        workload.start()
        assert workload.unit(None).failed == 0
        # E1 rejects a non-positive interview count, so every fresh job
        # now ends failed.
        workload.overrides = {"n_interviews": -5}
        outcome = workload.unit(None)
    finally:
        workload.close()
    assert 0 < outcome.failed <= outcome.attempted
    assert any("ended failed" in problem for problem in outcome.problems)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_mode_writes_spans_whose_parents_resolve(workload):
    code, result, out = bench("--workload", workload, "--trace", "1")
    assert code == 0, out
    path = os.path.join(ROOT, ".perfbench_out", f"spans-{workload}-0.jsonl")
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert len(spans) > 1
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)
    assert "trace.overhead_s" in out


def test_refuses_to_run_without_the_library_source():
    os.makedirs(TMP_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as bare:
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fabric_des",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
