"""Smoke tests of the benchmark itself, on tiny instances.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# checks that fail only when the benchmark, not the library, is wrong
SELF_CHECKS = ("check.determinism", "check.trace_mismatch")


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def smoke(workload, seed, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, result = smoke(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    for key in ("git_sha", "src_sha256", "python", "numpy", "scipy",
                "blas", "nproc", "cpu_model", "seed"):
        assert key in record["provenance"]
    assert set(record["provenance"]["threads"].values()) == {"1"}
    assert not set(SELF_CHECKS) & set(record["failures_by_stage"])


def test_runs_repeat_exactly_and_a_changed_result_is_a_failure():
    workload = "outlier_train_n200"
    first, _ = smoke(workload, 5, 0)
    again, _ = smoke(workload, 5, 1)
    assert not set(SELF_CHECKS) & set(again["failures_by_stage"])
    ledgers = list((HERE / "out" / "ledger").glob(
        f"{workload}-smoke-seed5-*.json"))
    assert len(ledgers) == 1
    entries = json.loads(ledgers[0].read_text())
    entries["0"] = "0" * 32  # as if an earlier run had another result
    ledgers[0].write_text(json.dumps(entries))
    record, result = smoke(workload, 5, 0)
    assert record["failures_by_stage"]["check.determinism"] == 1
    assert result["correct"] is False
    ledgers[0].unlink()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
