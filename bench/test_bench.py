"""Self-test of the benchmark: short runs print every metric by name with
its unit, every output matches its reference, and without forlean's
sources the benchmark fails without printing a result.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
# printed by every run, outside the result's metrics: the result carries it
# as "failed" over "attempted"
FAIL_RATIO = ("fail_ratio", "ratio")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7"]
    command += ["--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def check_printed(done: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    named = [(m["name"], m["unit"]) for m in metrics]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(named)
    for name, unit in named + [FAIL_RATIO]:
        printed = [line for line in lines if line.startswith(f"{name} = ")]
        assert len(printed) == 1 and printed[0].split()[3] == unit, name
    assert any(line.startswith("fail_ratio = 0.0 ratio") for line in lines)
    return result


def test_untraced_corpus_run_prints_every_end_to_end_metric():
    result = check_printed(run(ROOT, "corpus", 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    check_printed(run(ROOT, workload, 1), SPEC["per_layer"])


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "corpus", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
