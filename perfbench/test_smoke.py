"""Smoke test of the benchmark: every workload path at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload runs in both modes, passes its answer checks and
emits exactly the metrics BENCHMARK.json names, each with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert json.loads(record_line)["record"]["csv_sha256"]


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_same_seed_gives_same_csv():
    digests = [
        json.loads(run_bench(ROOT, "jl-sweep-rand8", 0, seed=5).stdout.splitlines()[-2])
        ["record"]["csv_sha256"]
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "scan-diag01", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
