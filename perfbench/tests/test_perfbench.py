"""The benchmark's own tests: frozen counts, declared metrics, smoke runs.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import DP_STATES, END_TO_END, FULL, REACH_POOL, SMOKE, WORKLOADS, layer_units  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# explore at n = 12 takes longer than a test should; its count is frozen alone.
@pytest.mark.parametrize("n", range(2, 12))
def test_frozen_dp_state_counts_match_explore(n):
    from dispersion import explore, flat_clusteron

    assert len(explore(flat_clusteron(n)).nodes) == DP_STATES[n]


def test_reach_pool_holds_one_of_each_mirror_pair_of_nine():
    assert all(sum(p) == 9 and len(p) > 1 and p != (1,) * 9 for p in REACH_POOL)
    keys = {min(p, p[::-1]) for p in REACH_POOL}
    assert len(keys) == len(REACH_POOL) >= 2 * FULL.reach_picks


def test_benchmark_json_declares_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units(FULL)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = layer_units(SMOKE) if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()[:-1]
    assert "fail_ratio 0.0 ratio" in lines
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "monte-carlo", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
