"""The benchmark's own tests: a tiny-size run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric named in BENCHMARK.json prints with its unit,
that the outputs are correct, and that each workload stresses the layer
it claims to (each layer metric is non-zero on the workload named for it).
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

# Layer metric -> the workloads it must be non-zero on.  Left out:
# scan.dense_fallbacks (only near-total selections take the dense scan),
# stats.bytes_paged_per_query (paged scans run in fork workers, whose
# counts die with them), fanout.recovered_groups (no worker dies) and
# trace.overhead_frac (may read either sign at tiny sizes).
NONZERO = {
    "parse.ms_per_query": WORKLOADS,
    "engine.self_ms_per_query": WORKLOADS,
    "store.fetch_ms_per_query": WORKLOADS,
    "store.hit_ratio": ["warm-sweep"],
    "store.labels_drawn_per_query": ["fresh-draw", "cold-table", "batch-disk"],
    "draw.ms_per_query": WORKLOADS,
    "draw.calls": WORKLOADS,
    "label.ms_per_query": ["fresh-draw", "cold-table"],
    "label.records_per_query": WORKLOADS,
    "estimate_tau.self_ms_per_query": ["fresh-draw", "warm-sweep", "cold-table"],
    "materialize.self_ms_per_query": ["fresh-draw", "warm-sweep", "cold-table"],
    "scan.ms_per_query": ["fresh-draw", "warm-sweep", "cold-table"],
    "scan.records_skipped_ratio": ["fresh-draw", "warm-sweep", "cold-table"],
    "scan.strata_touched_per_select": ["fresh-draw", "warm-sweep", "cold-table"],
    "stats.build_ms": WORKLOADS,
    "stats.sorts_performed": ["cold-table"],
    "stats.weight_passes": ["cold-table"],
    "stats.chunks_merged": ["batch-disk"],
    "prewarm.ms_per_batch": ["batch-disk"],
    "fanout.ms_per_batch": ["batch-disk"],
    "fanout.bytes_shipped_per_batch": ["batch-disk"],
    "fanout.stats_inherited": ["batch-disk"],
}

# Metrics that must read exactly 0 outside the named workloads.
ZERO_ELSEWHERE = {
    "stats.sorts_performed": ["cold-table"],
    "prewarm.ms_per_batch": ["batch-disk"],
    "fanout.ms_per_batch": ["batch-disk"],
    "fanout.bytes_shipped_per_batch": ["batch-disk"],
    "fanout.bytes_shm_per_batch": ["batch-disk"],
    "fanout.stats_inherited": ["batch-disk"],
}


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, declared: list[dict]) -> dict:
    stdout, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert f"{workload}: {metric['name']} " in stdout  # printed by name
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    metrics = check_result(workload, 0, SPEC["end_to_end"])
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_move_where_claimed(workload):
    metrics = check_result(workload, 1, SPEC["per_layer"])
    for name, workloads in NONZERO.items():
        if workload in workloads:
            assert metrics[name]["value"] > 0, name
    for name, workloads in ZERO_ELSEWHERE.items():
        if workload not in workloads:
            assert metrics[name]["value"] == 0, name
    if workload == "fresh-draw":
        assert metrics["store.hit_ratio"]["value"] == 0
    if workload == "warm-sweep":
        assert metrics["store.hit_ratio"]["value"] == pytest.approx(1.0)


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
