"""Smoke test of the end-to-end benchmark (kept out of tier-1).

Runs every workload at ``--smoke`` size through the real command and
checks the contract of ``BENCHMARK.json``: output schema, verification
passing with ``failed_share == 0``, the traced run naming every
per-layer metric, and a deliberately corrupted reference being caught.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(workload: str, *extra: str) -> dict:
    """One smoke run through the benchmark's command; its result line."""
    command = [sys.executable, *CONTRACT["command"][1:], "--workload", workload, "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_matches_the_contract_and_verifies(workload):
    result = run(workload, "--trace", "0", "--seed", "3")
    check_schema(result, CONTRACT["end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0  # failed_share == 0
    for name, reported in result["metrics"].items():
        assert reported["value"] > 0, f"{name} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run(workload, "--trace", "1")
    check_schema(result, CONTRACT["per_layer"])
    assert result["correct"] is True
    assert 0 < result["metrics"]["budget.coverage_pct"]["value"] <= 110


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_reference_is_counted_as_failed_ops(workload):
    result = run(workload, "--corrupt-reference")
    assert result["correct"] is False
    assert result["failed"] > 0


def test_contract_lists_the_layer_table():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from layers import LAYER_METRICS

    declared = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]}
    assert declared == LAYER_METRICS
