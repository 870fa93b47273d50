"""Smoke test of the e2e benchmark in ``--quick`` mode.

Runs only when its path is given (tier-1 collects ``tests/`` alone)::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 11


def run_benchmark(*extra: str, json_out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", str(SEED),
         "--json", str(json_out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    passes = json.loads(json_out.read_text(encoding="utf-8"))["passes"]
    assert len(passes) == 1
    assert passes[0]["seed"] == SEED and passes[0]["python"]
    return passes[0]["workloads"]


def assert_emitted(results: dict, key: str) -> None:
    for workload in WORKLOADS:
        emitted = results[workload][key]
        for metric in SPEC[key]:
            assert emitted[metric["name"]]["unit"] == metric["unit"], (
                workload, metric["name"])


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return [
        run_benchmark("--trace", "1", json_out=out / f"trace{i}.json")
        for i in range(2)
    ]


def test_end_to_end_metrics_emitted_without_failures(tmp_path):
    results = run_benchmark(json_out=tmp_path / "e2e.json")
    assert_emitted(results, "end_to_end")
    for workload in WORKLOADS:
        assert results[workload]["extra"]["failed_fraction"]["value"] == 0
        assert results[workload]["failed"] == 0


def test_per_layer_metrics_emitted(traced_twice):
    for results in traced_twice:
        assert_emitted(results, "per_layer")


def test_counts_repeat_exactly_for_the_same_seed(traced_twice):
    first, second = traced_twice
    for workload in WORKLOADS:
        assert (first[workload]["extra"]["ios_per_query"]
                == second[workload]["extra"]["ios_per_query"])
        assert first[workload]["counters"] == second[workload]["counters"]
        for metric in SPEC["per_layer"]:
            if metric["unit"] in ("count", "ratio"):
                name = metric["name"]
                assert (first[workload]["per_layer"][name]["value"]
                        == second[workload]["per_layer"][name]["value"]), (
                    workload, name)
