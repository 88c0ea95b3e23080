"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The repeat tests run two workloads end to end twice each (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("record: ")
    return json.loads(lines[-2][len("record: "):]), json.loads(lines[-1])


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_subtracts_children_and_nesting_counts_once():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["policy.waterfill", 1.0, 4.0, 0],
        ["popularity.partial_sum", 2.0, 3.0, 1],
        ["popularity.partial_sum", 2.2, 2.7, 2],  # nested in a span of its own name
        ["policy.waterfill", 5.0, 6.0, 0],
    ]
    agg = run.aggregate_spans(spans)
    assert agg["cli.main"] == pytest.approx([10.0, 6.0, 1])
    assert agg["policy.waterfill"] == pytest.approx([4.0, 3.0, 2])
    assert agg["popularity.partial_sum"] == pytest.approx([1.0, 1.0, 2])


@pytest.mark.parametrize("workload", ["sweep-grid", "fit-wide"])
def test_same_seed_gives_same_digests_and_counts(workload):
    (rec1, res1), (rec2, res2) = (parse(bench(workload, 7, trace=1)) for _ in range(2))
    assert res1["correct"] and res2["correct"]
    assert res1["failed"] == res2["failed"] == 0
    assert rec1["digests"] and rec1["digests"] == rec2["digests"]
    for name in run.EXACT:
        assert res1["metrics"][name] == res2["metrics"][name], name
    assert set(res1["metrics"]) == {name for name, _, _ in run.PER_LAYER}


def test_plain_run_reports_every_end_to_end_metric():
    record, result = parse(bench("sweep-grid", 1, trace=0))
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["environment"]["workload_seed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("sweep-grid", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
