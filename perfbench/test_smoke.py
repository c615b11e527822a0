"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that a run prints exactly the metric names and units BENCHMARK.json
declares, that a wrong answer makes the run incorrect while a documented
seed failure does not, and that the benchmark refuses to run without the
bandpos source.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_bandpos()

from ops import wrong  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def small(limit):
    """Keep the operations whose label ends in an order of at most limit."""

    def adjust(ops):
        orders = [op.label.rsplit("/", 1)[-1] for op in ops]
        return [op for op, n in zip(ops, orders) if n.isdigit() and int(n) <= limit]

    return adjust


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_and_units(workload):
    _, result = run.run(workload, 1, 0.0, False, adjust_ops=lambda ops: ops[:4], min_ops=4)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result) == declared("end_to_end")
    assert result["correct"] is True
    assert result["attempted"] >= 4
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_per_layer_metrics_and_units():
    lines, result = run.run("band-verdicts", 1, 0.0, True, adjust_ops=small(24), min_ops=4)
    assert units(result) == declared("per_layer")
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["positivity.leading_principal_minors.calls"]["value"] > 0
    assert metrics["graphs.is_chordal.calls"]["value"] == 0
    assert any(line.startswith("spans written to") for line in lines)


def test_wrong_answer_fails_the_gate():
    def plant(ops):
        return [replace(ops[0], check=lambda value: wrong("planted"))] + ops[1:3]

    _, result = run.run("chordal-patterns", 1, 0.0, False, adjust_ops=plant, min_ops=3)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_seed_failure_is_counted_but_expected():
    def exact_minors_above_12(ops):
        return [op for op in ops if op.label == "check-positivity/tridiagonal/PD/16"]

    _, result = run.run("cli-exact", 1, 0.0, False, adjust_ops=exact_minors_above_12, min_ops=2)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is True


def test_refuses_to_run_without_bandpos(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "band-verdicts"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
