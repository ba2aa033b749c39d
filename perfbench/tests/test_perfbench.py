"""Self-tests of the repository benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use tiny inputs (``--smoke``), so the whole file takes
well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._check_checkout()

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _benchmark_metrics(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


def _cli(*arguments: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *arguments],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def _args(workload: str, trace: int = 0, seed: int = 0) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=seed, seconds=0.0, trace=trace, smoke=True
    )


def test_smoke_all_workloads_pass_their_output_checks():
    completed = _cli("--workload", "all", "--smoke", "--seconds", "1")
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    report = "\n".join(lines[:-1])
    for label in ("cells_per_s", "clients_per_s", "checkpoints_per_s", "failed_share"):
        assert label in report
    for workload in run.WORKLOADS:
        for metric in _benchmark_metrics("end_to_end"):
            value = result["metrics"][f"{workload}.{metric}"]["value"]
            assert value > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run_workload(_args(workload, trace=1))
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == _benchmark_metrics("per_layer")
    assert result["metrics"]["netsim.events"]["value"] > 0
    assert result["metrics"]["host.seed_loop_events_per_s"]["value"] > 0
    if workload == "chaos_campaign":
        assert result["metrics"]["chaos.resim_ratio"]["value"] > 1.0
        assert result["metrics"]["store.records"]["value"] > 0
        assert result["metrics"]["faults.dropped"]["value"] > 0
    else:
        assert result["metrics"]["faults.dropped"]["value"] == 0


def test_wrong_expectation_is_counted_as_failed(monkeypatch):
    good = run.load_expected("smoke", "table2_grid")
    bad = json.loads(json.dumps(good))
    key = next(iter(bad["outputs"]))
    bad["outputs"][key][1] += 0.5  # attack minutes off by half a minute
    monkeypatch.setattr(run, "load_expected", lambda mode, workload: bad)
    result = run.run_workload(_args("table2_grid"))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_drift_in_exact_counts_is_a_determinism_failure():
    checker = run.Checker(None)
    first = workloads.PassResult(
        wall=1.0, work=1, outputs={"op": "a"}, counts={"netsim.events": 10}, sim_seconds=1.0
    )
    drifted = workloads.PassResult(
        wall=1.0, work=1, outputs={"op": "a"}, counts={"netsim.events": 11}, sim_seconds=1.0
    )
    checker.check(0, first)
    checker.check(1, drifted)
    assert checker.failed == 1
    assert any("determinism" in problem for problem in checker.problems)


def test_expected_outputs_hold_the_golden_table2_cell():
    cell = run.load_expected("full", "table2_grid")["outputs"]["ntpd/P1/seed5"]
    assert cell == [True, 15.5, -500.00999995431766, 48106]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = _cli(
        "--workload", "table2_grid", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.trace_id = "t"
    with tracer.span("parent") as parent:
        with tracer.span("child") as child:
            pass
    children = tracer.children()
    assert child.parent_id == parent.span_id
    assert tracer.self_time(parent, children) == pytest.approx(
        parent.duration - child.duration
    )
    assert tracer.totals("t", self_time=True)["child"] == child.duration


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run._tail(list(range(19))) == (0.0, 0.0)
    assert run._tail(list(range(20)))[0] == 50.0
    assert run._tail(list(range(40)))[0] == 75.0
    assert run._tail(list(range(100)))[0] == 90.0
