"""The benchmark's own tests; run with ``python -m pytest perfbench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import patrolsched.cli as cli
import patrolsched.oracle as oracle
import patrolsched.planner as planner
from tracer import Tracer
from workloads import WORKLOADS, quadratic_costs

HERE = Path(__file__).resolve().parent


def tiny_runner(workload: str, tmp_path: Path) -> harness.Runner:
    ops, _, same = harness.setup(workload, 7, tmp_path / workload, 2, tiny=True)
    assert same, "set-up is not a function of the seed"
    return harness.Runner(cli, ops)


def strip_timings(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("timings")
    return report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_smoke(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    passes = harness.timed_run(runner, seconds=0.2, min_passes=3)
    metrics = harness.end_to_end([(0.1, 0.1), (0.2, 0.3), (0.3, 0.2)], passes, runner)
    assert runner.failed == 0, runner.errors
    assert set(metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())
    assert len(passes) >= 3 and all(len(p) == len(runner.ops) for p in passes)
    assert metrics["op_p50_ms"][1] == len(passes) * len(runner.ops)
    assert all(r.scaled > 0 for p in passes for r in p)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    original = planner.lower_bound
    traced = harness.traced_run(runner, Tracer(), seconds=0.01)
    metrics, problems = harness.per_layer(traced, runner)
    assert runner.failed == 0, runner.errors
    assert problems == []
    assert set(metrics) == set(harness.per_layer_units())
    assert metrics["cli.main.calls"][0] == len(runner.ops)
    assert planner.lower_bound is original is oracle.lower_bound


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_match(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    untraced = []
    for i, op in enumerate(runner.ops):
        runner.execute(i)
        untraced.append(strip_timings(op.out))
    tracer = Tracer()
    with tracer:
        for i, op in enumerate(runner.ops):
            runner.execute(i, tracer)
            assert strip_timings(op.out) == untraced[i]
    assert runner.failed == 0, runner.errors
    assert tracer.summary()["cli.main"]["calls"] == len(runner.ops)


def test_speed_scales_by_recent_probes():
    speed = harness.Speed(window=3)
    speed.recent.extend([4e-3, 1e-3, 2e-3, 2e-3])  # the window drops 4e-3
    assert speed.scale() == harness.PROBE_REF_S / 2e-3
    speed.tick()  # never probed, so it probes now
    assert len(speed.recent) == 3 and speed.recent[-1] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans += [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("a", 5.0, 6.0, 0, 0)]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "total_s": 10.0, "self_s": 7.0}
    assert summary["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    runner = tiny_runner("plan-graded", tmp_path)

    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "plan", broken)
    passes = harness.timed_run(runner, seconds=0.2, min_passes=2)
    assert len(passes) >= 2
    assert runner.failed == runner.attempted
    assert "ZeroDivisionError" in runner.errors[0]
    monkeypatch.undo()
    result = runner.execute(0)
    assert result.ok


def test_failed_check_counts_as_failed(tmp_path):
    runner = tiny_runner("desk", tmp_path)
    # oracle-opt is checked against the oracle-tsp value run before it.
    runner.memo[("tsp", 0)] = 1e9
    runner.execute(1)
    assert runner.failed == 1
    assert "oracle-opt vs oracle-tsp" in runner.errors[0]


def test_quadratic_costs_match_program(tmp_path):
    from patrolsched import RandomSpec, Schedule, generate_random, point_cost
    inst = generate_random(RandomSpec(n=7), 3)
    visits = [0, 1, 2, 3, 4, 5, 6, 2, 2, 0, 4, 0]
    ours = quadratic_costs(visits, inst.dist)
    for x in range(inst.n):
        assert ours[x] == pytest.approx(point_cost(Schedule(tuple(visits)), x, inst, 2.0),
                                        rel=1e-12)


def test_cli_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
