"""Closed-loop runner: timed runs, traced runs and the metrics they report.

One caller in one thread runs the workload's ops through
``patrolsched.cli.main`` in-process, with stdout and stderr captured, and
starts the next op only after the previous one returned.  Every op's report
is checked; an op that raises, exits non-zero or fails its check counts as
failed and the run goes on.  A repeated op must write the same report as
its first run (``timings`` excepted).

The host's speed drifts by a third within a minute on a shared machine, so
every timing is scaled to a reference speed: a fixed probe loop (the
benchmark's own code, never the program's) runs between operations, and a
time ``t`` measured while the probe takes ``p`` is reported as
``t * PROBE_REF_S / p``.  The raw wall-clock values are kept beside them.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import ModuleType
from typing import Any

import numpy as np

from tracer import Tracer
from workloads import Op, build

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
WARMUP_OPS = 5
MIN_PASSES = 2
# A timing is scaled to a machine on which one probe takes PROBE_REF_S.
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.02
PROBE_WINDOW = 5
SETUP_PROBES = 10

END_TO_END = {  # name -> unit
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ratio_gmean": "ratio",
}

# Functions whose calls and self time the traced run reports, by defining module.
TRACED_CALLS = (
    "oracle.lower_bound", "instance.validate_metric", "treecover.minmax_tree_cover",
    "treecover.decompose_tree", "mst.minimum_spanning_tree", "schedule.weighted_objective",
    "schedule.point_cost", "schedule.absence_profile", "schedule.period_length",
    "security.per_target_best", "security.attacker_best_response", "security.mix_tours",
    "cli.main",
)
TRACED_SELF = (
    "instance.load_instance", "mst.euler_shortcut", "planner.plan", "planner.round_weights",
    "planner.build_class_tours", "planner.build_lists", "planner.emit_schedule",
    "oracle.held_karp_tsp", "oracle.brute_force_weighted_opt",
    "oracle.partition_tree_cover_oracle",
)
TRACED_TOTAL = ("oracle.lower_bound",)
COUNTERS = (
    "instance.points", "instance.triangle_triples", "oracle.lower_bound.levels",
    "planner.classes", "planner.tours", "planner.phases", "planner.visits", "security.gaps",
)
PROCESS = ("process.cpu_s", "process.wait_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in TRACED_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in TRACED_SELF:
        units[f"{name}.self_s"] = "s"
    for name in TRACED_TOTAL:
        units[f"{name}.total_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for name in PROCESS:
        units[name] = "s"
    return units


def _probe() -> float:
    """Fixed reference work, ~1 ms: an interpreter loop, small numpy calls
    and building lists and a dict of floats, the kinds of work the program
    does.  The garbage collector is off while it runs, so its time does not
    depend on the size of the heap the program left behind."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(7200):
            total += i * i % 7
        a = np.arange(256.0)
        for _ in range(36):
            a = np.sqrt(a + 1.0)
        xs = [i * 0.5 for i in range(3600)]
        ys = [x + y for x, y in zip(xs, xs[1:])]
        table = {i: y for i, y in enumerate(ys[:1200])}
        return total + sum(ys) + len(table)
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Tracks the host's speed with the probe, run at most every
    ``PROBE_EVERY_S``; ``scale`` is the reference over the median of the
    last ``window`` probe times (all of them if ``window`` is None)."""

    def __init__(self, window: int | None = PROBE_WINDOW) -> None:
        self.recent: deque[float] = deque(maxlen=window)
        self.last = -math.inf

    def sample(self) -> None:
        start = perf_counter()
        _probe()
        self.last = perf_counter()
        self.recent.append(self.last - start)

    def tick(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.recent)


@dataclass
class OpResult:
    ok: bool
    latency: float
    scaled: float = 0.0
    ratio: float | None = None
    counters: dict[str, int] = field(default_factory=dict)


def _digest(report: dict[str, Any]) -> str:
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs ops one at a time and keeps the counts, errors and cross-op memo."""

    def __init__(self, cli: ModuleType, ops: list[Op]):
        self.cli = cli
        self.ops = ops
        self.memo: dict[Any, Any] = {}
        self.digests: dict[int, str] = {}
        self.first: dict[int, OpResult] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.next_op_id = 0
        self.speed = Speed()

    def execute(self, index: int, tracer: Tracer | None = None) -> OpResult:
        op = self.ops[index]
        op.out.unlink(missing_ok=True)
        sink = io.StringIO()
        error = None
        self.speed.tick()
        if tracer is not None:
            tracer.op = self.next_op_id
        self.next_op_id += 1
        with redirect_stdout(sink), redirect_stderr(sink):
            start = perf_counter()
            try:
                # Looked up on every call so that the tracer's wrapper is used.
                code = self.cli.main(op.argv)
            except Exception as exc:  # an op that raises fails; the run goes on
                code, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = perf_counter() - start
        if tracer is not None:
            tracer.op = None
        result = OpResult(ok=False, latency=latency, scaled=latency * self.speed.scale())
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        if error is None:
            try:
                report = json.loads(op.out.read_text())
                result.ratio, counters = op.check(report, self.memo)
                result.counters = {**op.counters, **counters}
                digest = _digest(report)
                if self.digests.setdefault(index, digest) != digest:
                    error = "report differs from this op's first report"
            except Exception as exc:  # a malformed report fails its op
                error = f"check failed: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is None:
            result.ok = True
            self.first.setdefault(index, result)
        else:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"op {index} ({op.command}): {error}")
        return result

    def pass_counters(self) -> dict[str, int]:
        """Work counters summed over one pass (first successful run of each op)."""
        totals = dict.fromkeys(COUNTERS, 0)
        for res in self.first.values():
            for name, value in res.counters.items():
                totals[name] += value
        return totals

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.first.values() if r.ratio is not None]


def setup(workload: str, seed: int, workdir: Path, repeats: int, budget_s: float = 0.0,
          tiny: bool = False) -> tuple[list[Op], list[tuple[float, float]], bool]:
    """Build the inputs at least ``repeats`` times, and more (up to
    ``SETUP_MAX_REPEATS``) while under ``budget_s`` in all, so that a short
    set-up is timed often enough for a steady median.  Returns the ops, the
    (wall, scaled) set-up times and whether every build wrote
    byte-identical files.  ``SETUP_PROBES`` probes run before each build
    and after the last, and every build is scaled by the median of all of
    them: a build lasts up to seconds, longer than the host's speed holds
    still, so probes next to one build track its speed worse than the
    set-up's mean."""
    walls: list[float] = []
    digests, ops = set(), []
    speed = Speed(window=None)
    while len(walls) < repeats or (sum(walls) < budget_s
                                   and len(walls) < SETUP_MAX_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        for _ in range(SETUP_PROBES):
            speed.sample()
        start = perf_counter()
        ops = build(workload, seed, workdir, tiny)
        walls.append(perf_counter() - start)
        h = hashlib.sha256()
        for path in sorted(workdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.add(h.hexdigest())
    for _ in range(SETUP_PROBES):
        speed.sample()
    scale = speed.scale()
    return ops, [(wall, wall * scale) for wall in walls], len(digests) == 1


def gmean(values: list[float]) -> float:
    """Geometric mean; 0 for no values (every op failed)."""
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def timed_run(runner: Runner, seconds: float, min_passes: int = MIN_PASSES) -> list[list[OpResult]]:
    """Warm up, then run complete passes over every op for ``seconds``.

    Runs at least ``min_passes`` passes, but stops at three times
    ``seconds`` once one pass is complete; a pass cut short is dropped from
    the timings.  Returns the results of each complete pass.
    """
    count = len(runner.ops)
    for i in range(min(WARMUP_OPS, count)):
        runner.execute(i)
    passes: list[list[OpResult]] = []
    start = perf_counter()
    deadline, hard_stop = start + seconds, start + 3 * seconds
    while True:
        current = []
        for i in range(count):
            current.append(runner.execute(i))
            now = perf_counter()
            if passes and (now >= hard_stop or
                           (now >= deadline and len(passes) >= min_passes)):
                return passes
        passes.append(current)


def traced_run(runner: Runner, tracer: Tracer, seconds: float) -> dict[str, Any]:
    """Alternate an untraced and a traced pass over every op until
    ``seconds`` are used (at least one pair).  Keeps each untraced pass's
    wall and CPU time, and the scaled op time of both passes of a pair."""
    count = len(runner.ops)
    for i in range(min(WARMUP_OPS, count)):
        runner.execute(i)
    untraced, traced, summaries = [], [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        wall, cpu = perf_counter(), process_time()
        plain = sum(runner.execute(i).scaled for i in range(count))
        untraced.append((perf_counter() - wall, process_time() - cpu, plain))
        first = len(tracer.spans)
        with tracer:
            traced.append(sum(runner.execute(i, tracer).scaled for i in range(count)))
        summaries.append(tracer.summary(first))
        pair = perf_counter() - pair_start
        if perf_counter() + pair > start + seconds:
            break
    return {"untraced": untraced, "traced": traced, "summaries": summaries}


def end_to_end(setup_times: list[tuple[float, float]], passes: list[list[OpResult]],
               runner: Runner, scaled: bool = True) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count), over every op of the complete
    passes; timings scaled to the reference speed, or wall clock if not
    ``scaled``."""
    timed = [r for p in passes for r in p]
    lat = [r.scaled if scaled else r.latency for r in timed]
    ratios = runner.ratios()
    return {
        "setup_s": (statistics.median(t[scaled] for t in setup_times), len(setup_times)),
        "ops_per_s": (sum(r.ok for r in timed) / sum(lat), len(lat)),
        "op_p50_ms": (1e3 * statistics.median(lat), len(lat)),
        "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ratio_gmean": (gmean(ratios), len(ratios)),
    }


def per_layer(traced: dict[str, Any], runner: Runner) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """Per-layer metrics (per pass, median over passes) and any problems.

    Call counts are deterministic, so they must repeat exactly between passes.
    """
    summaries = traced["summaries"]
    passes = len(summaries)
    problems = []

    def stat(name: str, key: str) -> list[float]:
        return [s.get(name, {}).get(key, 0) for s in summaries]

    out: dict[str, tuple[float, int]] = {}
    for name in TRACED_CALLS:
        calls = stat(name, "calls")
        if len(set(calls)) != 1:
            problems.append(f"{name} calls differ between passes: {calls}")
        out[f"{name}.calls"] = (calls[0], passes)
    for name in TRACED_CALLS + TRACED_SELF:
        out[f"{name}.self_s"] = (statistics.median(stat(name, "self_s")), passes)
    for name in TRACED_TOTAL:
        out[f"{name}.total_s"] = (statistics.median(stat(name, "total_s")), passes)
    for name, value in runner.pass_counters().items():
        out[name] = (value, 1)
    cpus = [c for _, c, _ in traced["untraced"]]
    out["process.cpu_s"] = (statistics.median(cpus), passes)
    out["process.wait_s"] = (statistics.median(w - c for w, c, _ in traced["untraced"]), passes)
    # Scaled op time, so that the host's drift between the two passes cancels.
    out["trace.overhead_s"] = (statistics.median(
        t - u for t, (_, _, u) in zip(traced["traced"], traced["untraced"])), passes)
    return out, problems


def top_layers(traced: dict[str, Any], limit: int = 8) -> list[tuple[str, float, float]]:
    """The names with the most self time: (name, self share, inclusive share)."""
    summaries = traced["summaries"]
    names = {n for s in summaries for n in s}
    root = statistics.median(s.get("cli.main", {}).get("total_s", 0.0) for s in summaries)
    rows = []
    for name in names:
        self_s = statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
        total_s = statistics.median(s.get(name, {}).get("total_s", 0.0) for s in summaries)
        rows.append((name, self_s / root, total_s / root))
    rows.sort(key=lambda r: -r[1])
    return rows[:limit]
