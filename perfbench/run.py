#!/usr/bin/env python3
"""patrolsched benchmark: one workload per process, closed loop, in-process CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload plan-graded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs each workload in its own process and prints every metric with
its unit and sample count.  The exit code is 0 only if every output check
passed.  Inputs, reports and spans go under ``.perfbench_out/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="plan-graded, plan-flat, audit, desk, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_counters(name: str, counters: dict[str, int]) -> str | None:
    """Compare against an earlier run of the same workload, seed and source.

    Work counters are deterministic, so any difference is a defect.
    """
    path = OUT / "counters" / f"{name}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            diff = sorted(k for k in set(earlier) | set(counters)
                          if earlier.get(k) != counters.get(k))
            return f"counters differ from an earlier run of {name}: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True) + "\n")
    return None


def run_one(args: argparse.Namespace) -> int:
    import harness
    import patrolsched.cli as cli
    from tracer import Tracer

    name = f"{args.workload}-seed{args.seed}"
    workdir = OUT / "work" / name
    # Only the timed run reports set-up time.
    repeats, budget = (harness.SETUP_REPEATS, harness.SETUP_SECONDS) if args.trace == 0 else (1, 0.0)
    ops, setup_times, same_inputs = harness.setup(args.workload, args.seed, workdir,
                                                  repeats, budget)
    runner = harness.Runner(cli, ops)
    problems = [] if same_inputs else ["set-up wrote different files for the same seed"]

    wall: dict[str, tuple[float, int]] = {}
    if args.trace == 0:
        passes = harness.timed_run(runner, args.seconds)
        metrics = harness.end_to_end(setup_times, passes, runner)
        wall = harness.end_to_end(setup_times, passes, runner, scaled=False)
        units = harness.END_TO_END
    else:
        tracer = Tracer()
        traced = harness.traced_run(runner, tracer, args.seconds)
        metrics, more = harness.per_layer(traced, runner)
        problems += more
        units = harness.per_layer_units()
        tracer.write(OUT / f"{name}-spans.jsonl")
        print(f"{args.workload}: share of op time (self, inclusive) over "
              f"{len(traced['summaries'])} traced passes")
        for layer, self_share, total_share in harness.top_layers(traced):
            print(f"  {layer:40s} {100 * self_share:6.1f}% {100 * total_share:6.1f}%")
    counters = runner.pass_counters()
    # Failed ops add no counters, so only a clean run is compared or stored.
    mismatch = _check_counters(name, counters) if runner.failed == 0 else None
    if mismatch:
        problems.append(mismatch)
    problems += runner.errors

    for metric, (value, samples) in metrics.items():
        raw = f"  [wall clock {wall[metric][0]:.6g}]" if wall else ""
        print(f"{args.workload}: {metric} = {value:.6g} {units[metric]} (n={samples}){raw}")
    print(f"{args.workload}: counters per pass {json.dumps(counters, sort_keys=True)}")
    for problem in problems:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    correct = runner.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": {m: n for m, (_, n) in metrics.items()},
              "wall_clock": {m: v for m, (v, _) in wall.items()},
              "counters": counters, "problems": problems}
    (OUT / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    failed = []
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        if proc.returncode != 0:
            failed.append(workload)
    if failed:
        print(f"output checks failed on: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "patrolsched" / "__init__.py").is_file():
        print(f"error: no patrolsched sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
