"""Seeded inputs, operations and output checks for the four workloads.

Each workload is a list of :class:`Op`: one ``patrolsched`` CLI call on
files written during set-up, and a check of the report it writes.  Inputs
depend only on the workload seed; none of them comes from ``plan()``.

- ``plan-graded``: ``plan`` on uniform and pareto weights, both geometries.
  Graded weights give about n weight levels, one MST each in ``lower_bound``.
- ``plan-flat``: ``plan`` on equal weights, both geometries, larger n.  One
  weight level, so metric validation, JSON loading and tree covers lead.
- ``audit``: ``eval`` (p = 2 and inf) alternating with ``attack`` on graded
  instances, each with a schedule made of seeded random tours replayed at
  power-of-two frequencies.
- ``desk``: tiny instances through the exact oracles, ``treecover`` and
  ``mix``, where fixed per-call costs dominate.

A check returns ``(ratio, counters)``: the operation's quality ratio (or
None) and its deterministic work counters.  It raises :class:`CheckFailed`
when the report is wrong.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from patrolsched.instance import Instance, RandomSpec, generate_random, serialize_instance

WORKLOADS = ("plan-graded", "plan-flat", "audit", "desk")

# Relative slack for comparing floats that two code paths compute.
REL = 1e-9

# Case ladders: sizes alternate small and large so that any prefix of a pass
# holds a balanced mix.  ``tiny`` ladders serve the benchmark's own tests.
PLAN_GRADED_SIZES = tuple(40 + (7 * i) % 60 * 68 // 59 for i in range(60))  # 40..108
PLAN_FLAT_SIZES = tuple(160 + 8 * ((7 * i) % 16) for i in range(16))  # 160..280
# (n, phases, lists): list i holds 2**i tours, so 2**lists - 1 tours in all.
AUDIT_CASES = ((60, 128, 5), (90, 64, 5), (70, 256, 5), (80, 128, 6),
               (100, 64, 4), (65, 256, 6), (85, 128, 5), (75, 64, 6),
               (95, 128, 4), (55, 256, 5), (58, 128, 5), (88, 64, 6),
               (72, 256, 4), (78, 128, 5), (98, 64, 5), (62, 256, 5),
               (83, 128, 6), (68, 64, 5), (92, 128, 5), (57, 256, 4))
DESK_GROUPS = 24
TINY = {"plan-graded": (12, 16), "plan-flat": (14, 18),
        "audit": ((10, 8, 2), (12, 4, 3)), "desk": 2}

GRADED = (("uniform", "euclidean-plane"), ("pareto", "random-closure"),
          ("pareto", "euclidean-plane"), ("uniform", "random-closure"))
FLAT = (("equal", "euclidean-plane"), ("equal", "random-closure"))


class CheckFailed(Exception):
    """A report broke one of the workload's output checks."""


Check = Callable[[dict[str, Any], dict[Any, Any]], tuple[float | None, dict[str, int]]]


@dataclass
class Op:
    """One CLI call: ``argv`` writes its report to ``out``; ``check`` judges it."""

    command: str
    argv: list[str]
    out: Path
    check: Check
    counters: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# reference arithmetic (independent of the program)


def collapse(visits: list[int]) -> list[int]:
    """Drop immediate repeats, cyclically, as a schedule does."""
    out: list[int] = []
    for v in visits:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def quadratic_costs(visits: list[int], dist: np.ndarray) -> np.ndarray:
    """Per-point C2 = sum(l^2) / sum(l) over cyclic absence lengths l.

    Unvisited points get inf.  Assumes at least two distinct visits.
    """
    v = np.asarray(collapse(visits))
    hops = dist[v, np.roll(v, -1)]
    period = hops.sum()
    times = np.concatenate(([0.0], np.cumsum(hops)[:-1]))
    order = np.argsort(v, kind="stable")
    pts, ts = v[order], times[order]
    starts = np.flatnonzero(np.r_[True, pts[1:] != pts[:-1]])
    ends = np.r_[starts[1:], len(pts)] - 1
    gaps = np.empty(len(pts))
    gaps[:-1] = ts[1:] - ts[:-1]
    gaps[ends] = period - ts[ends] + ts[starts]
    out = np.full(dist.shape[0], np.inf)
    out[pts[starts]] = np.add.reduceat(gaps * gaps, starts) / np.add.reduceat(gaps, starts)
    return out


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return float(value)


def _at_most(a: float, b: float, what: str) -> None:
    if a > b + REL * max(abs(a), abs(b)):
        raise CheckFailed(f"{what}: {a!r} > {b!r}")


def _close(a: float, b: float, what: str) -> None:
    if abs(a - b) > REL * max(abs(a), abs(b)):
        raise CheckFailed(f"{what}: {a!r} != {b!r}")


# ---------------------------------------------------------------------------
# input files


def _case_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write_instance(inst: Instance, path: Path) -> None:
    path.write_text(serialize_instance(inst) + "\n")


def _instance_counters(inst: Instance) -> dict[str, int]:
    return {"instance.points": inst.n, "instance.triangle_triples": inst.n ** 3}


def _write_json(doc: Any, path: Path) -> None:
    path.write_text(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# plan-graded and plan-flat


def _plan_check(inst: Instance) -> Check:
    labels = set(inst.labels)

    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[float, dict[str, int]]:
        failed = sorted(k for k, ok in report["invariants"].items() if ok is not True)
        if failed:
            raise CheckFailed(f"plan invariants failed: {failed}")
        res = report["result"]
        obj = _number(res["objective_inf"], "objective_inf")
        lb = _number(res["lower_bound"], "lower_bound")
        if not 0.0 < lb <= obj:
            raise CheckFailed(f"lower_bound {lb!r} not in (0, objective_inf {obj!r}]")
        visits = res["schedule"]["visits"]
        missing = labels - set(visits)
        if missing:
            raise CheckFailed(f"plan leaves {len(missing)} points unvisited")
        counters = {"planner.classes": len(res["classes"]), "planner.tours": int(res["J"]),
                    "planner.phases": int(res["phases"]), "planner.visits": len(visits)}
        return obj / lb, counters
    return check


def _plan_ops(workload: str, seed: int, workdir: Path, tiny: bool) -> list[Op]:
    if workload == "plan-graded":
        sizes, combos = (TINY[workload] if tiny else PLAN_GRADED_SIZES), GRADED
    else:
        sizes, combos = (TINY[workload] if tiny else PLAN_FLAT_SIZES), FLAT
    ops = []
    for i, case_seed in enumerate(_case_seeds(seed, len(sizes))):
        law, geometry = combos[i % len(combos)]
        inst = generate_random(RandomSpec(n=sizes[i], weight_law=law, geometry=geometry),
                               case_seed)
        path = workdir / f"instance-{i}.json"
        _write_instance(inst, path)
        out = workdir / f"report-{i}.json"
        counters = _instance_counters(inst)
        counters["oracle.lower_bound.levels"] = len(set(inst.weights.tolist()))
        ops.append(Op("plan", ["plan", str(path), "--out", str(out)], out,
                      _plan_check(inst), counters))
    return ops


# ---------------------------------------------------------------------------
# audit


def replay_schedule(inst: Instance, rng: np.random.Generator, phases: int,
                    lists: int) -> list[int]:
    """Random tours replayed at power-of-two frequencies.

    Points, heaviest first, are split into 2**lists - 1 tours of near-equal
    size, each in random order; list i holds 2**i consecutive tours and
    phase j runs tour ``j % 2**i`` of every list, so a tour of list i recurs
    every 2**i phases.  Tour sizes depend only on n and ``lists``, so the
    visit count does not vary with the seed.
    """
    order = np.argsort(-inst.weights, kind="stable")
    tours = [rng.permutation(chunk).tolist()
             for chunk in np.array_split(order, (1 << lists) - 1)]
    visits: list[int] = []
    for j in range(phases):
        for i in range(lists):
            visits.extend(tours[(1 << i) - 1 + j % (1 << i)])
    return visits


def _eval_check(inst: Instance) -> Check:
    weights = dict(zip(inst.labels, inst.weights.tolist()))

    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[float, dict[str, int]]:
        per_p = report["result"]["per_p"]
        if sorted(per_p) != ["2", "inf"]:
            raise CheckFailed(f"eval reports p in {sorted(per_p)}, expected 2 and inf")
        objective = {}
        for key, entry in per_p.items():
            costs = entry["point_costs"]
            if set(costs) != set(weights):
                raise CheckFailed(f"p={key}: point costs do not cover every label")
            objective[key] = _number(entry["objective"], f"p={key} objective")
            worst = max(weights[lab] * _number(c, f"p={key} cost of {lab}")
                        for lab, c in costs.items())
            _close(objective[key], worst, f"p={key} objective vs max weighted point cost")
        c2, cinf = per_p["2"]["point_costs"], per_p["inf"]["point_costs"]
        log_ratio = 0.0
        for lab in weights:
            _at_most(c2[lab], cinf[lab], f"point {lab}: cost at p=2 vs p=inf")
            log_ratio += math.log(cinf[lab] / c2[lab])
        return math.exp(log_ratio / len(weights)), {}
    return check


def _attack_check(inst: Instance, c2: np.ndarray) -> Check:
    index = {lab: i for i, lab in enumerate(inst.labels)}
    weights = inst.weights.tolist()

    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[None, dict[str, int]]:
        res = report["result"]
        per_target = res["per_target"]
        if len(per_target) != inst.n:
            raise CheckFailed(f"attack reports {len(per_target)} targets, expected {inst.n}")
        best = _number(res["best"]["utility"], "best utility")
        top = max(_number(o["utility"], "utility") for o in per_target)
        _close(best, top, "best response vs max over targets")
        for o in per_target:
            x = index[o["target"]]
            u, wc2 = float(o["utility"]), weights[x] * float(c2[x])
            _at_most(wc2 / 8.0, u, f"target {o['target']}: w*C2/8 vs utility")
            _at_most(u, wc2 / 2.0, f"target {o['target']}: utility vs w*C2/2")
        return None, {}
    return check


def _audit_ops(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    cases = TINY["audit"] if tiny else AUDIT_CASES
    ops = []
    for i, case_seed in enumerate(_case_seeds(seed, len(cases))):
        n, phases, lists = cases[i]
        law, geometry = GRADED[i % len(GRADED)]
        inst = generate_random(RandomSpec(n=n, weight_law=law, geometry=geometry), case_seed)
        visits = replay_schedule(inst, np.random.default_rng(case_seed), phases, lists)
        ipath, spath = workdir / f"instance-{i}.json", workdir / f"schedule-{i}.json"
        _write_instance(inst, ipath)
        _write_json({"visits": [inst.labels[v] for v in visits]}, spath)
        c2 = quadratic_costs(visits, inst.dist)
        counters = _instance_counters(inst)
        eval_out, attack_out = workdir / f"eval-{i}.json", workdir / f"attack-{i}.json"
        ops.append(Op("eval", ["eval", str(ipath), str(spath), "--out", str(eval_out)],
                      eval_out, _eval_check(inst), dict(counters)))
        counters["security.gaps"] = len(collapse(visits))
        ops.append(Op("attack", ["attack", str(ipath), str(spath), "--out", str(attack_out)],
                      attack_out, _attack_check(inst, c2), counters))
    return ops


# ---------------------------------------------------------------------------
# desk


def _remember_check(key: tuple[str, int], what: str) -> Check:
    """Check for a positive value and keep it for a later op to compare with."""
    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[None, dict[str, int]]:
        value = _number(report["result"]["value"], what)
        if value <= 0.0:
            raise CheckFailed(f"{what} {value!r} is not positive")
        memo[key] = value
        return None, {}
    return check


def _opt_check(case: int) -> Check:
    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[None, dict[str, int]]:
        if ("tsp", case) not in memo:
            raise CheckFailed("no oracle-tsp value to compare oracle-opt against")
        value = _number(report["result"]["value"], "oracle-opt value")
        _close(value, memo[("tsp", case)], "equal-weight oracle-opt vs oracle-tsp")
        return None, {}
    return check


def _treecover_check(case: int) -> Check:
    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[float, dict[str, int]]:
        if ("cover", case) not in memo:
            raise CheckFailed("no oracle-cover value to compare treecover against")
        res = report["result"]
        max_cost = _number(res["max_cost"], "treecover max_cost")
        exact = memo[("cover", case)]
        _at_most(max_cost, _number(res["guarantee_factor"], "guarantee") * exact,
                 "treecover max cost vs 4(1+eps) x exact cover")
        return max_cost / exact, {}
    return check


def _mix_check(expected: float) -> Check:
    def check(report: dict[str, Any], memo: dict[Any, Any]) -> tuple[float, dict[str, int]]:
        res = report["result"]
        objective = _number(res["objective_2"], "mix objective_2")
        _at_most(objective, 8.0 * expected, "mix objective_2 vs 8 x expected weighted C2")
        return objective / expected, {"security.gaps": len(res["schedule"]["visits"])}
    return check


def _desk_ops(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    groups = TINY["desk"] if tiny else DESK_GROUPS
    ops = []
    for g, case_seed in enumerate(_case_seeds(seed, groups)):
        rng = np.random.default_rng(case_seed)
        # Equal weights: the best schedule is the shortest tour.
        n_eq = 5 + g % 2
        period = min(n_eq + g % 3, 7)
        flat = generate_random(RandomSpec(n=n_eq, weight_law="equal",
                                          geometry=FLAT[g % 2][1]), case_seed)
        fpath = workdir / f"flat-{g}.json"
        _write_instance(flat, fpath)
        fc = _instance_counters(flat)
        out = workdir / f"tsp-{g}.json"
        ops.append(Op("oracle-tsp", ["oracle-tsp", str(fpath), "--out", str(out)],
                      out, _remember_check(("tsp", g), "oracle-tsp value"), dict(fc)))
        out = workdir / f"opt-{g}.json"
        ops.append(Op("oracle-opt", ["oracle-opt", str(fpath), "--max-period", str(period),
                                     "--out", str(out)], out, _opt_check(g), dict(fc)))

        n = 5 + (g * 5) % 8  # 5..12
        law, geometry = GRADED[g % len(GRADED)]
        inst = generate_random(RandomSpec(n=n, weight_law=law, geometry=geometry), case_seed)
        ipath = workdir / f"graded-{g}.json"
        _write_instance(inst, ipath)
        ic = _instance_counters(inst)
        subset = ",".join(inst.labels[:min(n, 9)])
        k = 2 + g % 2
        out = workdir / f"cover-{g}.json"
        ops.append(Op("oracle-cover", ["oracle-cover", str(ipath), "--subset", subset,
                                       "--k", str(k), "--out", str(out)],
                      out, _remember_check(("cover", g), "oracle-cover value"), dict(ic)))
        out = workdir / f"treecover-{g}.json"
        ops.append(Op("treecover", ["treecover", str(ipath), "--subset", subset,
                                    "--k", str(k), "--out", str(out)],
                      out, _treecover_check(g), dict(ic)))

        support = 2 + g % 3
        tours = [rng.permutation(n).tolist() + rng.integers(0, n, size=g % 3).tolist()
                 for _ in range(support)]
        raw = rng.uniform(0.2, 1.0, size=support)
        probs = (raw / raw.sum()).tolist()
        probs[-1] = 1.0 - sum(probs[:-1])
        spath = workdir / f"strategy-{g}.json"
        _write_json({"entries": [{"schedule": {"visits": [inst.labels[v] for v in t]},
                                  "prob": p} for t, p in zip(tours, probs)]}, spath)
        mixture = sum(p * quadratic_costs(t, inst.dist) for t, p in zip(tours, probs))
        expected = float(np.max(inst.weights * mixture))
        out = workdir / f"mix-{g}.json"
        ops.append(Op("mix", ["mix", str(ipath), str(spath), "--out", str(out)],
                      out, _mix_check(expected), dict(ic)))
    return ops


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's input files under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("plan-graded", "plan-flat"):
        return _plan_ops(workload, seed, workdir, tiny)
    if workload == "audit":
        return _audit_ops(seed, workdir, tiny)
    if workload == "desk":
        return _desk_ops(seed, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
