"""End-to-end acceptance suite.

Ten criteria, each enforced by one test that prints a single
``ACCEPTANCE <k> <PASS|FAIL>`` line (visible with ``pytest -s``) and then
asserts the stated tolerance and runtime budget.  Criteria 2 and 3 share one
batch of 100 planner runs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from patrolsched import (GEOMETRIES, RandomSpec, Schedule, absence_profile,
                         brute_force_weighted_opt, generate_random,
                         held_karp_tsp, lower_bound, make_instance,
                         minimum_spanning_tree, minmax_tree_cover,
                         MixedStrategy, mix_tours, partition_tree_cover_oracle,
                         per_target_best, period_length, plan, point_cost,
                         try_budget, weighted_objective)
from patrolsched.cli import main as cli_main

from conftest import record_acceptance

REL = 1e-9


def report(k: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    record_acceptance(line)


def close_or_below(value: float, bound: float, rel: float = REL) -> bool:
    return value <= bound * (1.0 + rel) + 1e-15


# ---------------------------------------------------------------------------
# Criterion 1: with equal weights and the period capped at n, the exhaustive
# best patrol equals the exact shortest tour.


def test_criterion_1_equal_weight_patrol_equals_tsp():
    t0 = perf_counter()
    checked = 0
    worst = 0.0
    for seed in range(50):
        n = 3 + seed % 3
        inst = generate_random(RandomSpec(n=n, weight_law="equal"), seed)
        bf = brute_force_weighted_opt(inst, math.inf, n)
        hk = held_karp_tsp(inst)
        gap = abs(bf.value - hk.value)
        worst = max(worst, gap)
        checked += 1
    elapsed = perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, ok, f"{checked} instances, max |patrol - tsp| = {worst:.3e}, "
                  f"{elapsed:.1f}s < 60s")
    assert worst <= 1e-9
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criteria 2 and 3 share one batch of 100 planner runs (n up to 200,
# mixed weight laws and geometries).


@pytest.fixture(scope="module")
def planner_runs():
    t0 = perf_counter()
    runs = []
    for i in range(100):
        n = 5 + round(195 * (i / 99) ** 2)
        law = ("uniform", "pareto", "equal")[i % 3]
        geometry = GEOMETRIES[i % 2]
        inst = generate_random(RandomSpec(n=n, weight_law=law,
                                          geometry=geometry), seed=1000 + i)
        runs.append((inst, plan(inst)))
    return runs, perf_counter() - t0


def test_criterion_2_envelope_on_random_instances(planner_runs):
    runs, elapsed = planner_runs
    worst_ratio_of_limit = 0.0
    violations = 0
    for inst, res in runs:
        obj = weighted_objective(res.schedule, inst, math.inf)
        lb = lower_bound(inst)
        limit = 18.0 * (res.I + 1) * lb
        if not close_or_below(obj, limit):
            violations += 1
        if lb > 0:
            worst_ratio_of_limit = max(
                worst_ratio_of_limit, obj / (18.0 * (res.I + 1) * lb))
    ok = violations == 0 and elapsed < 120.0
    report(2, ok, f"{len(runs)} instances (n up to 200), "
                  f"max objective/limit fraction = {worst_ratio_of_limit:.3f}, "
                  f"{violations} violations, {elapsed:.1f}s < 120s")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_3_planner_invariants_every_run(planner_runs):
    runs, _ = planner_runs
    flag_failures = 0
    recomputed_failures = 0
    for idx, (inst, res) in enumerate(runs):
        diag = res.diagnostics
        if not (diag["all_points_visited"] and diag["list_weight_ok"]
                and diag["tree_budget_ok"]):
            flag_failures += 1
        if idx % 10 == 0:  # independent recomputation on a sample
            point_class = {x: c.index for c in res.classes for x in c.members}
            for tl in res.lists:
                for tour in tl.tours:
                    if any(point_class[x] < tl.index for x in tour.visits):
                        recomputed_failures += 1
            for c in res.classes:
                if c.theta == 2 ** c.index:
                    mst = minimum_spanning_tree(inst, list(c.members))
                    lhs = c.theta * res.covers[c.index].max_cost
                    if lhs > 4.0 * mst.cost:
                        recomputed_failures += 1
    ok = flag_failures == 0 and recomputed_failures == 0
    report(3, ok, f"{len(runs)} planner runs, {flag_failures} flag failures, "
                  f"{recomputed_failures} recomputation failures")
    assert flag_failures == 0
    assert recomputed_failures == 0


# ---------------------------------------------------------------------------
# Criterion 4: approximate tree cover within 4 times the exact optimum.


def test_criterion_4_tree_cover_within_four_of_exact():
    t0 = perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for seed in range(50):
        inst = generate_random(RandomSpec(n=12), 2000 + seed)
        m = int(rng.integers(2, 10))
        subset = sorted(rng.choice(12, size=m, replace=False).tolist())
        k = int(rng.integers(1, 4))
        cover = minmax_tree_cover(inst, subset, k)
        exact = partition_tree_cover_oracle(inst, subset, k)
        bound = 4.0 * math.nextafter(exact.value, math.inf)  # one ulp of OPT
        if exact.value > 0:
            worst = max(worst, cover.max_cost / bound)
        else:
            assert cover.max_cost == 0.0
        assert cover.max_cost <= bound
        checked += 1
    elapsed = perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    report(4, ok, f"{checked} covers, max cover/(4*exact) = {worst:.3f}, "
                  f"{elapsed:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: best attacker utility is bracketed by the quadratic cost.


def test_criterion_5_attack_utility_bracket():
    t0 = perf_counter()
    rng = np.random.default_rng(55)
    schedules = 0
    worst_low = math.inf   # min utility / (w*C2/8), must stay >= 1
    worst_high = 0.0       # max utility / (w*C2/2), must stay <= 1
    while schedules < 100:
        n = int(rng.integers(3, 11))
        inst = generate_random(RandomSpec(n=n), int(rng.integers(0, 10**6)))
        length = int(rng.integers(2, 3 * n))
        visits = tuple(int(v) for v in rng.integers(0, n, size=length))
        s = Schedule(visits)
        outcomes = per_target_best(s, inst)
        for x in set(s.visits):
            w = float(inst.weights[x])
            c2 = point_cost(s, x, inst, 2.0)
            u = outcomes[x].utility
            if c2 == 0.0:
                assert u == 0.0
                continue
            low, high = w * c2 / 8.0, w * c2 / 2.0
            assert close_or_below(low, u)
            assert close_or_below(u, high)
            worst_low = min(worst_low, u / low)
            worst_high = max(worst_high, u / high)
        schedules += 1
    elapsed = perf_counter() - t0
    ok = elapsed < 60.0
    report(5, ok, f"{schedules} schedules, utility/(wC2/8) >= {worst_low:.3f}, "
                  f"utility/(wC2/2) <= {worst_high:.3f}, {elapsed:.1f}s < 60s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 6: mixing a strategy at most 8x the expected quadratic cost.


def test_criterion_6_mixing_bound():
    t0 = perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 9))
        inst = generate_random(RandomSpec(n=n), int(rng.integers(0, 10**6)))
        support = int(rng.integers(1, 5))
        tours = []
        for _ in range(support):
            perm = rng.permutation(n).tolist()
            extra = rng.integers(0, n, size=int(rng.integers(0, 3))).tolist()
            tours.append(Schedule(tuple(int(v) for v in perm + extra)))
        raw = rng.uniform(0.2, 1.0, size=support)
        probs = raw / raw.sum()
        probs = probs.tolist()
        probs[-1] = 1.0 - sum(probs[:-1])
        strategy = MixedStrategy(tuple(zip(tours, probs)))
        mixed = mix_tours(strategy, inst)
        for x in range(n):
            mixture = sum(p * point_cost(t, x, inst, 2.0)
                          for t, p in strategy.entries)
            got = point_cost(mixed, x, inst, 2.0)
            assert close_or_below(got, 8.0 * mixture)
            if mixture > 0:
                worst = max(worst, got / (8.0 * mixture))
        checked += 1
    elapsed = perf_counter() - t0
    ok = worst <= 1.0 + REL and elapsed < 60.0
    report(6, ok, f"{checked} strategies, max mixed/(8*expected) = {worst:.3f}, "
                  f"{elapsed:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: the exact tour never exceeds 480x the best quadratic patrol.


def test_criterion_7_tsp_within_constant_of_quadratic_patrol():
    t0 = perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(30):
        n = 3 + seed % 3
        inst = generate_random(RandomSpec(n=n, weight_law="equal"), 3000 + seed)
        hk = held_karp_tsp(inst)
        bf = brute_force_weighted_opt(inst, 2.0, 8)
        assert close_or_below(hk.value, 480.0 * bf.value)
        if bf.value > 0:
            worst = max(worst, hk.value / (480.0 * bf.value))
        checked += 1
    elapsed = perf_counter() - t0
    ok = worst <= 1.0 + REL and elapsed < 120.0
    report(7, ok, f"{checked} instances, max tsp/(480*patrol2) = {worst:.4f}, "
                  f"{elapsed:.1f}s < 120s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: cost-function algebra on 1000 random schedule/point pairs.


def test_criterion_8_cost_algebra():
    rng = np.random.default_rng(88)
    pairs = 0
    failures = 0
    ps = (2.0, 3.0, 10.0, math.inf)
    while pairs < 1000:
        n = int(rng.integers(3, 8))
        inst = generate_random(RandomSpec(n=n), int(rng.integers(0, 10**6)))
        length = int(rng.integers(2, 12))
        s = Schedule(tuple(int(v) for v in rng.integers(0, n, size=length)))
        x = int(rng.integers(0, n))
        pairs += 1

        period = period_length(s, inst)
        gaps = absence_profile(s, x, inst)
        if gaps is not None and abs(sum(gaps) - period) > REL * max(period, 1.0):
            failures += 1

        costs = [point_cost(s, x, inst, p) for p in ps]
        if any(a > b * (1 + REL) for a, b in zip(costs, costs[1:])):
            failures += 1

        k = int(rng.integers(0, len(s.visits)))
        rotated = Schedule(s.visits[k:] + s.visits[:k])
        if any(abs(point_cost(rotated, x, inst, p) - c) >
               REL * max(abs(c), 1.0)
               for p, c in zip(ps, costs) if not math.isinf(c)):
            failures += 1

        if not (len(s.visits) > 1 and s.visits[-1] == s.visits[0]):
            doubled = Schedule(s.visits + s.visits)
            if any(abs(point_cost(doubled, x, inst, p) - c) >
                   REL * max(abs(c), 1.0)
                   for p, c in zip(ps, costs) if not math.isinf(c)):
                failures += 1
    ok = failures == 0
    report(8, ok, f"{pairs} schedule/point pairs "
                  f"(tiling, p-monotonicity, rotation, concatenation), "
                  f"{failures} failures")
    assert failures == 0


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical reports (timings excluded) across reruns.


def _strip_timings(path: str) -> str:
    doc = json.loads(Path(path).read_text())
    doc.pop("timings")
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_report_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert cli_main(["gen", "--n", "12", "--seed", "99",
                     "--weight-law", "pareto", "--out", str(inst_path)]) == 0
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert cli_main(["plan", str(inst_path), "--out", str(p1)]) == 0
    assert cli_main(["plan", str(inst_path), "--out", str(p2)]) == 0
    plan_same = _strip_timings(str(p1)) == _strip_timings(str(p2))

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(5):
        assert cli_main(["gen", "--n", str(6 + i), "--seed", str(400 + i),
                         "--out", str(corpus / f"i{i}.json")]) == 0
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert cli_main(["bench", str(corpus), "--out", str(b1)]) == 0
    assert cli_main(["bench", str(corpus), "--out", str(b2)]) == 0
    bench_same = (_strip_timings(f"{b1}.json") == _strip_timings(f"{b2}.json")
                  and Path(f"{b1}.csv").read_bytes() == Path(f"{b2}.csv").read_bytes())

    ok = plan_same and bench_same
    report(9, ok, f"plan reports identical: {plan_same}, "
                  f"bench reports identical: {bench_same} (timings excluded)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: hand-traced golden fixtures.


def test_criterion_10_worked_goldens():
    triangle = make_instance(["a", "b", "c"], [1.0, 0.5, 0.5],
                             [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    res = plan(triangle)
    visits = [triangle.labels[v] for v in res.schedule.visits]
    triangle_ok = (visits == ["a", "b", "a", "c"]
                   and res.diagnostics["objective_inf"] == 2.0
                   and res.diagnostics["objective_2"] == 2.0
                   and res.diagnostics["lower_bound"] == 1.5)

    line = make_instance(["p0", "p1", "p2", "p3"], [1.0] * 4,
                         [[abs(i - j) for j in range(4)] for i in range(4)])
    cover = try_budget(line, None, 2, 1.0)
    line_ok = (cover is not None and cover.max_cost == 2.0
               and sorted(t.cost for t in cover.trees) == [1.0, 2.0])
    search = minmax_tree_cover(line, None, 2)
    line_ok = line_ok and search.max_cost == 2.0

    ok = triangle_ok and line_ok
    report(10, ok, f"triangle plan {visits} obj_inf="
                   f"{res.diagnostics['objective_inf']} obj_2="
                   f"{res.diagnostics['objective_2']} lb="
                   f"{res.diagnostics['lower_bound']}; "
                   f"line cover max cost {cover.max_cost if cover else None} at budget 1")
    assert triangle_ok
    assert line_ok
