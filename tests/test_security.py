"""Attack analysis and mixing of tour distributions."""
from __future__ import annotations

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patrolsched import (AttackOutcome, MixedStrategy, Schedule, UNBOUNDED, absence_profile,
                         attacker_best_response, expected_return_time,
                         make_instance, mix_tours, per_target_best,
                         period_length, point_cost, strategy_from_document,
                         strategy_to_document, strongest_attack,
                         success_probability)
from patrolsched import security
from conftest import (random_instance, reference_best_attack,
                      reference_profiles, schedules_on_metrics)


def grid_best_attack(s, inst, x, steps=2000):
    """Dense-grid reference for the best attack on one target."""
    gaps = absence_profile(s, x, inst)
    period = period_length(s, inst)
    if gaps is None or period == 0.0:
        return 0.0
    w = float(inst.weights[x])
    top = max(gaps)
    best = 0.0
    for i in range(steps + 1):
        t = top * i / steps
        u = w * t * sum(max(g - t, 0.0) for g in gaps) / period
        best = max(best, u)
    return best


class TestSuccessProbability:
    def test_hand_trace(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))  # a gaps [2,2]; b,c gaps [4]; period 4
        assert success_probability(s, unit_triangle, 0, 0.0) == 1.0
        assert success_probability(s, unit_triangle, 0, 1.0) == 0.5
        assert success_probability(s, unit_triangle, 0, 1.5) == 0.25
        assert success_probability(s, unit_triangle, 0, 2.0) == 0.0
        assert success_probability(s, unit_triangle, 1, 1.0) == 0.75

    def test_unvisited_target_always_succeeds(self, unit_triangle):
        s = Schedule((0, 1))
        assert success_probability(s, unit_triangle, 2, 100.0) == 1.0

    def test_single_visit_schedule(self, unit_triangle):
        s = Schedule((0,))
        assert success_probability(s, unit_triangle, 0, 0.0) == 1.0
        assert success_probability(s, unit_triangle, 0, 0.1) == 0.0

    def test_rejects_negative_duration(self, unit_triangle):
        with pytest.raises(ValueError, match="attack duration must be nonnegative"):
            success_probability(Schedule((0, 1)), unit_triangle, 0, -1.0)

    def test_rejects_nan_duration(self, unit_triangle):
        with pytest.raises(ValueError, match="attack duration must be nonnegative"):
            success_probability(Schedule((0, 1)), unit_triangle, 0, math.nan)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 999),
       visits=st.lists(st.integers(0, 4), min_size=2, max_size=10).map(tuple),
       t1=st.floats(0.0, 3.0), t2=st.floats(0.0, 3.0))
def test_success_probability_nonincreasing_in_duration(seed, visits, t1, t2):
    inst = random_instance(seed, 5)
    s = Schedule(visits)
    lo, hi = sorted((t1, t2))
    for x in range(5):
        assert success_probability(s, inst, x, hi) <= \
            success_probability(s, inst, x, lo) + 1e-12


class TestExpectedReturnTime:
    def test_hand_trace(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))
        assert expected_return_time(s, unit_triangle, 0) == 1.0  # C2=2
        assert expected_return_time(s, unit_triangle, 1) == 2.0  # C2=4

    def test_half_of_quadratic_cost(self, line_four):
        s = Schedule((0, 1, 2, 3, 1))
        for x in range(4):
            assert expected_return_time(s, line_four, x) == pytest.approx(
                point_cost(s, x, line_four, 2.0) / 2.0, rel=1e-12)

    def test_unvisited_is_unbounded(self, unit_triangle):
        assert expected_return_time(Schedule((0, 1)), unit_triangle, 2) == UNBOUNDED


class TestAttackerBestResponse:
    def test_unit_triangle_golden(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))
        best = attacker_best_response(s, unit_triangle)
        # attacking a for 1 time unit: utility 1 * 1 * P(success)=1/2
        assert best.target == 0
        assert best.duration == 1.0
        assert best.utility == 0.5

    def test_unvisited_point_dominates(self, unit_triangle):
        best = attacker_best_response(Schedule((0, 1)), unit_triangle)
        assert best.target == 2
        assert best.utility == UNBOUNDED

    def test_per_target_outcomes_ordered_by_point(self, unit_triangle):
        outcomes = per_target_best(Schedule((0, 1, 0, 2)), unit_triangle)
        assert [o.target for o in outcomes] == [0, 1, 2]
        # b: w=1/2, gap 4, best t=2 -> 0.5*2*(4-2)/4 = 0.5
        assert outcomes[1].utility == pytest.approx(0.5)

    def test_tie_breaks_to_lowest_index_then_smallest_duration(self):
        # two points, symmetric: both have utility w*t*(2-t)/2 maximized at t=1
        inst = make_instance(["a", "b"], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        best = attacker_best_response(Schedule((0, 1)), inst)
        assert best.target == 0
        assert best.duration == 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 999),
       visits=st.lists(st.integers(0, 5), min_size=2, max_size=12).map(tuple))
def test_closed_form_attack_beats_dense_grid(seed, visits):
    inst = random_instance(seed, 6)
    s = Schedule(visits)
    outcomes = per_target_best(s, inst)
    for x in set(s.visits):
        grid = grid_best_attack(s, inst, x, steps=400)
        assert outcomes[x].utility >= grid - 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 999),
       visits=st.lists(st.integers(0, 5), min_size=2, max_size=12).map(tuple))
def test_best_attack_bracketed_by_quadratic_cost(seed, visits):
    inst = random_instance(seed, 6)
    s = Schedule(visits)
    for x, outcome in enumerate(per_target_best(s, inst)):
        if x not in set(s.visits):
            continue
        w = float(inst.weights[x])
        c2 = point_cost(s, x, inst, 2.0)
        assert w * c2 / 8.0 <= outcome.utility * (1 + 1e-9)
        assert outcome.utility <= w * c2 / 2.0 * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 999),
       visits=st.lists(st.integers(0, 5), min_size=2, max_size=12).map(tuple),
       scale=st.sampled_from([1e-170, 1e-300]))
def test_best_attack_bracketed_by_quadratic_cost_at_tiny_scales(seed, visits, scale):
    """t * excess and l^2 underflow here; neither side may become a silent 0."""
    base = random_instance(seed, 6)
    inst = make_instance(base.labels, base.weights, base.dist * scale)
    s = Schedule(visits)
    assume(len(s) > 1)
    for x, outcome in enumerate(per_target_best(s, inst)):
        if x not in set(s.visits):
            continue
        w = float(inst.weights[x])
        c2 = point_cost(s, x, inst, 2.0)
        assert 0.0 < w * c2 / 8.0 <= outcome.utility * (1 + 1e-9)
        assert outcome.utility <= w * c2 / 2.0 * (1 + 1e-9)


class TestStrongestAttack:
    def test_first_maximum_wins(self):
        outcomes = [AttackOutcome(0, 1.0, 0.5), AttackOutcome(1, 2.0, 0.7),
                    AttackOutcome(2, 3.0, 0.7)]
        assert strongest_attack(outcomes) == outcomes[1]

    def test_first_unbounded_wins(self):
        outcomes = [AttackOutcome(0, 1.0, 0.5), AttackOutcome(1, UNBOUNDED, UNBOUNDED),
                    AttackOutcome(2, UNBOUNDED, UNBOUNDED)]
        assert strongest_attack(outcomes) == outcomes[1]

    def test_overflowing_period_is_an_error(self):
        big = make_instance(["a", "b", "c"], [1.0, 1.0, 1.0],
                            [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)])
        with pytest.raises(ValueError, match="period overflows"):
            per_target_best(Schedule((0, 1, 2)), big)


@settings(max_examples=300, deadline=None)
@given(case=schedules_on_metrics())
def test_per_target_best_matches_reference_bit_for_bit(case):
    inst, s = case
    profiles, period = reference_profiles(s.visits, inst.dist, inst.n)
    outcomes = per_target_best(s, inst)
    for x, (gaps, o) in enumerate(zip(profiles, outcomes)):
        if gaps is None:
            assert (o.duration, o.utility) == (UNBOUNDED, UNBOUNDED)
        else:
            assert (o.duration, o.utility) == reference_best_attack(
                gaps, period, float(inst.weights[x]))
    assert attacker_best_response(s, inst) == strongest_attack(outcomes)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.01, 10.0),
                     min_size=1, max_size=24),
       weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       block=st.sampled_from([1, 2, 5, 16, security.SCAN_BLOCK]))
@example(gaps=[0.5, 0.5, 0.5], weight=2.2250738585072014e-308, block=1)
def test_best_attack_scan_matches_reference_bit_for_bit(gaps, weight, block):
    """Tied and repeated gaps, weight 0, and scans split into many blocks.

    The example's weight is the smallest normal float: w * t * excess is
    subnormal, so the answer comes from the gaps rescaled by the period.
    """
    period = 0.0
    for g in gaps:
        period += g
    with mock.patch.object(security, "SCAN_BLOCK", block):
        got = security._best_attack_on_gaps(np.array(gaps), period, weight)
    assert got == reference_best_attack(gaps, period, weight)


@pytest.mark.parametrize("block", [1, 5, security.SCAN_BLOCK])
def test_nan_candidate_is_skipped_alone(block):
    """At period 1 no rescaled scan runs.  The first candidate scores
    0.5 * 5e-324 * inf = 0 * inf = NaN; a later one in the same block scores
    inf and must still win, as it does in the reference."""
    gaps = [5e-324, 1e308, 1.5e308, 1.7e308]
    with mock.patch.object(security, "SCAN_BLOCK", block):
        got = security._best_attack_on_gaps(np.array(gaps), 1.0, 0.5)
    assert got == reference_best_attack(gaps, 1.0, 0.5) == (1e308, math.inf)


def replayed_tours(inst, rng, phases, lists):
    """Random tours replayed at power-of-two frequencies: points split into
    2**lists - 1 tours, list i holds 2**i of them and phase j runs tour
    j % 2**i of every list, so every point of a list shares a visit count."""
    tours = [rng.permutation(chunk).tolist()
             for chunk in np.array_split(np.arange(inst.n), (1 << lists) - 1)]
    visits = []
    for j in range(phases):
        for i in range(lists):
            visits.extend(tours[(1 << i) - 1 + j % (1 << i)])
    return Schedule(tuple(visits))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 999), n=st.integers(7, 40), lists=st.integers(1, 3),
       cycles=st.integers(1, 4), scale=st.sampled_from([1.0, 1e-300, 1e150]))
def test_per_target_best_on_replayed_tours_matches_reference_bit_for_bit(
        seed, n, lists, cycles, scale):
    """Many targets share a visit count, so each scan takes many rows."""
    base = random_instance(seed, n, weight_law="pareto")
    inst = make_instance(base.labels, base.weights, base.dist * scale)
    s = replayed_tours(inst, np.random.default_rng(seed), cycles << (lists - 1), lists)
    profiles, period = reference_profiles(s.visits, inst.dist, inst.n)
    for x, (gaps, o) in enumerate(zip(profiles, per_target_best(s, inst))):
        assert (o.duration, o.utility) == reference_best_attack(
            gaps, period, float(inst.weights[x]))


@pytest.mark.parametrize("block", [1, 5, 64, 4096])
def test_grouped_scan_matches_one_row_scans(block):
    """Blocks split across rows (64, 4096) and within one row (1, 5).

    Row 4's weight is the smallest normal float, so its w * t * excess is
    subnormal and it is scored again on its gaps divided by the period.
    Row 5 overflows: its first candidate scores 0 * inf = NaN and a later
    one inf, and it too is scored again.
    """
    rng = np.random.default_rng(7)
    special = [([1.0, 2.0, 1.0, 2.0], 1.0), ([1.5, 1.5, 1.5, 1.5], 0.5),
               ([0.5, 3.0, 3.0, 0.5], 0.0), ([2.0, 0.5, 1.0, 3.0], 5e-324),
               ([0.5, 0.5, 0.5, 0.5], 2.2250738585072014e-308),
               ([5e-324, 1e308, 1.5e308, 1.7e308], 0.5)]
    pool = [0.5, 1.0, 1.5, 2.0, 3.0]
    rows = [gaps for gaps, _ in special] + rng.choice(pool, size=(300, 4)).tolist()
    weights = [w for _, w in special] + rng.choice([0.0, 0.25, 1.0], size=300).tolist()
    period = 6.0
    with mock.patch.object(security, "SCAN_BLOCK", block):
        ts, us = security._best_attacks(np.array(rows), period, np.array(weights))
        one_row = [security._best_attack_on_gaps(np.array(gaps), period, w)
                   for gaps, w in zip(rows, weights)]
    assert list(zip(ts.tolist(), us.tolist())) == one_row
    assert one_row == [reference_best_attack(gaps, period, w) for gaps, w in zip(rows, weights)]
    assert 0.0 < one_row[4][1] < sys.float_info.min
    assert one_row[5][1] == math.inf


class TestMixedStrategy:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MixedStrategy(())

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError):
            MixedStrategy(((Schedule((0, 1)), 1.5), (Schedule((1, 2)), -0.5)))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            MixedStrategy(((Schedule((0, 1)), 0.4), (Schedule((1, 2)), 0.4)))

    def test_document_round_trip(self, unit_triangle):
        strat = MixedStrategy(((Schedule((0, 1, 2)), 0.75),
                               (Schedule((0, 2, 1)), 0.25)))
        doc = strategy_to_document(strat, unit_triangle)
        again = strategy_from_document(doc, unit_triangle)
        assert again == strat

    def test_document_requires_entries(self, unit_triangle):
        with pytest.raises(ValueError):
            strategy_from_document({"entries": []}, unit_triangle)
        with pytest.raises(ValueError):
            strategy_from_document({"nope": 1}, unit_triangle)

    @pytest.mark.parametrize("prob", [[1], {"p": 1}, None, True, "0.5"])
    def test_document_rejects_non_number_prob(self, unit_triangle, prob):
        doc = {"entries": [{"schedule": {"visits": ["a", "b", "c"]}, "prob": 0.5},
                           {"schedule": {"visits": ["a", "c", "b"]}, "prob": prob}]}
        with pytest.raises(ValueError, match="strategy entry 1: 'prob' must be a number"):
            strategy_from_document(doc, unit_triangle)


class TestMixTours:
    def test_rejects_schedule_missing_a_point(self, unit_triangle):
        strat = MixedStrategy(((Schedule((0, 1)), 1.0),))
        with pytest.raises(ValueError):
            mix_tours(strat, unit_triangle)

    def test_single_tour_strategy_keeps_costs_close(self, unit_triangle):
        strat = MixedStrategy(((Schedule((0, 1, 2)), 1.0),))
        mixed = mix_tours(strat, unit_triangle)
        # repeating one tour never changes its absence structure
        for x in range(3):
            assert point_cost(mixed, x, unit_triangle, 2.0) == pytest.approx(
                point_cost(Schedule((0, 1, 2)), x, unit_triangle, 2.0), rel=1e-12)

    def test_lone_kept_tour_is_emitted_once(self, unit_triangle):
        s1, s2 = Schedule((0, 1, 0, 2)), Schedule((0, 2, 1))
        for strat in (MixedStrategy(((s1, 1.0),)), MixedStrategy(((s2, 0.4), (s1, 0.6)))):
            assert mix_tours(strat, unit_triangle).visits == s1.visits

    def test_unit_triangle_two_tours(self, unit_triangle):
        s1, s2 = Schedule((0, 1, 2)), Schedule((0, 2, 1))
        strat = MixedStrategy(((s1, 0.75), (s2, 0.25)))
        mixed = mix_tours(strat, unit_triangle)
        for x in range(3):
            mixture_cost = (0.75 * point_cost(s1, x, unit_triangle, 2.0)
                            + 0.25 * point_cost(s2, x, unit_triangle, 2.0))
            assert point_cost(mixed, x, unit_triangle, 2.0) <= \
                8.0 * mixture_cost * (1 + 1e-9)

    def test_single_point_mixes_without_warning(self):
        # every tour of one point has period 0: each kept tour is emitted once,
        # and the repeated visit collapses to one
        inst = make_instance(["a"], [1.0], [[0.0]])
        one = MixedStrategy(((Schedule((0,)), 1.0),))
        two_kept = MixedStrategy(((Schedule((0,)), 0.4), (Schedule((0,)), 0.3),
                                  (Schedule((0,)), 0.3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mix_tours(one, inst).visits == (0,)
            assert mix_tours(two_kept, inst).visits == (0,)


def random_full_tours(rng, inst, count):
    tours = []
    for _ in range(count):
        perm = rng.permutation(inst.n).tolist()
        extra = rng.integers(0, inst.n, size=rng.integers(0, 4)).tolist()
        tours.append(Schedule(tuple(perm + extra)))
    return tours


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 9999), support=st.integers(1, 4))
def test_mixing_bound_on_random_strategies(seed, support):
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, int(rng.integers(3, 8)))
    tours = random_full_tours(rng, inst, support)
    raw = rng.uniform(0.1, 1.0, size=support)
    probs = (raw / raw.sum()).tolist()
    probs[-1] = 1.0 - sum(probs[:-1])
    strat = MixedStrategy(tuple(zip(tours, probs)))
    mixed = mix_tours(strat, inst)
    for x in range(inst.n):
        mixture_cost = sum(p * point_cost(t, x, inst, 2.0)
                           for t, p in strat.entries)
        assert point_cost(mixed, x, inst, 2.0) <= 8.0 * mixture_cost * (1 + 1e-9)
