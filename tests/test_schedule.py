"""Schedules, absence profiles, point costs, and the weighted objective."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patrolsched import (UNBOUNDED, Schedule, absence_profile, make_instance,
                         period_length, point_cost, point_costs,
                         schedule_from_document, schedule_to_document,
                         weighted_objective, worst_weighted)
from patrolsched.schedule import _cost_of_gaps, _hops, _profiles
from conftest import random_instance, reference_profiles, schedules_on_metrics


def visit_sequences(n: int, max_len: int = 12):
    """Hypothesis strategy for visit tuples over n points."""
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=max_len).map(tuple)


class TestScheduleConstruction:
    def test_collapses_immediate_repeats(self):
        assert Schedule((0, 0, 1, 1, 2)).visits == (0, 1, 2)

    def test_collapses_cyclic_wrap(self):
        assert Schedule((0, 1, 0)).visits == (0, 1)

    def test_all_same_point_collapses_to_one(self):
        assert Schedule((3, 3, 3)).visits == (3,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schedule(())

    @pytest.mark.parametrize("visits, bad", [((0, 1.5, 2), "1.5"), (("0", "1"), "'0'"),
                                             ((0, None), "None")])
    def test_rejects_a_visit_that_is_not_an_integer(self, visits, bad):
        with pytest.raises(ValueError, match=rf"^schedule visit {bad} is not a point index$"):
            Schedule(visits)

    def test_integer_visits_of_any_integer_type(self):
        s = Schedule((np.int64(0), np.int32(1), True, 2))
        assert s.visits == (0, 1, 2)
        assert {type(v) for v in s.visits} == {int}

    def test_document_round_trip(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))
        doc = schedule_to_document(s, unit_triangle)
        assert doc == {"visits": ["a", "b", "a", "c"]}
        assert schedule_from_document(doc, unit_triangle) == s

    def test_document_unknown_label_raises(self, unit_triangle):
        with pytest.raises(ValueError, match=r"^unknown point label 'zz'$"):
            schedule_from_document({"visits": ["a", "zz", "yy"]}, unit_triangle)

    @pytest.mark.parametrize("visit", [None, 1, True, [1]], ids=["null", "1", "true", "array"])
    def test_document_rejects_a_visit_that_is_not_a_string(self, visit):
        """A JSON null, number or boolean names no point, even where some
        label spells it."""
        inst = make_instance(["None", "1", "True"], [1.0, 1.0, 1.0],
                             [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=rf"^schedule visits must be point labels "
                                             rf"\(strings\), got {re.escape(repr(visit))}$"):
            schedule_from_document({"visits": ["None", visit, "zz"]}, inst)


class TestAbsenceProfile:
    def test_hand_traced_profile(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))  # a b a c, all hops length 1, period 4
        assert sorted(absence_profile(s, 0, unit_triangle)) == [2.0, 2.0]
        assert absence_profile(s, 1, unit_triangle) == [4.0]
        assert absence_profile(s, 2, unit_triangle) == [4.0]

    def test_unvisited_point_has_no_profile(self, unit_triangle):
        s = Schedule((0, 1))
        assert absence_profile(s, 2, unit_triangle) is None

    @pytest.mark.parametrize("visits, bad", [((0, 3, 1, 4), 3), ((0, -1, 2), -1),
                                             ((0, 10**30), 10**30), ((0, -10**30), -10**30)])
    def test_unknown_point_index_is_an_error(self, unit_triangle, visits, bad):
        s = Schedule(visits)
        for call in (lambda: period_length(s, unit_triangle),
                     lambda: absence_profile(s, 0, unit_triangle),
                     lambda: point_costs(s, unit_triangle, [2.0]),
                     lambda: schedule_to_document(s, unit_triangle)):
            with pytest.raises(ValueError, match=f"unknown point index {bad}$"):
                call()

    def test_single_visit_schedule(self, unit_triangle):
        s = Schedule((1,))
        assert absence_profile(s, 1, unit_triangle) == [0.0]
        assert period_length(s, unit_triangle) == 0.0


class TestPointCost:
    def test_max_gap_at_p_inf(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))
        assert point_cost(s, 0, unit_triangle, math.inf) == 2.0
        assert point_cost(s, 1, unit_triangle, math.inf) == 4.0

    def test_quadratic_cost_formula(self, line_four):
        # visits p0 p1 p0 p2 ... gaps of p1 within period: hand-check vs formula
        s = Schedule((0, 1))  # period 2, each point has one gap of 2
        assert point_cost(s, 0, line_four, 2.0) == 2.0
        # two unequal gaps: schedule p0 p1 p0 p2 on the line
        s2 = Schedule((0, 1, 0, 2))
        # p0 gaps: 2 and 4 (hop p0->p2 is 2, p2->p0 is 2); period 6
        assert absence_profile(s2, 0, line_four) in ([2.0, 4.0], [4.0, 2.0])
        expected = (2.0 ** 2 + 4.0 ** 2) / (2.0 + 4.0)
        assert point_cost(s2, 0, line_four, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_unvisited_point_costs_unbounded(self, unit_triangle):
        s = Schedule((0, 1))
        assert point_cost(s, 2, unit_triangle, 2.0) == UNBOUNDED
        assert point_cost(s, 2, unit_triangle, math.inf) == UNBOUNDED
        assert weighted_objective(s, unit_triangle, math.inf) == UNBOUNDED

    def test_rejects_p_below_two(self, unit_triangle):
        s = Schedule((0, 1, 2))
        with pytest.raises(ValueError):
            point_cost(s, 0, unit_triangle, 1.5)
        with pytest.raises(ValueError):
            point_cost(s, 0, unit_triangle, float("nan"))

    def test_one_gap_costs_that_gap_at_every_p(self):
        # l^3 / l^2 rounds one ulp above this l; a cost is clamped to the largest gap
        gap = 6.418191418076387
        assert gap ** 3 / gap ** 2 == math.nextafter(gap, math.inf)
        for p in (2.0, 3.0, 50.0, math.inf):
            assert _cost_of_gaps([gap], p) == gap

    def test_weighted_objective_hand_trace(self, unit_triangle):
        s = Schedule((0, 1, 0, 2))
        # w_a*2 = 2, w_b*4 = 2, w_c*4 = 2
        assert weighted_objective(s, unit_triangle, math.inf) == 2.0
        assert weighted_objective(s, unit_triangle, 2.0) == 2.0


class TestPointCosts:
    def test_every_point_and_order_from_one_pass(self, line_four):
        s = Schedule((0, 1, 0, 2, 3, 1))
        ps = [2.0, 3.0, math.inf]
        costs = point_costs(s, line_four, ps)
        assert costs == [[point_cost(s, x, line_four, p) for x in range(4)] for p in ps]
        assert [worst_weighted(c, line_four) for c in costs] == \
            [weighted_objective(s, line_four, p) for p in ps]

    def test_unvisited_point_is_unbounded(self, unit_triangle):
        costs = point_costs(Schedule((0, 1)), unit_triangle, [2.0])[0]
        assert costs[2] == UNBOUNDED
        assert worst_weighted(costs, unit_triangle) == UNBOUNDED

    def test_rejects_p_below_two(self, unit_triangle):
        with pytest.raises(ValueError):
            point_costs(Schedule((0, 1, 2)), unit_triangle, [2.0, 1.5])

    @pytest.mark.parametrize("visits", [(0, 1, 2), (0,)])
    def test_overflowing_period_is_an_error(self, visits):
        big = make_instance(["a", "b", "c"], [1.0, 1.0, 1.0],
                            [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)])
        s = Schedule(visits)
        if len(visits) == 1:
            assert period_length(s, big) == 0.0
            assert point_costs(s, big, [2.0]) == [[0.0, UNBOUNDED, UNBOUNDED]]
            return
        for call in (lambda: period_length(s, big), lambda: point_costs(s, big, [2.0]),
                     lambda: absence_profile(s, 0, big)):
            with pytest.raises(ValueError, match="period overflows"):
                call()


    def test_power_overflow_is_rescaled(self):
        """l^p passes the float range, the period does not: every point's one
        gap is the period, at every order."""
        big = make_instance(["a", "b", "c"], [1.0, 1.0, 1.0],
                            [[0.0 if i == j else 1e200 for j in range(3)] for i in range(3)])
        s = Schedule((0, 1, 2))
        assert point_costs(s, big, [2.0, 3.0, 2000.0, math.inf]) == [[3e200] * 3] * 4


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=300, deadline=None)
@given(case=schedules_on_metrics())
def test_profile_kernel_matches_reference_bit_for_bit(case):
    inst, s = case
    kernel, period = _profiles(s.visits, _hops(s, inst), inst.n)
    profiles, ref_period = reference_profiles(s.visits, inst.dist, inst.n)
    assert period == ref_period == period_length(s, inst)  # one summation
    assert kernel == profiles
    assert [absence_profile(s, x, inst) for x in range(inst.n)] == profiles
    assert point_costs(s, inst, [2.0, 3.0, math.inf]) == [
        [_cost_of_gaps(g, p) for g in profiles] for p in (2.0, 3.0, math.inf)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(6))
def test_absence_lengths_tile_the_period(seed, visits):
    inst = random_instance(seed, 6)
    s = Schedule(visits)
    period = period_length(s, inst)
    for x in set(s.visits):
        gaps = absence_profile(s, x, inst)
        assert gaps is not None
        assert sum(gaps) == pytest.approx(period, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(5),
       shift=st.integers(0, 11))
def test_rotation_leaves_costs_unchanged(seed, visits, shift):
    inst = random_instance(seed, 5)
    s = Schedule(visits)
    k = shift % len(s.visits)
    rotated = Schedule(s.visits[k:] + s.visits[:k])
    for p in (2.0, 3.0, math.inf):
        assert weighted_objective(rotated, inst, p) == pytest.approx(
            weighted_objective(s, inst, p), rel=1e-12)
        for x in range(inst.n):
            assert point_cost(rotated, x, inst, p) == pytest.approx(
                point_cost(s, x, inst, p), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(5))
def test_concatenating_a_period_with_itself_changes_nothing(seed, visits):
    inst = random_instance(seed, 5)
    s = Schedule(visits)
    if s.visits[-1] == s.visits[0] and len(s.visits) > 1:
        return  # doubling would collapse at the seam; cyclically identical anyway
    doubled = Schedule(s.visits + s.visits)
    for p in (2.0, math.inf):
        for x in range(inst.n):
            assert point_cost(doubled, x, inst, p) == pytest.approx(
                point_cost(s, x, inst, p), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(5))
def test_point_cost_nondecreasing_in_p(seed, visits):
    inst = random_instance(seed, 5)
    s = Schedule(visits)
    ps = [2.0, 3.0, 10.0, math.inf]
    for x in set(s.visits):
        costs = [point_cost(s, x, inst, p) for p in ps]
        for lo, hi in zip(costs, costs[1:]):
            assert lo <= hi * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(5),
       scale=st.sampled_from([1.0, 1e-3, 1e-170, 1e-300, 1e3, 1e170, 1e300]))
def test_point_cost_nondecreasing_in_p_at_every_distance_scale(seed, visits, scale):
    """Rescaled to a period of ``scale``: l^p underflows at small scales
    and overflows at large ones, and every cost must still be positive,
    nondecreasing in p, and ``scale`` times the cost at period 1."""
    base = random_instance(seed, 5)
    s = Schedule(visits)
    period = period_length(s, base)
    assume(period > 0.0)
    unit = make_instance(base.labels, base.weights, base.dist / period)
    inst = make_instance(base.labels, base.weights, base.dist * (scale / period))
    ps = [2.0, 3.0, 50.0, 200.0, 2000.0, math.inf]
    for x in set(s.visits):
        costs = [point_cost(s, x, inst, p) for p in ps]
        assert costs[0] > 0.0
        for lo, hi in zip(costs, costs[1:]):
            assert lo <= hi * (1 + 1e-12)
        for p, cost in zip(ps, costs):
            assert cost == pytest.approx(scale * point_cost(s, x, unit, p), rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       scale=st.sampled_from([1.0, 1e-3, 1e-170, 1e-300, 1e3, 1e170, 1e300]),
       p=st.sampled_from([2.0, 3.0, 50.0, 2000.0]))
def test_finite_p_cost_never_above_the_largest_gap(gaps, scale, p):
    """C_p <= C_inf bit for bit, also where powers leave the float range."""
    gaps = [g * scale for g in gaps]
    assert _cost_of_gaps(gaps, p) <= _cost_of_gaps(gaps, math.inf) == max(gaps)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 999), visits=visit_sequences(5))
def test_p_inf_cost_between_mean_and_period(seed, visits):
    """max gap is at least the quadratic cost and at most the period."""
    inst = random_instance(seed, 5)
    s = Schedule(visits)
    period = period_length(s, inst)
    for x in set(s.visits):
        c2 = point_cost(s, x, inst, 2.0)
        cinf = point_cost(s, x, inst, math.inf)
        assert c2 <= cinf * (1 + 1e-12)
        assert cinf <= period * (1 + 1e-12)
