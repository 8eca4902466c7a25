"""The approximation planner: weight classes, tour lists, phase schedule."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (RandomSpec, Schedule, class_index, generate_random, lower_bound,
                         make_instance, minimum_spanning_tree, plan, weighted_objective)
from patrolsched import mst as mst_module
from patrolsched import oracle as oracle_module
from patrolsched import treecover as treecover_module
from patrolsched.mst import _spanning_forest
from patrolsched.planner import _check_list_weights, _check_tree_budgets, emit_schedule
from conftest import left_fold, random_instance


class TestClassIndex:
    def test_weight_one_is_class_zero(self):
        assert class_index(1.0) == 0

    def test_powers_of_two_hit_their_own_class(self):
        assert class_index(0.5) == 1
        assert class_index(0.25) == 2
        assert class_index(2.0 ** -7) == 7

    def test_intermediate_weights_round_down(self):
        assert class_index(0.6) == 1   # rounded to 1/2
        assert class_index(0.3) == 2   # rounded to 1/4
        assert class_index(0.26) == 2

    def test_rejects_out_of_range(self):
        for w in (0.0, -1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                class_index(w)


class TestPlanGoldens:
    def test_unit_triangle_trace(self, unit_triangle):
        res = plan(unit_triangle)
        assert [unit_triangle.labels[v] for v in res.schedule.visits] == \
            ["a", "b", "a", "c"]
        assert res.diagnostics["objective_inf"] == 2.0
        assert res.diagnostics["objective_2"] == 2.0
        assert res.diagnostics["lower_bound"] == 1.5
        assert res.I == 1
        assert res.J == 3
        assert res.phases == 2
        # class 0 = {a} at rounded weight 1, class 1 = {b, c} at 1/2
        assert [(c.index, c.theta, c.members) for c in res.classes] == \
            [(0, 1, (0,)), (1, 2, (1, 2))]
        assert [tl.lam for tl in res.lists] == [1, 2]

    def test_uniform_weights_single_tour(self):
        inst = random_instance(2, 8, weight_law="equal")
        res = plan(inst)
        # one class, theta = 1, a single tour repeated every phase
        assert len(res.classes) == 1
        assert res.classes[0].index == 0
        assert res.J == 1
        assert res.phases == 1
        assert sorted(res.schedule.visits) == list(range(8))

    def test_single_point_instance(self):
        inst = make_instance(["a"], [1.0], [[0.0]])
        res = plan(inst)
        assert res.schedule.visits == (0,)
        assert res.diagnostics["objective_inf"] == 0.0
        assert res.diagnostics["lower_bound"] == 0.0
        assert res.diagnostics["envelope_ratio"] == 0.0


class TestPlanInvariants:
    @pytest.mark.parametrize("seed,n,law", [
        (0, 5, "uniform"), (1, 9, "pareto"), (2, 14, "uniform"),
        (3, 20, "pareto"), (4, 33, "uniform"), (5, 12, "equal"),
    ])
    def test_diagnostic_flags_hold(self, seed, n, law):
        inst = random_instance(seed, n, weight_law=law)
        res = plan(inst)
        diag = res.diagnostics
        assert diag["all_points_visited"]
        assert diag["list_weight_ok"]
        assert diag["tree_budget_ok"]

    def test_list_weight_invariant_recomputed(self):
        inst = random_instance(7, 25, weight_law="pareto")
        res = plan(inst)
        point_class = {}
        for c in res.classes:
            for x in c.members:
                point_class[x] = c.index
        for tl in res.lists:
            for tour in tl.tours:
                for x in tour.visits:
                    # rounded weight 2^-class <= 2^-list_index
                    assert point_class[x] >= tl.index

    def test_tree_budget_invariant_recomputed(self):
        inst = random_instance(8, 25, weight_law="pareto")
        res = plan(inst)
        for c in res.classes:
            cover = res.covers[c.index]
            if c.theta == 2 ** c.index:  # saturated class
                mst = minimum_spanning_tree(inst, list(c.members))
                assert c.theta * cover.max_cost <= 4.0 * mst.cost

    def test_invariant_checks_catch_a_tampered_plan(self):
        res = plan(random_instance(7, 25, weight_law="pareto"))
        assert _check_list_weights(res.lists, res.classes)
        assert _check_tree_budgets(res.classes, res.covers)
        # a point of the heaviest class on a tour of the last, lightest list
        heavy, last = res.classes[0], res.lists[-1]
        assert heavy.index < last.index
        tour = Schedule((heavy.members[0], *last.tours[0].visits))
        lists = (*res.lists[:-1], dataclasses.replace(last, tours=(tour, *last.tours[1:])))
        assert not _check_list_weights(lists, res.classes)
        # a class whose trees cost more than four MSTs of the class
        cls = next(c for c in res.classes if res.covers[c.index].max_cost > 0.0)
        covers = {**res.covers,
                  cls.index: dataclasses.replace(res.covers[cls.index], mst_cost=0.0)}
        assert not _check_tree_budgets(res.classes, covers)

    def test_lists_hold_exactly_the_class_tours(self):
        inst = random_instance(9, 18, weight_law="pareto")
        res = plan(inst)
        flat = [t for tl in res.lists for t in tl.tours]
        assert res.J == sum(c.theta for c in res.classes)
        assert len(flat) == res.J  # the lists partition the tour sequence

    def test_lists_partition_tours_in_doubling_sizes(self):
        inst = random_instance(10, 30, weight_law="pareto")
        res = plan(inst)
        sizes = [len(tl.tours) for tl in res.lists]
        assert sizes == [tl.lam for tl in res.lists]
        for i, tl in enumerate(res.lists[:-1]):
            assert tl.lam == 2 ** i
        assert sum(sizes) == res.J
        assert res.I == len(res.lists) - 1
        last_lam = res.lists[-1].lam
        assert 1 <= last_lam <= 2 ** res.I

    def test_deterministic(self):
        inst = random_instance(11, 16, weight_law="pareto")
        assert plan(inst) == plan(inst)


class TestSharedSpanningTrees:
    @pytest.mark.parametrize("seed,geometry", [
        (1, "euclidean-plane"), (2, "random-closure"), (3, "euclidean-plane"),
    ])
    def test_stored_trees_equal_fresh_ones(self, seed, geometry):
        # every other point at the top weight: class 0's cover and the
        # bound's first MST level span the same 20 points
        base = random_instance(seed, 40, weight_law="uniform", geometry=geometry)
        weights = base.weights.copy()
        weights[::2] = 1.0
        inst = make_instance(list(base.labels), weights, base.dist)
        res = plan(inst)
        assert res.classes[0].index == 0 and len(res.classes[0].members) > 16
        assert res.classes[0].members in inst._msts
        for key, (us, vs, ws, cost) in inst._msts.items():
            fresh = _spanning_forest(inst.dist, key)
            assert all(np.array_equal(a, b) for a, b in zip((us, vs, ws), fresh))
            assert cost == left_fold(fresh[2].tolist())

    def test_equal_weights_build_the_all_points_tree_once(self, monkeypatch):
        inst = random_instance(1, 40, weight_law="equal")
        forest, calls = mst_module._spanning_forest, []

        def counted(dist, vertices, *args):
            calls.append(len(vertices))
            return forest(dist, vertices, *args)

        # every module that binds the name, so a call through any of them counts
        for module in (mst_module, oracle_module, treecover_module):
            if hasattr(module, "_spanning_forest"):
                monkeypatch.setattr(module, "_spanning_forest", counted)
        plan(inst)
        assert calls.count(40) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 24),
       law=st.sampled_from(["equal", "uniform", "pareto"]))
def test_envelope_holds_on_random_instances(seed, n, law):
    inst = random_instance(seed, n, weight_law=law)
    res = plan(inst)
    obj = weighted_objective(res.schedule, inst, math.inf)
    lb = lower_bound(inst)
    assert obj == res.diagnostics["objective_inf"]
    assert lb == res.diagnostics["lower_bound"]
    assert obj <= 18.0 * (res.I + 1) * lb * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 20))
def test_schedule_visits_exactly_the_instance_points(seed, n):
    inst = random_instance(seed, n, weight_law="pareto")
    res = plan(inst)
    assert set(res.schedule.visits) == set(range(n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 60),
       law=st.sampled_from(["uniform", "pareto"]),
       geometry=st.sampled_from(["euclidean-plane", "random-closure"]))
def test_emission_spans_a_power_of_two_phases(seed, n, law, geometry):
    """The schedule runs max_i p_i phases, p_i the least power of two >=
    lambda_i, never more than lcm(lambda_i); phase j runs one tour of every
    list, heaviest first, and each tour of list i recurs within 2^i phases."""
    res = plan(random_instance(seed, n, law, geometry))
    lams = [tl.lam for tl in res.lists]
    assert res.phases == max(1 << (lam - 1).bit_length() for lam in lams)
    assert res.phases <= math.lcm(*lams)
    assert res.diagnostics["all_points_visited"]
    assert res.diagnostics["envelope_ok"]
    assert emit_schedule(res.lists) == (res.schedule, res.phases)
    if res.I == 0:  # one tour, run once
        assert res.phases == 1
        return
    # tours of two trees may share a point, so emit one marker point per tour
    # instead: with two lists or more no marker follows itself, and phase j
    # is row j of the emitted visits
    markers, first = [], 0
    for tl in res.lists:
        markers.append(dataclasses.replace(
            tl, tours=tuple(Schedule((first + k,)) for k in range(tl.lam))))
        first += tl.lam
    marked, phases = emit_schedule(tuple(markers))
    grid = np.array(marked.visits).reshape(phases, res.I + 1)
    for tl, column in zip(markers, grid.T):
        assert set(column) == {tour.visits[0] for tour in tl.tours}
        for tour in tl.tours:
            at = np.flatnonzero(column == tour.visits[0])
            assert np.diff([*at, at[0] + phases]).max() <= 2 ** tl.index, (tl.index, tour)


def test_emission_pins_a_mid_size_plan():
    # lambda_I = 54 pads to 64 phases; lcm(lambda_i) = 864 phases would give 8,246 visits
    res = plan(generate_random(RandomSpec(200, "pareto"), 1))
    assert [tl.lam for tl in res.lists][-2:] == [32, 54]
    assert res.phases == 64
    assert len(res.schedule.visits) == 616
