"""Minimum spanning trees and depth-first shortcut tours."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (Schedule, euler_shortcut, make_instance,
                         minimum_spanning_tree, period_length)
from patrolsched.oracle import lower_bound
from conftest import left_fold, random_instance, random_metric_instance
import numpy as np


def brute_force_mst_cost(inst, subset):
    """Exact MST cost by enumerating spanning trees (tiny subsets only)."""
    verts = list(subset)
    m = len(verts)
    if m <= 1:
        return 0.0
    all_edges = [(verts[i], verts[j]) for i in range(m) for j in range(i + 1, m)]
    best = float("inf")
    for combo in itertools.combinations(all_edges, m - 1):
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        merged = 0
        for u, v in combo:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        if merged == m - 1:
            best = min(best, sum(inst.dist[u, v] for u, v in combo))
    return best


class TestMinimumSpanningTree:
    def test_line_mst_uses_unit_edges(self, line_four):
        tree = minimum_spanning_tree(line_four)
        assert tree.cost == 3.0
        assert set(tree.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_tree_shape_invariants(self):
        inst = random_instance(11, 15)
        tree = minimum_spanning_tree(inst)
        assert len(tree.edges) == len(tree.vertices) - 1
        assert set(tree.vertices) == set(range(inst.n))
        # connectivity: union-find over the edges joins everything
        parent = list(range(inst.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in tree.edges:
            parent[find(u)] = find(v)
        assert len({find(v) for v in range(inst.n)}) == 1

    def test_subset_mst(self, line_four):
        tree = minimum_spanning_tree(line_four, [0, 3])
        assert tree.vertices == (0, 3)
        assert tree.cost == 3.0

    def test_single_vertex_subset(self, line_four):
        tree = minimum_spanning_tree(line_four, [2])
        assert tree.vertices == (2,)
        assert tree.edges == ()
        assert tree.cost == 0.0

    def test_deterministic_under_ties(self):
        # complete graph with all distances equal: MST must still be unique
        inst = make_instance(list("abcd"), [1.0] * 4,
                             [[0, 1, 1, 1], [1, 0, 1, 1],
                              [1, 1, 0, 1], [1, 1, 1, 0]])
        t1 = minimum_spanning_tree(inst)
        t2 = minimum_spanning_tree(inst)
        assert t1 == t2
        assert t1.edges == ((0, 1), (0, 2), (0, 3))  # lowest-index tie order

    def test_rejects_out_of_range_subset(self, line_four):
        with pytest.raises(ValueError):
            minimum_spanning_tree(line_four, [0, 9])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), m=st.integers(2, 5))
def test_mst_cost_matches_exhaustive_enumeration(seed, m):
    rng = np.random.default_rng(seed)
    inst = random_metric_instance(rng, 6)
    subset = sorted(rng.choice(6, size=m, replace=False).tolist())
    tree = minimum_spanning_tree(inst, subset)
    assert tree.cost == pytest.approx(brute_force_mst_cost(inst, subset), rel=1e-12)


def sorted_pairs_kruskal(inst, subset):
    """Plain Kruskal over every pair of ``subset``, sorted by (distance, u, v)."""
    verts = sorted(subset)
    pairs = sorted((float(inst.dist[u, v]), u, v)
                   for i, u in enumerate(verts) for v in verts[i + 1:])
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    accepted = []
    for w, u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            accepted.append((u, v, w))
    return tuple(sorted((u, v) for u, v, _ in accepted)), left_fold(w for _, _, w in accepted)


@st.composite
def grid_subsets(draw):
    """An L1 metric on distinct integer grid points (many tied distances) and a subset.

    Scaling by 0.1 or 1/3 keeps the ties but makes the float sums inexact, so
    the cost shows the summation order.
    """
    side = draw(st.integers(2, 7))
    n = draw(st.integers(2, min(40, side * side)))
    cells = draw(st.lists(st.integers(0, side * side - 1), min_size=n, max_size=n,
                          unique=True))
    xy = np.array([divmod(c, side) for c in cells], dtype=float)
    dist = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    dist *= draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    inst = make_instance([f"p{i}" for i in range(n)], [1.0] * n, dist)
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return inst, subset


@settings(max_examples=80, deadline=None)
@given(case=grid_subsets())
def test_mst_equals_sorted_pairs_kruskal_bit_for_bit(case):
    inst, subset = case
    tree = minimum_spanning_tree(inst, subset)
    edges, cost = sorted_pairs_kruskal(inst, subset)
    assert tree.edges == edges
    assert tree.cost == cost and type(tree.cost) is float
    full = minimum_spanning_tree(inst)
    assert (full.edges, full.cost) == sorted_pairs_kruskal(inst, range(inst.n))


def test_costs_fold_left_to_right_on_every_python():
    # sum() of these MST weights differs in the last bit on Python 3.12
    inst = random_instance(1, 20, weight_law="equal")
    assert minimum_spanning_tree(inst).cost.hex() == "0x1.7f0b4235cf672p+1"
    assert lower_bound(inst).hex() == "0x1.7f0b4235cf672p+1"


class TestEulerShortcut:
    def test_visits_every_tree_vertex_once(self, line_four):
        tree = minimum_spanning_tree(line_four)
        tour = euler_shortcut(tree, 0)
        assert sorted(tour.visits) == [0, 1, 2, 3]
        assert tour.visits == (0, 1, 2, 3)  # preorder along the line

    def test_single_vertex_tree(self, line_four):
        tree = minimum_spanning_tree(line_four, [1])
        assert euler_shortcut(tree, 1) == Schedule((1,))

    def test_rejects_start_outside_tree(self, line_four):
        tree = minimum_spanning_tree(line_four, [0, 1])
        with pytest.raises(ValueError):
            euler_shortcut(tree, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 12))
def test_shortcut_tour_at_most_twice_tree_cost(seed, n):
    inst = random_instance(seed, n)
    tree = minimum_spanning_tree(inst)
    tour = euler_shortcut(tree, min(tree.vertices))
    assert sorted(tour.visits) == list(range(n))
    assert period_length(tour, inst) <= 2.0 * tree.cost * (1 + 1e-12)
