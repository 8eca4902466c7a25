"""Tree decomposition, budget probing, and the min-max tree cover search."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (Tree, decompose_tree, euler_shortcut, make_instance,
                         minimum_spanning_tree, minmax_tree_cover,
                         partition_tree_cover_oracle, try_budget)
from patrolsched.treecover import _threshold
from conftest import (left_fold, random_instance, random_metric_instance,
                      reference_decompose_tree, reference_minmax_tree_cover,
                      reference_try_budget)


def assert_connected(tree):
    parent = {v: v for v in tree.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in tree.edges:
        parent[find(u)] = find(v)
    assert len({find(v) for v in tree.vertices}) == 1


class TestDecomposeTree:
    def test_line_at_unit_budget(self, line_four):
        mst = minimum_spanning_tree(line_four)
        pieces = decompose_tree(line_four, mst, 1.0)
        assert sorted(p.cost for p in pieces) == [1.0, 2.0]
        assert sorted(set(p.edges for p in pieces)) == [((0, 1),), ((1, 2), (2, 3))]

    def test_cheap_tree_returned_whole(self, line_four):
        mst = minimum_spanning_tree(line_four)
        assert decompose_tree(line_four, mst, 2.0) == [mst]  # cost 3 < 2*2

    def test_rejects_nonpositive_budget(self, line_four):
        mst = minimum_spanning_tree(line_four)
        for budget in (0.0, math.nan):
            with pytest.raises(ValueError, match="budget must be positive"):
                decompose_tree(line_four, mst, budget)

    def test_rejects_overlong_edge(self, line_four):
        mst = minimum_spanning_tree(line_four)
        with pytest.raises(ValueError):
            decompose_tree(line_four, mst, 0.5)

    def test_star_with_deep_arm(self):
        # r-a-a2-a3 chain plus r-b spoke, unit edges: naive DFS-run chopping
        # would pair {a2-a3, r-b} into one disconnected piece; every piece
        # here must stay connected.
        d = [[0, 1, 2, 3, 1],
             [1, 0, 1, 2, 2],
             [2, 1, 0, 1, 3],
             [3, 2, 1, 0, 4],
             [1, 2, 3, 4, 0]]
        inst = make_instance(["r", "a", "a2", "a3", "b"], [1.0] * 5, d)
        mst = minimum_spanning_tree(inst)
        assert mst.cost == 4.0
        pieces = decompose_tree(inst, mst, 1.0)
        for p in pieces:
            assert_connected(p)
        assert sum(p.cost for p in pieces) == mst.cost
        assert sum(1 for p in pieces if p.cost < 2.0) <= 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 14),
       scale=st.floats(1.0, 3.0))
def test_decomposition_pieces_partition_edges_and_respect_bounds(seed, n, scale):
    inst = random_instance(seed, n)
    mst = minimum_spanning_tree(inst)
    budget = max(float(inst.dist[u, v]) for u, v in mst.edges) * scale
    pieces = decompose_tree(inst, mst, budget)
    # edge-disjoint partition of the tree's edges
    all_edges = [e for p in pieces for e in p.edges]
    assert sorted(all_edges) == sorted(mst.edges)
    for p in pieces:
        assert_connected(p)
        assert p.cost < 4.0 * budget
    assert sum(1 for p in pieces if p.cost < 2.0 * budget) <= 1
    # the piece count never exceeds the budget-probe accounting
    assert len(pieces) <= int(mst.cost // (2.0 * budget)) + 1


class TestTryBudget:
    def test_line_golden(self, line_four):
        cover = try_budget(line_four, None, 2, 1.0)
        assert cover is not None
        assert cover.max_cost == 2.0
        assert sorted(t.cost for t in cover.trees) == [1.0, 2.0]

    def test_infeasible_budget_returns_none(self, line_four):
        assert try_budget(line_four, None, 2, 0.4) is None

    def test_generous_k_gives_singletons(self, line_four):
        cover = try_budget(line_four, None, 4, 0.4)
        assert cover is not None
        assert cover.max_cost == 0.0
        assert len(cover.trees) == 4

    def test_rejects_bad_arguments(self, line_four):
        with pytest.raises(ValueError):
            try_budget(line_four, None, 0, 1.0)
        with pytest.raises(ValueError):
            try_budget(line_four, None, 2, -1.0)
        with pytest.raises(ValueError, match="budget must be positive"):
            try_budget(line_four, None, 2, math.nan)

    def test_single_point_subset(self, line_four):
        cover = try_budget(line_four, [2], 1, 0.5)
        assert cover is not None
        assert cover.max_cost == 0.0

    def test_feasibility_is_not_monotone_in_the_budget(self):
        # at B = 8 the edge 16-24 joins two components, and the merged
        # component needs one piece more than the two did apart
        xs = [5, 8, 10, 16, 24, 31, 38]
        inst = make_instance([f"x{x}" for x in xs], [1.0] * len(xs),
                             [[abs(a - b) for b in xs] for a in xs])
        assert try_budget(inst, None, 2, 22 / 3) is not None
        assert try_budget(inst, None, 2, 8.0) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(3, 12),
       k=st.integers(1, 4), frac=st.floats(0.05, 1.2))
def test_try_budget_cover_invariants(seed, n, k, frac):
    inst = random_instance(seed, n)
    mst_cost = minimum_spanning_tree(inst).cost
    budget = mst_cost * frac + 1e-9
    cover = try_budget(inst, None, k, budget)
    if cover is None:
        # a budget keeping every edge in one cheap component is always feasible
        generous = mst_cost + float(inst.dist.max())
        assert try_budget(inst, None, k, generous) is not None
        return
    assert len(cover.trees) <= k
    covered = sorted({v for t in cover.trees for v in t.vertices})
    assert covered == list(range(n))  # pieces may share cut vertices
    for t in cover.trees:
        assert_connected(t)
        assert t.cost < 4.0 * budget


@st.composite
def cover_cases(draw, max_k: int = 4):
    """(instance, subset, k <= max_k): a random metric or a tie-heavy L1 grid, <= 9 points.

    The grid's distances are integers scaled by 1, 0.1 or 1/3, so many are
    tied and, scaled, their float sums are inexact.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        inst = random_metric_instance(np.random.default_rng(draw(st.integers(0, 9999))), n)
    else:
        side = draw(st.integers(2, 5))
        n = draw(st.integers(2, min(9, side * side)))
        cells = draw(st.lists(st.integers(0, side * side - 1), min_size=n, max_size=n,
                              unique=True))
        xy = np.array([divmod(c, side) for c in cells], dtype=float)
        dist = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
        dist *= draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
        inst = make_instance([f"p{i}" for i in range(n)], [1.0] * n, dist)
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return inst, sorted(subset), draw(st.integers(1, max_k))


@settings(max_examples=200, deadline=None)
@given(case=cover_cases())
def test_cover_budget_is_a_critical_budget_at_most_the_optimum(case):
    # feasible, its next smaller double is not, and so it is at most OPT
    inst, subset, k = case
    cover = minmax_tree_cover(inst, subset, k)
    if len(subset) <= k:
        assert cover.budget_used == 0.0 and cover.max_cost == 0.0
        assert len(cover.trees) == len(subset)
        return
    budget = cover.budget_used
    assert try_budget(inst, subset, k, budget) == cover
    assert try_budget(inst, subset, k, math.nextafter(budget, 0.0)) is None
    exact = partition_tree_cover_oracle(inst, subset, k)
    assert budget <= math.nextafter(exact.value, math.inf)
    assert len(cover.trees) <= k


def tree_bits(trees):
    return [(t.vertices, t.edges, t.cost.hex()) for t in trees]


def cover_bits(cover):
    if cover is None:
        return None
    return tree_bits(cover.trees), cover.budget_used.hex(), cover.k, cover.mst_cost.hex()


@settings(max_examples=200, deadline=None)
@given(case=cover_cases(max_k=9))
def test_tree_layer_matches_the_per_component_references_bit_for_bit(case):
    # pieces in order, their edges and the bits of every cost
    inst, subset, k = case
    assert (cover_bits(minmax_tree_cover(inst, subset, k))
            == cover_bits(reference_minmax_tree_cover(inst, subset, k)))
    mst = minimum_spanning_tree(inst, subset)
    weights = sorted({float(inst.dist[u, v]) for u, v in mst.edges}) or [1.0]
    for factor in (1.0, 1.3, 2.0, 5.0):
        budget = weights[-1] * factor
        assert (tree_bits(decompose_tree(inst, mst, budget))
                == tree_bits(reference_decompose_tree(inst, mst, budget)))
    # every forest the MST passes through, then the budgets above
    for budget in [*weights[:-1], *(weights[-1] * f for f in (1.0, 1.3, 2.0, 5.0))]:
        assert (cover_bits(try_budget(inst, subset, k, budget))
                == cover_bits(reference_try_budget(inst, subset, k, budget)))


@settings(max_examples=300, deadline=None)
@given(cost=st.floats(5e-324, 1e308), m=st.integers(1, 40))
def test_threshold_is_the_smallest_budget_with_at_most_m_pieces(cost, m):
    b = _threshold(cost, m)
    assert cost / (2.0 * b) < m
    below = math.nextafter(b, 0.0)
    assert below == 0.0 or not cost / (2.0 * below) < m


class TestMinmaxTreeCover:
    def test_line_golden(self, line_four):
        cover = minmax_tree_cover(line_four, None, 2)
        assert cover.max_cost == 2.0
        assert cover.budget_used == 1.0  # the critical edge length

    def test_single_tree_is_the_mst(self, line_four):
        cover = minmax_tree_cover(line_four, None, 1)
        assert len(cover.trees) == 1
        assert cover.max_cost == minimum_spanning_tree(line_four).cost

    def test_one_tree_per_point(self, line_four):
        cover = minmax_tree_cover(line_four, None, 4)
        assert cover.max_cost == 0.0
        assert len(cover.trees) == 4

    def test_subset_cover(self, line_four):
        cover = minmax_tree_cover(line_four, [0, 1, 3], 2)
        covered = sorted({v for t in cover.trees for v in t.vertices})
        assert covered == [0, 1, 3]

    def test_deterministic(self):
        inst = random_instance(5, 10)
        a = minmax_tree_cover(inst, None, 3)
        b = minmax_tree_cover(inst, None, 3)
        assert a == b


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 14), k=st.integers(1, 4))
def test_cover_records_the_subset_mst_cost(seed, n, k):
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, 14)
    members = sorted(rng.choice(14, size=n, replace=False).tolist())
    mst_cost = minimum_spanning_tree(inst, members).cost
    assert minmax_tree_cover(inst, members, k).mst_cost == mst_cost
    budget = mst_cost + float(inst.dist.max())  # one tree holds the whole subset
    assert try_budget(inst, members, k, budget).mst_cost == mst_cost


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999), m=st.integers(2, 8), k=st.integers(1, 3))
def test_cover_within_four_times_exact_optimum(seed, m, k):
    rng = np.random.default_rng(seed)
    inst = random_metric_instance(rng, 9)
    subset = sorted(rng.choice(9, size=m, replace=False).tolist())
    cover = minmax_tree_cover(inst, subset, k)
    exact = partition_tree_cover_oracle(inst, subset, k)
    assert cover.max_cost <= 4.0 * math.nextafter(exact.value, math.inf)
    covered = sorted({v for t in cover.trees for v in t.vertices})
    assert covered == subset
    assert len(cover.trees) <= k


@st.composite
def edge_lists(draw):
    """Distinct vertices among 8 points, in random order, and edges among
    them: a random tree on them, with edges dropped and others (repeats,
    cycles and loops) added, so some lists are trees and most are not."""
    verts = [v for v in draw(st.permutations(range(8))) if draw(st.booleans())]
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, len(verts))]
    if draw(st.booleans()):
        edges = [edge for edge in edges if draw(st.booleans())]
    if verts:
        edges += draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
                               max_size=3))
    return verts, [(min(u, v), max(u, v)) for u, v in draw(st.permutations(edges))]


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 99), case=edge_lists(), stretch=st.floats(1.0, 2.0))
def test_tree_walk_refuses_exactly_the_non_trees(seed, case, stretch):
    """euler_shortcut and decompose_tree refuse every vertex and edge list
    that is not a tree, whatever its stated cost; on a tree the tour visits
    each vertex once from ``start`` and the pieces are the reference's."""
    verts, edges = case
    inst = random_instance(seed, 8)
    # no edge is longer; loops alone (length 0) get budget 1
    budget = stretch * max((float(inst.dist[u, v]) for u, v in edges), default=0.0) or 1.0
    tree = Tree(tuple(sorted(verts)), tuple(edges),
                left_fold(float(inst.dist[u, v]) for u, v in edges))
    root = {v: v for v in verts}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    joins = 0
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            joins += 1
    start = verts[0] if verts else 0
    if not (verts and len(edges) == joins == len(verts) - 1):
        with pytest.raises(ValueError):
            euler_shortcut(tree, start)
        with pytest.raises(ValueError):
            decompose_tree(inst, tree, budget)
        return
    tour = euler_shortcut(tree, start).visits
    assert tour[0] == start and sorted(tour) == sorted(verts)
    assert (tree_bits(decompose_tree(inst, tree, budget))
            == tree_bits(reference_decompose_tree(inst, tree, budget)))
