"""Minimum spanning trees and depth-first shortcut tours."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (Schedule, euler_shortcut, make_instance,
                         minimum_spanning_tree, period_length)
from patrolsched import mst as mst_module
from patrolsched.mst import _find, _spanning_forest, _subset_mst
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


def full_sort_spanning_forest(dist, vertices, us=None, vs=None):
    """``_spanning_forest`` as it was before weight bands: one lexsort of every
    candidate, kept verbatim as the reference the bands must reproduce."""
    verts = np.asarray(vertices, dtype=np.int64)
    if us is None:
        at = np.arange(verts.size)
        pu, pv = np.nonzero(at[:, None] < at)
        us, vs = verts[pu], verts[pv]
    else:
        pos = np.empty(dist.shape[0], dtype=np.int64)
        pos[verts] = np.arange(verts.size)
        pu, pv = pos[us], pos[vs]
    ws = dist[us, vs]
    order = np.lexsort((vs, us, ws))
    parent = list(range(verts.size))
    keep: list[int] = []
    for i, a, b in zip(order.tolist(), pu[order].tolist(), pv[order].tolist()):
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            parent[b] = a
            keep.append(i)
            if len(keep) == verts.size - 1:
                break
    kept = np.array(keep, dtype=np.intp)
    return us[kept], vs[kept], ws[kept]


def _band_matrix(shape, n, rng):
    """A distance matrix of ``n`` points whose weights tie often or jump once."""
    if shape == "ints":  # small integers: ties straddle every band cut
        d = np.triu(rng.integers(1, 4, size=(n, n)), 1).astype(float)
        return d + d.T
    if shape == "grid":  # distinct points of an L1 grid
        side = int(np.ceil(np.sqrt(n))) + 1
        xy = np.array([divmod(int(c), side) for c in rng.permutation(side * side)[:n]], float)
        return np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    if shape == "line":  # distinct integer points on a line
        x = rng.permutation(3 * n)[:n].astype(float)
        return np.abs(x[:, None] - x[None, :])
    # two far-apart clusters: every bridge edge outweighs every edge inside
    xy = rng.random((n, 2))
    xy[rng.permutation(n)[:n // 2]] += 1000.0
    return np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))


def _grow_candidates(old, new, tree_us, tree_vs):
    """The candidates ``_grow_spanning_tree`` hands Kruskal: MST(old) plus
    every edge touching ``new``."""
    at = np.arange(new.size)
    iu, iv = np.nonzero(at[:, None] < at)
    a = np.concatenate([np.repeat(new, old.size), new[iu]])
    b = np.concatenate([np.tile(old, new.size), new[iv]])
    return (np.concatenate([old, new]), np.concatenate([tree_us, np.minimum(a, b)]),
            np.concatenate([tree_vs, np.maximum(a, b)]))


@st.composite
def band_cases(draw):
    """(dist, vertices, us, vs): all pairs of a vertex subset, a growth step's
    candidates, or candidates that join only within two groups."""
    shape = draw(st.sampled_from(["ints", "grid", "line", "clusters"]))
    n = draw(st.integers(64, 120) if shape == "clusters" else st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dist = _band_matrix(shape, n, rng)
    kind = draw(st.sampled_from(["all", "grow", "nospan"]))
    if kind == "all":
        size = n if shape == "clusters" else draw(st.integers(1, n))
        return dist, np.sort(rng.permutation(n)[:size]), None, None
    perm = rng.permutation(n)
    split = draw(st.integers(1, n - 1))
    if kind == "grow":
        old, new = perm[:split], perm[split:]
        tree_us, tree_vs, _ = full_sort_spanning_forest(dist, old)
        return (dist, *_grow_candidates(old, new, tree_us, tree_vs))
    verts = np.sort(perm)
    side = np.zeros(n, dtype=bool)
    side[perm[:split]] = True
    at = np.arange(n)
    pu, pv = np.nonzero((at[:, None] < at) & (side[:, None] == side[None, :]))
    return dist, verts, verts[pu], verts[pv]


@settings(max_examples=150, deadline=None)
@given(case=band_cases())
def test_weight_bands_keep_the_full_sort_forest(case):
    dist, verts, us, vs = case
    got = _spanning_forest(dist, verts, us, vs)
    want = full_sort_spanning_forest(dist, verts, us, vs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def subset_mst_cases(draw):
    """A plane, random-closure or tie-heavy L1 grid instance and an ascending subset."""
    geometry = draw(st.sampled_from(["euclidean-plane", "random-closure", "grid"]))
    if geometry == "grid":
        inst, subset = draw(grid_subsets())
    else:
        n = draw(st.integers(3, 40))
        inst = random_instance(draw(st.integers(0, 9999)), n, geometry=geometry)
        subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return inst, sorted(subset)


@settings(max_examples=80, deadline=None)
@given(case=subset_mst_cases())
def test_subset_mst_is_the_full_sort_forest_built_once(case):
    inst, subset = case
    got = _subset_mst(inst, subset)
    want = full_sort_spanning_forest(inst.dist, subset)
    assert all(np.array_equal(g, w) for g, w in zip(got[:3], want))
    assert got[3] == left_fold(want[2].tolist()) and type(got[3]) is float
    assert _subset_mst(inst, subset) is got
    assert not any(array.flags.writeable for array in got[:3])


def test_far_apart_clusters_run_three_bands(monkeypatch):
    rng = np.random.default_rng(7)
    dist = _band_matrix("clusters", 96, rng)
    seen, bands = [], mst_module._bands

    def counted(*args):
        for band in bands(*args):
            seen.append(band)
            yield band

    monkeypatch.setattr(mst_module, "_bands", counted)
    got = _spanning_forest(dist, range(96))
    monkeypatch.undo()
    assert len(seen) >= 3
    want = full_sort_spanning_forest(dist, range(96))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert (dist[got[0], got[1]] > 500.0).sum() == 1  # the one bridge, in the last band

