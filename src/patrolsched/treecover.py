"""Min-max tree covers: split a point set into <= k cheap connected trees.

The goal is k subtrees that together touch every point of a subset while the
most expensive subtree is as cheap as possible.  ``try_budget`` tests one
candidate budget B: it drops every edge longer than B, takes the minimum
spanning forest of what remains, and chops each component MST into edge-
disjoint pieces — at most one piece lighter than 2B per component, all other
pieces weighing in [2B, 4B).  If the pieces fit into k trees the budget is
feasible.  In Kruskal order the minimum spanning forest of the edges <= B
is the subset MST's prefix of edges <= B, so one Kruskal builds the MST
once per cover and every budget probe labels the components of its prefix
of edges <= B with a union-find.

Feasibility is not monotone in the budget: on a line at 5, 8, 10, 16, 24,
31, 38 with k = 2, B = 22/3 is feasible and B = 8 is not, because merging
two components at an edge weight can raise the piece count by one.  Every
budget at or above the optimal min-max tree cost is feasible, though, so an
infeasible budget lies below the optimum.  ``minmax_tree_cover`` searches
the finitely many budgets where feasibility can change and returns a
feasible one whose next smaller double is not, so every tree costs at most
4 times the optimal min-max tree cost, up to one ulp of the optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .instance import Instance
from .mst import (Tree, _adjacency, _find, _normalize_subset, _spanning_forest,
                  _tree_from_edges)


@dataclass(frozen=True)
class TreeCover:
    """Trees covering a subset; every tree costs at most ``4 * budget_used``.

    ``mst_cost`` is the cost of the subset's minimum spanning tree.  A cover
    of at most k points is its singletons, at budget 0.
    """

    trees: tuple[Tree, ...]
    budget_used: float
    k: int
    mst_cost: float

    @property
    def max_cost(self) -> float:
        return max(t.cost for t in self.trees)


def decompose_tree(inst: Instance, tree: Tree, budget: float) -> list[Tree]:
    """Split a tree whose edges are all <= budget into edge-disjoint subtrees.

    At most one piece costs less than 2*budget; every other piece costs in
    [2*budget, 4*budget).  Pieces are grown bottom-up from the lowest-index
    root: each child subtree hands its leftover edges (cost < 2B) to its
    parent, and whenever the accumulated bundle at a vertex reaches 2B it is
    emitted as one connected piece.  A bundle never exceeds 4B because each
    increment is itself below 3B (leftover < 2B plus one edge <= B) and is
    emitted on its own when it reaches 2B.
    """
    if budget <= 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    dist = inst.dist
    for u, v in tree.edges:
        if dist[u, v] > budget:
            raise ValueError(
                f"tree edge ({u}, {v}) has length {dist[u, v]!r} > budget {budget!r}")
    target = 2.0 * budget
    if tree.cost < target:
        return [tree]

    adj = _adjacency(tree)
    root = min(tree.vertices)

    pieces: list[list[tuple[int, int, float]]] = []

    # Iterative version of: for each child c of v, take the child's leftover
    # bundle, add edge (v, c); emit it alone if it already weighs >= 2B, else
    # fold it into v's bundle, emitting that when it reaches 2B.
    # Frame: [vertex, parent, child iterator, bundle edges, bundle cost, pending child]
    frames: list[list] = [[root, -1, iter(adj[root]), [], 0.0, -1]]
    ret: tuple[list[tuple[int, int, float]], float] | None = None
    while frames:
        fr = frames[-1]
        if ret is not None:
            sub_edges, sub_cost = ret
            ret = None
            c = fr[5]
            w = float(dist[fr[0], c])
            sub_edges.append((fr[0], c, w))
            sub_cost += w
            if sub_cost >= target:
                pieces.append(sub_edges)  # in [2B, 3B)
            else:
                fr[3].extend(sub_edges)
                fr[4] += sub_cost
                if fr[4] >= target:
                    pieces.append(fr[3])  # in [2B, 4B)
                    fr[3], fr[4] = [], 0.0
        descended = False
        for c in fr[2]:
            if c != fr[1]:
                fr[5] = c
                frames.append([c, fr[0], iter(adj[c]), [], 0.0, -1])
                descended = True
                break
        if not descended:
            ret = (fr[3], fr[4])
            frames.pop()

    assert ret is not None
    leftover_edges, _ = ret
    if leftover_edges:
        pieces.append(leftover_edges)  # < 2B
    return [_tree_from_edges(e) for e in pieces]


def _forest_at_budget(
    mst: tuple[np.ndarray, ...], budget: float, verts: Sequence[int],
) -> list[tuple[tuple[int, ...], list[tuple[int, int, float]], float]]:
    """Per-component (vertices, MST edges, MST cost) after dropping edges > budget.

    ``mst`` holds the MST of the ascending ``verts`` in Kruskal order; the
    forest is its prefix of edges <= budget.  Components come in order of
    their lowest vertex, their edges in Kruskal order.
    """
    us, vs, ws = mst
    cut = int(np.searchsorted(ws, budget, side="right"))
    edges = list(zip(us[:cut].tolist(), vs[:cut].tolist(), ws[:cut].tolist()))
    heads = np.searchsorted(verts, us[:cut]).tolist()
    parent = list(range(len(verts)))
    for a, b in zip(heads, np.searchsorted(verts, vs[:cut]).tolist()):
        parent[_find(parent, b)] = _find(parent, a)
    roots = [_find(parent, i) for i in range(len(verts))]
    comps: dict[int, tuple[list[int], list[tuple[int, int, float]]]] = {}
    for v, root in zip(verts, roots):
        comps.setdefault(root, ([], []))[0].append(v)
    for a, edge in zip(heads, edges):
        comps[roots[a]][1].append(edge)
    return [(tuple(cv), ce, float(sum(w for _, _, w in ce))) for cv, ce in comps.values()]


def _pieces(cost: float, budget: float) -> int:
    """How many pieces a component of MST cost ``cost`` takes at ``budget``."""
    return math.floor(cost / (2.0 * budget)) + 1


def _fits(mst: tuple[np.ndarray, ...], verts: Sequence[int], k: int,
          budget: float) -> bool:
    """Whether the forest at ``budget`` splits into at most k pieces."""
    needed = 0
    for _, _, cost in _forest_at_budget(mst, budget, verts):
        needed += _pieces(cost, budget)
        if needed > k:
            return False
    return True


def _cover_at(
    inst: Instance, mst: tuple[np.ndarray, ...], mst_cost: float,
    verts: Sequence[int], k: int, budget: float,
) -> TreeCover:
    """The pieces of every component of the forest at ``budget``."""
    trees: list[Tree] = []
    for comp_vs, edges, _ in _forest_at_budget(mst, budget, verts):
        if not edges:
            trees.append(Tree(vertices=comp_vs, edges=(), cost=0.0))
        else:
            trees.extend(decompose_tree(inst, _tree_from_edges(edges), budget))
    return TreeCover(trees=tuple(trees), budget_used=float(budget), k=k, mst_cost=mst_cost)


def try_budget(inst: Instance, subset: Sequence[int] | None, k: int, budget: float) -> TreeCover | None:
    """Tree cover of ``subset`` under a fixed budget, or None if infeasible.

    Feasibility: after dropping edges longer than ``budget``, each component's
    MST of cost c supports floor(c / (2*budget)) + 1 pieces; the budget fails
    when those counts sum past ``k``.  Feasibility is not monotone in the
    budget (see the module docstring), but every budget at or above the
    optimal min-max tree cost is feasible.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if budget <= 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    verts = _normalize_subset(inst, subset)
    if len(verts) == 1:
        return TreeCover(trees=(Tree(verts, (), 0.0),), budget_used=float(budget), k=k,
                         mst_cost=0.0)
    mst = _spanning_forest(inst.dist, verts)
    if not _fits(mst, verts, k, budget):
        return None
    return _cover_at(inst, mst, float(sum(mst[2].tolist())), verts, k, budget)


def _threshold(cost: float, m: int) -> float:
    """The smallest positive double b with ``cost / (2*b) < m``: from there on
    a component of MST cost ``cost`` takes at most m pieces.  The double
    below ``cost / (2*m)`` lies at or below the real quotient, where the
    count still exceeds m, so the search only moves up from it."""
    b = max(cost / (2.0 * m), math.ulp(0.0))
    while not cost / (2.0 * b) < m:
        b = math.nextafter(b, math.inf)
    return b


def _critical_pair(budgets: list[float], fits: Callable[[float], bool]) -> tuple[float, float]:
    """Adjacent ``budgets`` lo < hi, lo infeasible and hi feasible, by binary
    search: the ascending ``budgets`` start infeasible and end feasible."""
    lo, hi = 0, len(budgets) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(budgets[mid]):
            hi = mid
        else:
            lo = mid
    return budgets[lo], budgets[hi]


def minmax_tree_cover(inst: Instance, subset: Sequence[int] | None, k: int) -> TreeCover:
    """Cover ``subset`` with <= k trees, each costing at most 4 * budget_used.

    n <= k points are covered by their singletons at budget 0.  Otherwise the
    budget returned is feasible and ``nextafter(budget, 0)`` is not.  Every
    budget >= OPT, the optimal min-max tree cost, is feasible, so that
    neighbour lies below OPT: budget_used <= nextafter(OPT).

    The forest changes only at the distinct MST edge weights.  Below the
    smallest every point is alone, n > k pieces; if the smallest fits it is
    returned.  Else a binary search over the weights, topped by the MST cost
    (one component, one piece), finds adjacent weights lo < hi, lo
    infeasible and hi feasible.  On (lo, hi) the forest is lo's, and its
    piece count, the sum of floor(c / 2B) + 1, is non-increasing in B because
    float division is monotone; it drops only at the thresholds
    ``_threshold(c, m)``, and only m <= k - #components + 1 can matter.  A
    second binary search returns the smallest feasible threshold inside
    (lo, hi), or hi.  Probes only count pieces; the trees are built once.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    verts = _normalize_subset(inst, subset)
    mst = _spanning_forest(inst.dist, verts)
    mst_cost = float(sum(mst[2].tolist()))
    if len(verts) <= k:
        return TreeCover(trees=tuple(Tree((v,), (), 0.0) for v in verts),
                         budget_used=0.0, k=k, mst_cost=mst_cost)
    if math.isinf(mst_cost):
        raise ValueError("MST cost is not finite: the distances are too large "
                         "to sum in floating point")

    def fits(budget: float) -> bool:
        return _fits(mst, verts, k, budget)

    weights = sorted(set(mst[2].tolist()))
    if fits(weights[0]):
        return _cover_at(inst, mst, mst_cost, verts, k, weights[0])
    if mst_cost > weights[-1]:
        weights.append(mst_cost)
    lo, hi = _critical_pair(weights, fits)
    forest = _forest_at_budget(mst, lo, verts)
    spare = k - len(forest) + 1  # the most pieces any one component may take
    # _threshold(cost, m) is in (lo, hi] iff cost takes > m pieces at lo, <= m at hi
    thresholds = {_threshold(cost, m) for _, _, cost in forest
                  for m in range(_pieces(cost, hi), min(spare, _pieces(cost, lo) - 1) + 1)}
    _, budget = _critical_pair([lo, *sorted(thresholds - {hi}), hi], fits)
    return _cover_at(inst, mst, mst_cost, verts, k, budget)
