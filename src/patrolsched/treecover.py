"""Min-max tree covers: split a point set into <= k cheap connected trees.

The goal is k subtrees that together touch every point of a subset while the
most expensive subtree is as cheap as possible.  ``try_budget`` tests one
candidate budget B: it drops every edge longer than B, takes the minimum
spanning forest of what remains, and chops each component MST into edge-
disjoint pieces — at most one piece lighter than 2B per component, all other
pieces weighing in [2B, 4B).  If the pieces fit into k trees the budget is
feasible.  In Kruskal order the minimum spanning forest of the edges <= B
is the subset MST's prefix of edges <= B, so every budget probe labels the
components of that prefix with a union-find.  The subset MST comes from
``mst._subset_mst``: one Kruskal per vertex set and instance, shared by
every cover of that set and by ``lower_bound``.  A probe counts pieces from
the components' costs alone; only the cover finally returned groups the
components' vertices and edges.

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

from .instance import Instance, _check_points, _count, _point_indices
from .mst import Tree, _find, _normalize_subset, _preorder, _subset_mst, _tree_from_edges


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
    emitted on its own when it reaches 2B.  A non-positive budget, an
    edge end that is not a point index of ``inst``, or a ``tree`` that is
    not a tree (see :func:`mst._preorder`) raises ValueError, whatever its
    stated cost.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    _check_points(inst, _point_indices((x for edge in tree.edges for x in edge), "tree edge end"))
    # Preorder taking children in descending order; reversed, it is the
    # postorder taking them in ascending order, every child before its parent.
    root = min(tree.vertices, default=None)  # None: no vertex, which _preorder refuses
    order, parent = _preorder(tree, root, descending=True)
    dist = inst.dist
    for u, v in tree.edges:
        if dist[u, v] > budget:
            raise ValueError(
                f"tree edge ({u}, {v}) has length {dist[u, v]!r} > budget {budget!r}")
    target = 2.0 * budget
    if tree.cost < target:
        return [tree]

    # Each vertex's bundle holds the leftover edges (cost < 2B) of its
    # finished children.  A vertex adds its parent edge to its bundle, then
    # emits it alone if it already weighs >= 2B, else folds it into the
    # parent's bundle, emitting that when it reaches 2B.
    bundle: dict[int, list[tuple[int, int, float]]] = {v: [] for v in order}
    cost = dict.fromkeys(order, 0.0)
    pieces: list[list[tuple[int, int, float]]] = []
    for c in reversed(order[1:]):
        v = parent[c]
        w = float(dist[v, c])
        bundle[c].append((v, c, w))
        cost[c] += w
        if cost[c] >= target:
            pieces.append(bundle[c])  # in [2B, 3B)
        else:
            bundle[v].extend(bundle[c])
            cost[v] += cost[c]
            if cost[v] >= target:
                pieces.append(bundle[v])  # in [2B, 4B)
                bundle[v], cost[v] = [], 0.0
    if bundle[root]:
        pieces.append(bundle[root])  # < 2B
    return [_tree_from_edges(e) for e in pieces]


def _roots(mst: tuple, verts: Sequence[int], budget: float) -> tuple[list[int], list[int]]:
    """The forest at ``budget``: the component root of every position in
    ``verts``, and the position of the first end of each of its edges.

    ``mst`` is ``_subset_mst`` of the ascending ``verts``, its edges in
    Kruskal order; the forest is its prefix of edges <= budget, labelled
    with a union-find.
    """
    us, vs, ws, _ = mst
    cut = int(np.searchsorted(ws, budget, side="right"))
    heads = np.searchsorted(verts, us[:cut]).tolist()
    parent = list(range(len(verts)))
    for a, b in zip(heads, np.searchsorted(verts, vs[:cut]).tolist()):
        parent[_find(parent, b)] = _find(parent, a)
    return [_find(parent, i) for i in range(len(verts))], heads


def _costs(mst: tuple, verts: Sequence[int], budget: float) -> list[float]:
    """The MST cost of every component of the forest at ``budget``, its
    edges added left to right in Kruskal order."""
    roots, heads = _roots(mst, verts, budget)
    costs = dict.fromkeys(roots, 0.0)
    for a, w in zip(heads, mst[2][:len(heads)].tolist()):
        costs[roots[a]] += w
    return list(costs.values())


def _pieces(cost: float, budget: float) -> int:
    """How many pieces a component of MST cost ``cost`` takes at ``budget``."""
    return math.floor(cost / (2.0 * budget)) + 1


def _fits(mst: tuple, verts: Sequence[int], k: int, budget: float) -> bool:
    """Whether the forest at ``budget`` splits into at most k pieces."""
    return sum(_pieces(cost, budget) for cost in _costs(mst, verts, budget)) <= k


def _cover_at(inst: Instance, mst: tuple, verts: Sequence[int], k: int,
              budget: float) -> TreeCover:
    """The pieces of every component of the forest at ``budget``.

    Components come in order of their lowest vertex, each one's edges in
    Kruskal order; a component without edges is a single point.
    """
    roots, heads = _roots(mst, verts, budget)
    us, vs, ws = (x[:len(heads)].tolist() for x in mst[:3])
    # roots runs over ascending positions: keys come in order of lowest vertex
    edges: dict[int, list[tuple[int, int, float]]] = {root: [] for root in roots}
    for a, edge in zip(heads, zip(us, vs, ws)):
        edges[roots[a]].append(edge)
    trees: list[Tree] = []
    for root, comp in edges.items():
        if comp:
            trees.extend(decompose_tree(inst, _tree_from_edges(comp), budget))
        else:
            trees.append(Tree(vertices=(verts[root],), edges=(), cost=0.0))
    return TreeCover(trees=tuple(trees), budget_used=float(budget), k=k, mst_cost=mst[3])


def try_budget(inst: Instance, subset: Sequence[int] | None, k: int, budget: float) -> TreeCover | None:
    """Tree cover of ``subset`` under a fixed budget, or None if infeasible.

    Feasibility: after dropping edges longer than ``budget``, each component's
    MST of cost c supports floor(c / (2*budget)) + 1 pieces; the budget fails
    when those counts sum past ``k``.  Feasibility is not monotone in the
    budget (see the module docstring), but every budget at or above the
    optimal min-max tree cost is feasible.  A ``k`` that is not an integer
    of at least 1, or a non-positive budget, raises ValueError.
    """
    k = _count(k, "k", 1)
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    verts = _normalize_subset(inst, subset)
    mst = _subset_mst(inst, verts)
    if not _fits(mst, verts, k, budget):
        return None
    return _cover_at(inst, mst, verts, k, budget)


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
    A ``k`` that is not an integer of at least 1 raises ValueError.
    """
    k = _count(k, "k", 1)
    verts = _normalize_subset(inst, subset)
    mst = _subset_mst(inst, verts)
    mst_cost = mst[3]
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
        return _cover_at(inst, mst, verts, k, weights[0])
    if mst_cost > weights[-1]:
        weights.append(mst_cost)
    lo, hi = _critical_pair(weights, fits)
    costs = _costs(mst, verts, lo)
    spare = k - len(costs) + 1  # the most pieces any one component may take
    # _threshold(cost, m) is in (lo, hi] iff cost takes > m pieces at lo, <= m at hi
    thresholds = {_threshold(cost, m) for cost in costs
                  for m in range(_pieces(cost, hi), min(spare, _pieces(cost, lo) - 1) + 1)}
    _, budget = _critical_pair([lo, *sorted(thresholds - {hi}), hi], fits)
    return _cover_at(inst, mst, verts, k, budget)
