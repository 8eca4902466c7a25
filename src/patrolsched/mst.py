"""Minimum spanning trees over point subsets, and tree-to-tour shortcutting."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .instance import Instance
from .schedule import Schedule


@dataclass(frozen=True)
class Tree:
    """An unrooted tree on point indices; edges are (u, v) pairs with u < v."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cost: float


def _fold(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right from 0.0.

    ``sum()`` of floats is compensated from Python 3.12 on, so costs are
    summed here to get the same bits on every Python version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def _tree_from_edges(edges: list[tuple[int, int, float]]) -> Tree:
    """The tree of (u, v, w) edges; its cost folds the w in the order given."""
    verts = sorted({x for u, v, _ in edges for x in (u, v)})
    pairs = tuple(sorted((min(u, v), max(u, v)) for u, v, _ in edges))
    return Tree(vertices=tuple(verts), edges=pairs, cost=_fold(w for _, _, w in edges))


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a list-indexed union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _spanning_forest(dist: np.ndarray, vertices: Sequence[int],
                     us: np.ndarray | None = None, vs: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kruskal's minimum spanning forest of ``vertices``: (us, vs, ws) arrays.

    The candidate edges are ``(us[i], vs[i])`` with us < vs, by default every
    pair of the ascending ``vertices``.  They are taken in (distance, u, v)
    order, so ties are broken the same way on every run, and the accepted
    edges come back in that order.  The union-find runs over the positions
    of the points in ``vertices``.
    """
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


def _normalize_subset(inst: Instance, subset: Sequence[int] | None) -> tuple[int, ...]:
    if subset is None:
        return tuple(range(inst.n))
    out = sorted({int(x) for x in subset})
    if not out:
        raise ValueError("subset must be non-empty")
    if out[0] < 0 or out[-1] >= inst.n:
        raise ValueError(f"subset contains unknown point index (n={inst.n})")
    return tuple(out)


def minimum_spanning_tree(inst: Instance, subset: Sequence[int] | None = None) -> Tree:
    """MST of the complete distance graph induced by ``subset``.

    Edges are considered in (distance, u, v) order, so ties are broken the
    same way on every run.
    """
    verts = _normalize_subset(inst, subset)
    if len(verts) == 1:
        return Tree(vertices=verts, edges=(), cost=0.0)
    us, vs, ws = _spanning_forest(inst.dist, verts)
    return _tree_from_edges(list(zip(us.tolist(), vs.tolist(), ws.tolist())))


def _adjacency(tree: Tree) -> dict[int, list[int]]:
    """Every tree vertex's neighbours in ascending order."""
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    return adj


def euler_shortcut(tree: Tree, start: int) -> Schedule:
    """Tour visiting each tree vertex once, in DFS preorder from ``start``.

    Children are explored in ascending index order.  By the triangle
    inequality the resulting cyclic tour is no longer than twice the tree
    cost.
    """
    if start not in tree.vertices:
        raise ValueError(f"start vertex {start} is not in the tree")
    adj = _adjacency(tree)
    order: list[int] = []
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(adj[v]):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return Schedule(tuple(order))
