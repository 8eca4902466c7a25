"""Minimum spanning trees over point subsets, and tree-to-tour shortcutting."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .instance import Instance
from .schedule import Schedule


class UnionFind:
    """Disjoint sets over arbitrary hashable items (path compression + size)."""

    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass(frozen=True)
class Tree:
    """An unrooted tree on point indices; edges are (u, v) pairs with u < v."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cost: float


def _subset_edges(inst: Instance, subset: Sequence[int]) -> tuple[list[int], list[int], list[float]]:
    """All pairs within ``subset`` sorted by (distance, u, v) for determinism."""
    idx = np.asarray(subset, dtype=np.int64)
    iu, iv = np.triu_indices(len(idx), k=1)
    us, vs = idx[iu], idx[iv]
    ws = inst.dist[us, vs]
    order = np.lexsort((vs, us, ws))
    return us[order].tolist(), vs[order].tolist(), ws[order].tolist()


def _kruskal(us: list[int], vs: list[int], ws: list[float],
             vertices: Sequence[int]) -> list[tuple[int, int, float]]:
    """Minimum spanning forest of the sorted edges, in acceptance order."""
    uf = UnionFind(vertices)
    accepted: list[tuple[int, int, float]] = []
    want = len(vertices) - 1
    for u, v, w in zip(us, vs, ws):
        if uf.union(u, v):
            accepted.append((u, v, w))
            if len(accepted) == want:
                break
    return accepted


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
    us, vs, ws = _subset_edges(inst, verts)
    accepted = _kruskal(us, vs, ws, verts)
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v, _ in accepted))
    return Tree(vertices=verts, edges=edges, cost=float(sum(w for _, _, w in accepted)))


def euler_shortcut(tree: Tree, start: int) -> Schedule:
    """Tour visiting each tree vertex once, in DFS preorder from ``start``.

    Children are explored in ascending index order.  By the triangle
    inequality the resulting cyclic tour is no longer than twice the tree
    cost.
    """
    if start not in tree.vertices:
        raise ValueError(f"start vertex {start} is not in the tree")
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
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
