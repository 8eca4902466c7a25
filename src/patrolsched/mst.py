"""Minimum spanning trees over point subsets, and tree-to-tour shortcutting."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .instance import Instance, _check_points, _point_indices
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


# Kruskal sorts its candidates in bands (_bands): the first holds about
# _BAND candidates per vertex, each later one _BAND times as many as the one
# before.  On all-pairs forests of generated equal-weight instances (n = 160
# to 2000, both geometries), points on a line and an L1 grid, factors 2 to 8
# all ran 2.4 to 10 times faster than one sort of every pair and within 2
# times of one another; on two far-apart clusters 4 was no slower than one
# sort.  4 is the smallest factor that keeps every block of up to 9 points
# (36 pairs) to a single sort.
_BAND = 4


def _bands(us: np.ndarray, vs: np.ndarray, ws: np.ndarray, size: int,
           ) -> Iterator[np.ndarray]:
    """Candidate positions in (ws, us, vs) order, one weight band at a time.

    A band takes every remaining candidate at or below its cut, the
    ``size``-th smallest remaining weight, ties at the cut included; the
    next band's ``size`` is ``_BAND`` times larger.  So every candidate of a
    later band weighs strictly more than every candidate of an earlier one,
    and the bands, each lexsorted, concatenate to the full (ws, us, vs)
    order.
    """
    rest, rw = np.arange(ws.size), ws
    while rest.size:
        if rest.size > size:
            low = rw <= np.partition(rw, size - 1)[size - 1]
            band, rest, rw = rest[low], rest[~low], rw[~low]
        else:
            band, rest = rest, rest[:0]
        yield band[np.lexsort((vs[band], us[band], ws[band]))]
        size *= _BAND


def _spanning_forest(dist: np.ndarray, vertices: Sequence[int],
                     us: np.ndarray | None = None, vs: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kruskal's minimum spanning forest of ``vertices``: (us, vs, ws) arrays.

    The candidate edges are ``(us[i], vs[i])`` with us < vs, by default every
    pair of the ascending ``vertices``.  They are taken in (distance, u, v)
    order, so ties are broken the same way on every run, and the accepted
    edges come back in that order.  The union-find runs over the positions
    of the points in ``vertices``.

    Only the candidates Kruskal reaches are sorted: :func:`_bands` cuts them
    in bands of rising weight, the first of ``_BAND`` times as many
    candidates as vertices, and the next band is cut only while the forest
    does not span.  The bands in sequence are exactly the full (distance,
    u, v) order, so Kruskal accepts the same edges in the same order and
    stops at the same edge as one sort of every candidate would.
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
    parent = list(range(verts.size))
    keep: list[int] = []
    size = _BAND * verts.size
    # up to ``size`` candidates are one sort, with no partition
    bands = (np.lexsort((vs, us, ws)),) if ws.size <= size else _bands(us, vs, ws, size)
    for order in bands:
        for i, a, b in zip(order.tolist(), pu[order].tolist(), pv[order].tolist()):
            a, b = _find(parent, a), _find(parent, b)
            if a != b:
                parent[b] = a
                keep.append(i)
                if len(keep) == verts.size - 1:
                    break
        if len(keep) == verts.size - 1:
            break
    kept = np.array(keep, dtype=np.intp)
    return us[kept], vs[kept], ws[kept]


def _normalize_subset(inst: Instance, subset: Sequence[int] | None) -> tuple[int, ...]:
    """``subset`` as ascending distinct point indices, every point for None;
    an entry that is not a point index of ``inst`` raises ValueError naming it."""
    if subset is None:
        return tuple(range(inst.n))
    out = sorted(set(_point_indices(subset, "subset entry")))
    if not out:
        raise ValueError("subset must be non-empty")
    return tuple(_check_points(inst, out).tolist())


def _subset_mst(inst: Instance, verts: Sequence[int],
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """MST of the ascending point indices ``verts``: ``(us, vs, ws, cost)``.

    The edges are Kruskal's forest of ``verts``, in (distance, u, v) order,
    and ``cost`` folds their weights left to right in that order.  The
    order is strict, so the tree is unique.  Each set's tree is built once
    per instance and kept on it; the arrays are read-only.
    """
    key = tuple(verts)
    mst = inst._msts.get(key)
    if mst is None:
        us, vs, ws = _spanning_forest(inst.dist, key)
        for array in (us, vs, ws):
            array.setflags(False)  # write=False; the keyword costs 3 times as much
        mst = inst._msts[key] = (us, vs, ws, _fold(ws.tolist()))
    return mst


def minimum_spanning_tree(inst: Instance, subset: Sequence[int] | None = None) -> Tree:
    """MST of the complete distance graph induced by ``subset``.

    Edges are considered in (distance, u, v) order, so ties are broken the
    same way on every run.
    """
    verts = _normalize_subset(inst, subset)
    us, vs, _, cost = _subset_mst(inst, verts)
    return Tree(vertices=verts, edges=tuple(sorted(zip(us.tolist(), vs.tolist()))), cost=cost)


def _adjacency(tree: Tree) -> dict[int, list[int]]:
    """Every tree vertex's neighbours in ascending order; an edge end that
    is not a vertex raises ValueError."""
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    try:
        for u, v in tree.edges:
            adj[u].append(v)
            adj[v].append(u)
    except KeyError as err:
        raise ValueError(f"tree edge end {err.args[0]!r} is not a tree vertex") from None
    return {v: sorted(near) for v, near in adj.items()}


def _preorder(tree: Tree, root: int, descending: bool = False,
              ) -> tuple[list[int], dict[int, int]]:
    """The DFS preorder of ``tree`` from ``root``, children in ascending
    index order (descending if asked), and every vertex's parent (-1 for
    the root).

    This is the one walk of a ``Tree``, and it checks that ``tree`` is one:
    a ``root`` or edge end that is not a vertex, an edge count other than
    one less than the vertex count (so no vertex at all), or a vertex the
    edges do not reach raises ValueError.  With that count, reaching every
    vertex rules out a cycle, a repeated edge and a repeated vertex.
    """
    adj, n = _adjacency(tree), len(tree.vertices)
    if len(tree.edges) != n - 1:
        raise ValueError(f"tree edge count {len(tree.edges)} is not its vertex count {n} minus 1")
    if root not in adj:
        raise ValueError(f"start vertex {root} is not in the tree")
    parent, order, stack = {root: -1}, [], [root]
    while stack:
        order.append(v := stack.pop())
        for c in adj[v] if descending else reversed(adj[v]):
            if c not in parent:
                parent[c] = v
                stack.append(c)
    if len(order) != n:
        raise ValueError(f"tree edges reach {len(order)} of its {n} vertices from {root}")
    return order, parent


def euler_shortcut(tree: Tree, start: int) -> Schedule:
    """Tour visiting each tree vertex once, in DFS preorder from ``start``.

    Children are explored in ascending index order.  By the triangle
    inequality the resulting cyclic tour is no longer than twice the tree
    cost.  A ``start`` that is not a vertex of the tree, or a ``tree`` that
    is not a tree (see :func:`_preorder`), raises ValueError.
    """
    (start,) = _point_indices((start,), "start vertex")
    return Schedule(tuple(_preorder(tree, start)[0]))
