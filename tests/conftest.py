"""Shared fixtures: hand-checkable instances and random-instance helpers."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from patrolsched import (Instance, RandomSpec, Schedule, Tree, TreeCover,
                         generate_random, make_instance, minimum_spanning_tree)
from patrolsched.instance import (_WITNESS_CAP, TRIANGLE_TOL, InstanceFormatError,
                                  MetricReport, Violation)
from patrolsched.mst import (_adjacency, _find, _normalize_subset, _spanning_forest,
                             _tree_from_edges)
from patrolsched.oracle import (BRUTE_FORCE_MAX_PERIOD, BRUTE_FORCE_MAX_POINTS,
                                HELD_KARP_MAX, OracleResult, _closing,
                                _grow_spanning_tree, _held_karp_layers)
from patrolsched.schedule import _cost_of_gaps, _profiles, _validate_p, worst_weighted
from patrolsched.security import _best_attacks
from patrolsched.treecover import _critical_pair, _pieces, _threshold

# Per-criterion verdict lines recorded by the acceptance suite; echoed in the
# terminal summary so they survive output capture in plain ``pytest`` runs.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def unit_triangle() -> Instance:
    """Three points, all pairwise distances 1; weights 1, 1/2, 1/2.

    Small enough to trace every algorithm by hand: the best period-4 patrol
    is a-b-a-c with max absence 2 at every point.
    """
    return make_instance(["a", "b", "c"], [1.0, 0.5, 0.5],
                         [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


@pytest.fixture
def line_four() -> Instance:
    """Four points on a line at 0, 1, 2, 3 with unit weights."""
    d = [[abs(i - j) for j in range(4)] for i in range(4)]
    return make_instance(["p0", "p1", "p2", "p3"], [1.0] * 4, d)


def random_instance(seed: int, n: int, weight_law: str = "uniform",
                    geometry: str = "euclidean-plane") -> Instance:
    return generate_random(RandomSpec(n=n, weight_law=weight_law,
                                      geometry=geometry), seed)


def random_metric_instance(rng: np.random.Generator, n: int) -> Instance:
    """A small instance with a shortest-path-closure metric and random weights."""
    raw = rng.uniform(0.1, 2.0, size=(n, n))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    # all-pairs shortest paths turn any positive symmetric cost into a metric
    d = sym.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    weights = rng.uniform(0.05, 1.0, size=n)
    return make_instance([f"p{i}" for i in range(n)], weights, d)


@st.composite
def schedules_on_metrics(draw, max_n: int = 6, max_len: int = 14):
    """(instance, schedule) pairs on 1 to ``max_n`` points.

    The metric is random, all-ones, or integer positions on a line; the last
    two give many tied and repeated gaps.  Short visit lists leave points
    unvisited and include single-visit and two-point schedules.
    """
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 9999)))
    kind = draw(st.sampled_from(["random", "unit", "line"]))
    if kind == "random":
        inst = random_metric_instance(rng, n)
    else:
        if kind == "unit":
            d = 1.0 - np.eye(n)
        else:
            pos = rng.permutation(n)
            d = np.abs(pos[:, None] - pos[None, :]).astype(float)
        inst = make_instance([f"p{i}" for i in range(n)],
                             rng.uniform(0.05, 1.0, size=n), d)
    visits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_len))
    return inst, Schedule(tuple(visits))


def reference_held_karp_dp(dist: np.ndarray) -> np.ndarray:
    """Test-only reference, independent of the package's one table form,
    the layer list of ``oracle._held_karp_layers``: a bitmask DP over
    (visited set, last point) laid out as ``dp[mask, j]`` with point 0 kept
    in every mask; inf where j is not in the mask."""
    m = dist.shape[0]
    full = (1 << m) - 1
    dp = np.full((full + 1, m), np.inf)
    dp[1, 0] = 0.0

    masks = np.arange(full + 1, dtype=np.int64)
    popcnt = np.zeros(full + 1, dtype=np.int8)
    for b in range(m):
        popcnt += ((masks >> b) & 1).astype(np.int8)

    for c in range(2, m + 1):
        layer = masks[(popcnt == c) & ((masks & 1) == 1)]
        for j in range(1, m):
            bit = 1 << j
            sel = layer[(layer & bit) != 0]
            if sel.size == 0:
                continue
            dp[sel, j] = np.min(dp[sel ^ bit] + dist[:, j], axis=1)
    return dp


def reference_held_karp(dist: np.ndarray) -> tuple[float, list[int]]:
    """Cheapest closed tour visiting every point of ``dist`` exactly once.

    Test-only reference, read from ``reference_held_karp_dp``.  Ties in the
    reconstruction resolve to the lowest index.  Returns (cost, order) with
    the order starting at local index 0.
    """
    m = dist.shape[0]
    if m == 1:
        return 0.0, [0]
    full = (1 << m) - 1
    dp = reference_held_karp_dp(dist)
    closing = dp[full] + dist[:, 0]
    closing[0] = np.inf
    j = int(np.argmin(closing))
    value = float(closing[j])

    order = [j]
    mask = full
    while mask != (1 | (1 << j)) and j != 0:
        prev = mask ^ (1 << j)
        j = int(np.argmin(dp[prev] + dist[:, j]))
        mask = prev
        order.append(j)
    if order[-1] != 0:
        order.append(0)
    order.reverse()
    return value, order


def reference_lower_bound(inst: Instance) -> float:
    """The lower bound recomputed from scratch at every weight level.

    Test-only reference for the incremental ``lower_bound``: a fresh exact
    TSP (``reference_held_karp``, started at the lowest index) for levels of
    at most 16 points and a fresh MST above, per distinct weight, plus the
    largest distance.
    """
    best = float(np.max(inst.dist)) if inst.n > 1 else 0.0
    for w in sorted(set(inst.weights.tolist()), reverse=True):
        verts = np.flatnonzero(inst.weights >= w)
        if len(verts) <= HELD_KARP_MAX:
            cost, _ = reference_held_karp(inst.dist[np.ix_(verts, verts)])
        else:
            cost = minimum_spanning_tree(inst, verts.tolist()).cost
        best = max(best, w * cost)
    return best


@np.errstate(over="ignore")  # a tour too long for a double costs inf
def reference_incremental_lower_bound(inst: Instance) -> float:
    """The incremental lower bound evaluated at every weight level, unpruned.

    Test-only reference for the pruned ``lower_bound``: the same ranking,
    one Held-Karp table over the largest prefix of at most 16 points, and
    one MST grown through every larger level, so the two must agree bit
    for bit.
    """
    n = inst.n
    best = float(np.max(inst.dist)) if n > 1 else 0.0
    order = np.argsort(-inst.weights, kind="stable")
    ranked = inst.weights[order]
    ends = [*(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), n]
    tsp_size = max((e for e in ends if e <= HELD_KARP_MAX), default=1)
    tsp = {1: 0.0}
    if tsp_size >= 2:
        sub = inst.dist[np.ix_(order[:tsp_size], order[:tsp_size])]
        layers = list(_held_karp_layers(sub))
        tsp.update((e, float(np.min(_closing(layers[e - 1], sub, e))))
                   for e in ends if 2 <= e <= tsp_size)
    empty = np.zeros(0, dtype=np.int64)
    tree, covered = (empty, empty), 0
    for end in ends:
        if end <= HELD_KARP_MAX:
            cost = tsp[end]
        else:
            tree, cost = _grow_spanning_tree(inst.dist, tree, order[:covered],
                                             order[covered:end])
            covered = end
        best = max(best, float(ranked[end - 1]) * cost)
    return float(best)


def reference_brute_force(inst: Instance, p: float, max_period: int) -> OracleResult:
    """``brute_force_weighted_opt`` as it was before its bound: every candidate
    scored, kept verbatim as the reference the bounded search must reproduce."""
    p = _validate_p(p)
    n = inst.n
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_POINTS} points, got {n}")
    if max_period > BRUTE_FORCE_MAX_PERIOD:
        raise ValueError(
            f"brute force is limited to period {BRUTE_FORCE_MAX_PERIOD}, got {max_period}")
    if max_period < n:
        raise ValueError(f"max_period {max_period} cannot cover all {n} points")
    bound = {"method": "exhaustive", "max_period": max_period,
             "upper_bound_only": True}
    if n == 1:
        return OracleResult(0.0, Schedule((0,)), bound)

    dist = inst.dist.tolist()

    def score(seq: tuple[int, ...]) -> float:
        try:
            profiles, _ = _profiles(seq, [dist[a][b] for a, b in zip(seq, seq[1:] + (0,))], n)
        except ValueError:  # the period overflows, so some absence is inf
            return math.inf
        return worst_weighted([_cost_of_gaps(gaps, p) for gaps in profiles], inst)

    def candidates(seq: tuple[int, ...], left: int):
        """(objective, length, sequence) of ``seq`` and of every extension of
        it; ``left`` is the number of points it misses."""
        if left > max_period - len(seq):
            return  # not enough slots left to visit every point
        last = seq[-1]
        if not left and last != 0:
            yield score(seq), len(seq), seq
        if len(seq) < max_period:
            for v in range(n):
                if v != last:
                    yield from candidates(seq + (v,), left - (v not in seq))

    value, _, seq = min(candidates((0,), n - 1))
    if math.isinf(value):  # every candidate scored inf
        raise ValueError("every patrol's weighted objective overflows to inf: the "
                         "distances are too large to sum in floating point")
    return OracleResult(value, Schedule(seq), bound)


def reference_validate_metric(dist: np.ndarray) -> MetricReport:
    """Check symmetry, zero diagonal, positive off-diagonal, and triangles.

    Test-only reference for ``instance.validate_metric``: the per-violation
    loops it replaced, one ``add`` call per violation found.

    The triangle inequality is checked for every ordered triple with the
    relative tolerance ``TRIANGLE_TOL``: ``d[i,k] > (d[i,j] + d[j,k]) *
    (1 + TRIANGLE_TOL)`` counts as a violation.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InstanceFormatError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def add(kind: str, where: tuple[int, ...], message: str) -> None:
        counts[kind] = counts.get(kind, 0) + 1
        if counts[kind] <= _WITNESS_CAP:
            violations.append(Violation(kind, where, message))

    bad = ~np.isfinite(d)
    for i, j in np.argwhere(bad):
        add("nonfinite", (int(i), int(j)), f"dist[{i}][{j}] is not finite")

    if not bad.any():
        asym = np.argwhere(d != d.T)
        for i, j in asym:
            if i < j:
                add("asymmetry", (int(i), int(j)),
                    f"dist[{i}][{j}]={float(d[i, j])!r} != dist[{j}][{i}]={float(d[j, i])!r}")

        for i in np.flatnonzero(np.diagonal(d) != 0.0):
            add("diagonal", (int(i),), f"dist[{i}][{i}]={float(d[i, i])!r} must be 0")

        off = d <= 0.0
        np.fill_diagonal(off, False)
        for i, j in np.argwhere(off):
            if i < j:
                add("offdiagonal", (int(i), int(j)),
                    f"zero or negative distance {float(d[i, j])!r} between distinct points {i} and {j}")

        # d[i,k] <= (d[i,j] + d[j,k]) * (1 + TRIANGLE_TOL) must hold for every j.
        # A sum past the largest double is inf, which no distance exceeds.
        limit = 1.0 + TRIANGLE_TOL
        with np.errstate(over="ignore"):
            for j in range(n):
                lhs = d
                rhs = (d[:, j][:, None] + d[j, :][None, :]) * limit
                viol = lhs > rhs
                if viol.any():
                    for i, k in np.argwhere(viol):
                        add("triangle", (int(i), int(j), int(k)),
                            f"dist[{i}][{k}]={float(d[i, k])!r} exceeds "
                            f"dist[{i}][{j}]+dist[{j}][{k}]={float(d[i, j] + d[j, k])!r}")

    return MetricReport(n=n, violations=tuple(violations), counts=counts)


def reference_profiles(visits, dist: np.ndarray, n: int) -> tuple[list[list[float] | None], float]:
    """Absence profile of every point and the period, in pure Python.

    Test-only reference for ``schedule._profiles``: visit times are a running
    sum of the hops from ``visits[0]``, the period adds the wrap-around hop
    last, and ``profiles[x]`` lists x's gaps in order of occurrence from its
    first visit, the wrap-around gap ``(period - last) + first`` last (None
    if ``x`` never appears).
    """
    d = dist.tolist()
    m = len(visits)
    if m == 1:
        profiles: list[list[float] | None] = [None] * n
        profiles[visits[0]] = [0.0]
        return profiles, 0.0
    cum = [0.0] * m
    acc = 0.0
    for i in range(1, m):
        acc += d[visits[i - 1]][visits[i]]
        cum[i] = acc
    period = acc + d[visits[-1]][visits[0]]

    first: dict[int, float] = {}
    last: dict[int, float] = {}
    gaps: dict[int, list[float]] = {}
    for i, x in enumerate(visits):
        t = cum[i]
        if x in last:
            gaps[x].append(t - last[x])
        else:
            first[x] = t
            gaps[x] = []
        last[x] = t
    out: list[list[float] | None] = [None] * n
    for x, g in gaps.items():
        g.append(period - last[x] + first[x])
        out[x] = g
    return out, period


def reference_best_attack(gaps: list[float], period: float, weight: float) -> tuple[float, float]:
    """(duration, utility) maximizing w * t * sum(max(l - t, 0)) / period.

    Test-only reference for ``security._best_attacks``, one row at a time
    (``best_attack_one_row``): the candidate durations are the ends of the
    intervals between sorted absence lengths and each interval's parabola
    vertex; every candidate is scored in ascending order with an explicit
    left-to-right sum (``sum()`` of floats is compensated from Python 3.12
    on), and the first strict maximum wins.
    The range rule is the kernel's: when the best w * t * excess, or its
    quotient by the period, is not a finite normal float, the gaps are
    scored divided by the period and the answer multiplied back, and a
    subnormal weight keeps the direct answer unless the rescaled one is
    normal.
    """
    if period == 0.0:
        return 0.0, 0.0
    ls = sorted(gaps)
    m = len(ls)
    suffix = [0.0] * (m + 1)  # suffix[r] = sum of ls[r:]
    for r in range(m - 1, -1, -1):
        suffix[r] = suffix[r + 1] + ls[r]

    candidates: list[float] = []
    lo = 0.0
    for r in range(m):
        hi = ls[r]
        if hi > lo:
            vertex = suffix[r] / (2.0 * (m - r))
            candidates.append(lo)
            candidates.append(hi)
            if lo < vertex < hi:
                candidates.append(vertex)
        lo = hi

    best_t = best_wte = best_u = 0.0
    for t in sorted(candidates):
        excess = 0.0
        for g in ls:
            excess += max(g - t, 0.0)
        wte = weight * t * excess
        u = wte / period
        if u > best_u:
            best_t, best_wte, best_u = t, wte, u
    normal = sys.float_info.min
    if period != 1.0 and not (normal <= best_wte < math.inf and normal <= best_u < math.inf):
        t_unit, u_unit = reference_best_attack([g / period for g in ls], 1.0, weight)
        if weight >= normal or u_unit * period >= normal:
            return t_unit * period, u_unit * period
    return best_t, best_u


def best_attack_one_row(gaps, period: float, weight: float) -> tuple[float, float]:
    """``security._best_attacks`` on the single row ``gaps`` at ``weight``,
    as a (duration, utility) pair of floats.

    Test-only wrapper; it replaces the package's one-row
    ``security._best_attack_on_gaps``, which nothing in the package called.
    """
    t, u = _best_attacks(np.asarray(gaps, dtype=float)[None, :], period, np.array([weight]))
    return float(t[0]), float(u[0])


def left_fold(values) -> float:
    """``values`` added left to right from 0.0 (``sum()`` of floats is
    compensated from Python 3.12 on)."""
    total = 0.0
    for x in values:
        total += x
    return total


def reference_decompose_tree(inst: Instance, tree: Tree, budget: float) -> list[Tree]:
    """Test-only reference for ``decompose_tree``: the recursive bottom-up
    decomposition as an explicit stack of frames, one per vertex on the path
    from the lowest-index root, children taken in ascending order."""
    dist = inst.dist
    target = 2.0 * budget
    if tree.cost < target:
        return [tree]
    adj = _adjacency(tree)
    root = min(tree.vertices)
    pieces: list[list[tuple[int, int, float]]] = []
    # Frame: [vertex, parent, child iterator, bundle edges, bundle cost, pending child]
    frames: list[list] = [[root, -1, iter(adj[root]), [], 0.0, -1]]
    ret = None
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
                pieces.append(sub_edges)
            else:
                fr[3].extend(sub_edges)
                fr[4] += sub_cost
                if fr[4] >= target:
                    pieces.append(fr[3])
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
    leftover_edges, _ = ret
    if leftover_edges:
        pieces.append(leftover_edges)
    return [_tree_from_edges(e) for e in pieces]


def reference_forest_at_budget(mst, budget: float, verts):
    """Per-component (vertices, MST edges, MST cost) of the MST prefix of
    edges <= budget, in order of the lowest vertex, edges in Kruskal order."""
    us, vs, ws = mst
    cut = int(np.searchsorted(ws, budget, side="right"))
    edges = list(zip(us[:cut].tolist(), vs[:cut].tolist(), ws[:cut].tolist()))
    heads = np.searchsorted(verts, us[:cut]).tolist()
    parent = list(range(len(verts)))
    for a, b in zip(heads, np.searchsorted(verts, vs[:cut]).tolist()):
        parent[_find(parent, b)] = _find(parent, a)
    roots = [_find(parent, i) for i in range(len(verts))]
    comps: dict[int, tuple[list[int], list]] = {}
    for v, root in zip(verts, roots):
        comps.setdefault(root, ([], []))[0].append(v)
    for a, edge in zip(heads, edges):
        comps[roots[a]][1].append(edge)
    return [(tuple(cv), ce, left_fold(w for _, _, w in ce)) for cv, ce in comps.values()]


def _reference_probe(inst: Instance, mst, verts, k: int, budget: float) -> TreeCover | None:
    """The cover at ``budget`` built from every component's vertices, edges
    and cost, or None when its pieces number more than k."""
    forest = reference_forest_at_budget(mst, budget, verts)
    if sum(_pieces(cost, budget) for _, _, cost in forest) > k:
        return None
    trees: list[Tree] = []
    for comp_vs, edges, _ in forest:
        if edges:
            trees.extend(reference_decompose_tree(inst, _tree_from_edges(edges), budget))
        else:
            trees.append(Tree(vertices=comp_vs, edges=(), cost=0.0))
    return TreeCover(trees=tuple(trees), budget_used=float(budget), k=k,
                     mst_cost=left_fold(mst[2].tolist()))


def reference_try_budget(inst: Instance, subset, k: int, budget: float) -> TreeCover | None:
    """Test-only reference for ``try_budget``: the per-component probe, with
    a single point covered by its own branch."""
    verts = _normalize_subset(inst, subset)
    if len(verts) == 1:
        return TreeCover(trees=(Tree(verts, (), 0.0),), budget_used=float(budget), k=k,
                         mst_cost=0.0)
    return _reference_probe(inst, _spanning_forest(inst.dist, verts), verts, k, budget)


def reference_minmax_tree_cover(inst: Instance, subset, k: int) -> TreeCover:
    """Test-only reference for ``minmax_tree_cover``: the same critical-budget
    search, every probe built on ``reference_forest_at_budget``."""
    verts = _normalize_subset(inst, subset)
    mst = _spanning_forest(inst.dist, verts)
    mst_cost = left_fold(mst[2].tolist())
    if len(verts) <= k:
        return TreeCover(trees=tuple(Tree((v,), (), 0.0) for v in verts),
                         budget_used=0.0, k=k, mst_cost=mst_cost)

    def fits(budget: float) -> bool:
        return _reference_probe(inst, mst, verts, k, budget) is not None

    weights = sorted(set(mst[2].tolist()))
    if fits(weights[0]):
        return _reference_probe(inst, mst, verts, k, weights[0])
    if mst_cost > weights[-1]:
        weights.append(mst_cost)
    lo, hi = _critical_pair(weights, fits)
    forest = reference_forest_at_budget(mst, lo, verts)
    spare = k - len(forest) + 1
    thresholds = {_threshold(cost, m) for _, _, cost in forest
                  for m in range(_pieces(cost, hi), min(spare, _pieces(cost, lo) - 1) + 1)}
    _, budget = _critical_pair([lo, *sorted(thresholds - {hi}), hi], fits)
    return _reference_probe(inst, mst, verts, k, budget)
