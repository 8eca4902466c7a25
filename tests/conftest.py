"""Shared fixtures: hand-checkable instances and random-instance helpers."""
from __future__ import annotations

import numpy as np
import pytest

from patrolsched import (Instance, RandomSpec, generate_random, make_instance,
                         minimum_spanning_tree)
from patrolsched.oracle import HELD_KARP_MAX

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


def reference_held_karp(dist: np.ndarray) -> tuple[float, list[int]]:
    """Cheapest closed tour visiting every point of ``dist`` exactly once.

    Test-only reference, independent of ``oracle._held_karp_table``: a
    bitmask DP over (visited set, last point) laid out as ``dp[mask, j]``
    with point 0 kept in every mask.  Ties in the reconstruction resolve to
    the lowest index.  Returns (cost, order) with the order starting at
    local index 0.
    """
    m = dist.shape[0]
    if m == 1:
        return 0.0, [0]
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
