"""Exact desk-scale references, and the lower bound that certifies a plan.

The oracles, ``held_karp_tsp``, ``brute_force_weighted_opt`` and
``partition_tree_cover_oracle``, are deliberately small-bounded brute force /
dynamic programs.  They exist to certify the fast algorithms: every value
they return is exact for the search space stated in its ``search_bound``,
and the planner and tree cover are tested against them.

``lower_bound`` runs at every size: it is the certificate ``plan`` reports,
the largest ``w * TSP`` over the heaviest-first weight levels (Held-Karp up
to 16 points, an MST above) and the largest distance.  Its MSTs and the
oracle's block MSTs come from ``mst._subset_mst``, like the tree covers'.

Every Held-Karp table is the list of popcount layers that
``_held_karp_layers`` yields; ``_shortest_tour`` turns one into its
cheapest tour for both ``held_karp_tsp`` and ``lower_bound``.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .instance import Instance, _count
from .mst import _fold, _normalize_subset, _spanning_forest, _subset_mst
from .schedule import Schedule, _cost_of_gaps, _profiles, _validate_p, worst_weighted

HELD_KARP_MAX = 16
BRUTE_FORCE_MAX_POINTS = 6
BRUTE_FORCE_MAX_PERIOD = 10
PARTITION_MAX_POINTS = 10
PARTITION_MAX_PARTS = 4


@dataclass(frozen=True)
class OracleResult:
    """Exact value, a witness achieving it, and the search space searched."""

    value: float
    witness: Any
    search_bound: dict[str, Any]


@lru_cache(maxsize=None)
def _held_karp_steps(k: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Index plan of a Held-Karp table over k free points; it depends on k only.

    Masks are grouped by popcount c and numbered within their group by
    ``rank``, which only the walk-back of :func:`_shortest_tour` reads.
    Masks below 2^k' come first in their group, so a smaller k's ``rank``
    is a prefix of this one.  For every c >= 2 the plan holds a (k x size
    of group c) array of flat indices into the step minima, a (k x size of
    group c - 1) array: entry (j, rank S) names minimum (j, rank(S - {j}))
    when j is in S, and the slot just past the minima, which holds inf,
    when it is not.
    Only k <= 15 occurs; its plan holds k * 2^k intp entries, about 4 MB.
    """
    masks = np.arange(1 << k, dtype=np.intp)
    popcnt = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        popcnt += ((masks >> b) & 1).astype(np.int8)
    by_count = [masks[popcnt == c] for c in range(k + 1)]
    rank = np.empty(1 << k, dtype=np.intp)
    for members in by_count:
        rank[members] = np.arange(members.size)
    layers = []
    for below, members in zip(by_count[1:], by_count[2:]):
        plan = np.full((k, members.size), k * below.size, dtype=np.intp)
        for j in range(k):
            pos = np.flatnonzero(members & (1 << j))
            plan[j, pos] = j * below.size + rank[members[pos] ^ (1 << j)]
        plan.flags.writeable = False  # shared by every table of this size
        layers.append(plan)
    rank.flags.writeable = False
    return rank, tuple(layers)


def _held_karp_layers(dist: np.ndarray) -> Iterator[np.ndarray]:
    """The popcount layers of the Held-Karp table of ``dist``, one at a time.

    Point 0 is the fixed start, so bit i of a mask stands for point i + 1.
    Layer c is a (k x C(k, c)) array, k = m - 1: the cheapest path that
    starts at point 0, visits exactly the points of a mask S of popcount c
    and ends at point j + 1 costs ``layer[j, rank[S]]``, and inf when bit j
    is not in S.  Every table is built here.  Every entry depends only on
    its sub-masks, so the first rows and columns of each layer are the
    table of any prefix of the points, bit for bit.

    Layer c comes from layer c - 1 (``prev``, width L) in one min-plus step
    over its rows: ``best[j, S'] = min_i prev[i, S'] + d[i, j]``, one
    ``np.add`` and one ``np.minimum`` per row i into two reused (k x L)
    buffers.  One gather through the plan then moves each entry with j not
    in S' to ``(j, rank(S' | 1 << j))`` and fills the rest of the layer with
    inf.  The entries keep the bits of the dynamic program that gathers,
    per j, the previous layer's columns without bit j: each entry's
    candidates are the same sums ``prev[i, S'] + d[i, j]`` over every i,
    inf rows included, and a minimum is exact in any order.  No NaN can
    arise, since distances are finite and positive off the diagonal, and
    the diagonal's sums reach only the (j in S') entries the gather leaves
    out.
    """
    k = dist.shape[0] - 1
    _, plans = _held_karp_steps(k)
    first = np.full((k, k), np.inf)
    np.fill_diagonal(first, dist[0, 1:])  # mask 1 << j has rank j in its layer
    yield np.full((k, 1), np.inf)
    yield first
    prev, step = first, dist[1:, 1:]
    best_buf, sums_buf = np.empty((2, k * math.comb(k, k // 2) + 1))
    for plan in plans:
        best = best_buf[:prev.size].reshape(prev.shape)
        sums = sums_buf[:prev.size].reshape(prev.shape)
        np.add(prev[0], step[0, :, None], out=best)
        for i in range(1, k):
            np.add(prev[i], step[i, :, None], out=sums)
            np.minimum(best, sums, out=best)
        best_buf[prev.size] = np.inf
        prev = best_buf[:prev.size + 1].take(plan)
        yield prev


def _closing(layer: np.ndarray, dist: np.ndarray, size: int) -> np.ndarray:
    """Cost of the closed tour through points 0..size-1, per last point
    1..size-1, from ``layer``, the table's popcount layer size - 1.  Its
    mask, bits 0..size-2, is the smallest of its popcount, so it is column
    0 at every table size."""
    return layer[:size - 1, 0] + dist[1:size, 0]


def _shortest_tour(dist: np.ndarray) -> tuple[list[np.ndarray], float, list[int] | None]:
    """The Held-Karp table of ``dist`` as its list of layers, the cheapest
    tour's cost, and that tour as positions starting at point 0, or None
    when the cost is not finite.

    The tour closes from the lowest last point of least closing cost, then
    walks the table back from the full mask, each step to the previous
    point whose path plus hop is least, ties to the lowest point: the sums
    the table took its minima over, so the tour's cost is the table's.
    """
    layers = list(_held_karp_layers(dist))
    m = dist.shape[0]
    closing = _closing(layers[m - 1], dist, m)
    j = int(np.argmin(closing))
    value = float(closing[j])
    if not math.isfinite(value):
        return layers, value, None
    rank = _held_karp_steps(m - 1)[0]
    order = [j + 1]
    mask = (1 << (m - 1)) - 1
    while mask != 1 << j:
        mask ^= 1 << j
        j = int(np.argmin(layers[mask.bit_count()][:, rank[mask]] + dist[1:, j + 1]))
        order.append(j + 1)
    order.append(0)
    order.reverse()
    return layers, value, order


@np.errstate(over="ignore")  # a tour too long for a double costs inf
def held_karp_tsp(inst: Instance, subset: Sequence[int] | None = None) -> OracleResult:
    """Exact TSP over ``subset`` (at most 16 points).

    Fewer than two points trivially cost 0.  The witness is a Schedule
    visiting each subset point exactly once, starting at the lowest index;
    ties in the reconstruction resolve to the lowest index.
    """
    verts = _normalize_subset(inst, subset)
    m = len(verts)
    if m > HELD_KARP_MAX:
        raise ValueError(f"exact TSP is limited to {HELD_KARP_MAX} points, got {m}")
    bound = {"method": "held-karp", "points": m}
    if m == 1:
        return OracleResult(0.0, Schedule((verts[0],)), bound)
    _, value, order = _shortest_tour(inst.dist[np.ix_(verts, verts)])
    if order is None:
        raise ValueError(f"TSP cost is not finite ({value!r}): the distances "
                         "are too large to sum in floating point")
    return OracleResult(value, Schedule(tuple(verts[i] for i in order)), bound)


# Most candidate sequences the exhaustive oracle builds at once.
_CANDIDATE_BLOCK = 1 << 14

# The exhaustive oracle's bound is shrunk by this factor, 1 - margin; see
# brute_force_weighted_opt for why 2^-40 covers its rounding.
_BOUND_FACTOR = 1.0 - 2.0 ** -40


@cache
def _tails(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every choice of s steps over n >= 2 points, each 1 .. n - 1 points on
    mod n, level by level; it depends on n only.

    Level s holds, for each choice of s steps, the offset its last step
    reaches (``last``) and its visits to each offset (``counts``).  The
    choice at row r of level s is row r // (n - 1) of level s - 1 plus one
    step.  Levels stop at the last one with at most ``_CANDIDATE_BLOCK``
    choices, or at ``BRUTE_FORCE_MAX_PERIOD - 1`` steps.  Over n = 2 .. 6
    they hold about 320 kB.
    """
    step = np.arange(1, n, dtype=np.int8)
    last = np.zeros(1, dtype=np.int8)
    counts = np.zeros((1, n), dtype=np.int8)
    levels = [(last, counts)]
    while (len(levels) < BRUTE_FORCE_MAX_PERIOD
           and (n - 1) ** len(levels) <= _CANDIDATE_BLOCK):
        last = ((last[:, None] + step) % n).ravel()
        counts = np.repeat(counts, n - 1, axis=0) + np.eye(n, dtype=np.int8)[last]
        levels.append((last, counts))
    for level in levels:
        for a in level:
            a.setflags(write=False)
    return tuple(levels)


def _candidates(n: int, max_period: int):
    """Every candidate patrol over n >= 2 points, of n .. ``max_period``
    visits, as ``(length, sequences, visits)`` blocks of at most
    ``_CANDIDATE_BLOCK`` rows; ``visits[i, x]`` counts row i's visits to x.

    A candidate starts at point 0, never repeats a point immediately, wrap
    included, and visits every point.  So it is a walk from 0 whose steps
    each move 1 .. n - 1 points on, mod n.  A block fixes the first steps
    (the head) and takes every choice of the last ones (the tail) from
    :func:`_tails`, but builds only the rows that end away from 0 and visit
    every point.
    """
    tails = _tails(n)
    for length in range(n, max_period + 1):
        free = min(length, len(tails)) - 1
        last, counts = tails[free]
        for head in itertools.product(range(1, n), repeat=length - 1 - free):
            start = np.cumsum((0, *head)) % n
            at = int(start[-1])
            in_head = np.bincount(start, minlength=n).astype(np.int8)
            visits = in_head + counts[:, (np.arange(n) - at) % n]
            keep = np.flatnonzero(visits.all(axis=1) & (last != -at % n))
            seqs = np.empty((keep.size, length), dtype=np.intp)
            seqs[:, :start.size] = start
            row = keep
            for s in range(free, 0, -1):
                seqs[:, start.size - 1 + s] = (at + tails[s][0][row]) % n
                row = row // (n - 1)
            yield length, seqs, visits[keep]


@np.errstate(over="ignore")  # an overflowing period gets no bound
def brute_force_weighted_opt(inst: Instance, p: float, max_period: int) -> OracleResult:
    """Best weighted objective over all short cyclic visit sequences.

    Searches every sequence of length n..max_period that starts at point 0
    (rotations are equivalent), has no immediate repeats, and visits every
    point, and minimizes ``weighted_objective`` at order ``p``.  This is an
    upper bound on the true optimum — longer periods could do better — which
    ``search_bound`` records.  The witness has the smallest objective, then
    the shortest period, then comes first lexicographically.

    Only the candidates that a cheap bound cannot rule out are scored.  A
    candidate's period P is its hops folded left to right, the wrap hop
    last, as :func:`schedule._visit_times` folds them, and k_x its number of
    visits to x.  Its bound is ``B = max_x w_x * P / k_x * (1 - 2^-40)``.
    The lengths are taken in turn and their candidates in blocks; in each
    block the candidates are scored in ascending order of B, through
    :func:`schedule._profiles`, until one has B above the best value so
    far.  Every candidate left unscored then scores above that value, so
    none of them could tie with the witness, and the (value, length,
    sequence) minimum is the one over all candidates.

    Why B never exceeds a candidate's score (u = 2^-53 is the unit
    roundoff; w = w_x and k = k_x for the point x that sets B):

    * The gaps.  x's gaps are float differences of nondecreasing visit
      times, its wrap gap ``(P - last) + first``.  A float addition or
      subtraction of non-negative values is within a factor 1 +- u of
      exact (a subnormal result is exact), so as real numbers the gaps sum
      to S >= (1 - u)^2 P.
    * Exact costs.  Every cost of those gaps is at least S / k in real
      arithmetic: the longest gap is at least the mean one, and for p >= 2
      ``sum(l^p) / sum(l^(p-1)) >= sum(l^2) / sum(l) >= sum(l) / k`` (Lehmer
      means grow with p; Cauchy-Schwarz).
    * Rounding.  :func:`_cost_of_gaps` then takes at most these steps, each
      within a factor 1 +- 2u (a power within one ulp): k powers or products
      and k - 1 additions in each of its two sums, one division, and on its
      rescaled path k divisions of the gaps first and one product last;
      ``w * cost`` is one more.  A step that underflows adds an absolute
      error of at most 2^-1074, 2u of the smallest normal float, to a value
      that is then at least about that large: the numerator is normal on the
      path that uses it, the denominator is at least the numerator or at
      least 1, the rescaled gaps sum to at least 1, and the final cost and
      ``w * cost`` are at least about B (weights are at most 1).  So each
      underflow counts as one more such factor.  That is at most 8k + 3
      factors, so with the gaps' two the score is at least ``w P / k *
      (1 - 2u)^(8k + 5)``.
    * The bound.  B rounds three times (w * P, / k, times its factor), so
      it is at most ``w P / k * (1 + u)^3 * (1 - 2^-40)``.  With k at most
      ``BRUTE_FORCE_MAX_PERIOD`` = 10 both (1 - 2u)^85 and (1 + u)^-3 are
      within 2^-45 of 1, so the factor leaves room to spare, for powers many
      ulps off too.

    The relative bounds need normal floats, so B counts only when it is a
    normal float; its products, never smaller than it, are then normal as
    well.  A B that is zero, subnormal or inf (the period or a product
    overflowed) rules nothing out.

    A ``max_period`` that is not an integer, or outside n ..
    ``BRUTE_FORCE_MAX_PERIOD``, raises ValueError.
    """
    p = _validate_p(p)
    max_period = _count(max_period, "max_period", 1)
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

    best: tuple[float, int, tuple[int, ...]] = (math.inf, max_period + 1, ())
    for length, seqs, visits in _candidates(n, max_period):
        # folded left to right, the wrap hop last, as _visit_times folds it
        period = inst.dist[seqs[:, 0], seqs[:, 1]]
        for j in range(1, length):
            period += inst.dist[seqs[:, j], seqs[:, (j + 1) % length]]
        bounds = np.max(np.multiply.outer(period, inst.weights) / visits, axis=1)
        bounds *= _BOUND_FACTOR
        bounds[~((bounds >= sys.float_info.min) & (bounds < math.inf))] = 0.0
        ahead = np.flatnonzero(bounds <= best[0])
        for i in ahead[np.argsort(bounds[ahead], kind="stable")].tolist():
            if bounds[i] > best[0]:
                break
            seq = tuple(seqs[i].tolist())
            best = min(best, (score(seq), length, seq))
    value, _, seq = best
    if math.isinf(value):  # every candidate scored inf
        raise ValueError("every patrol's weighted objective overflows to inf: the "
                         "distances are too large to sum in floating point")
    return OracleResult(value, Schedule(seq), bound)


def _partitions_upto(items: tuple[int, ...], max_parts: int):
    """All set partitions of ``items`` into at most ``max_parts`` blocks.

    Canonical enumeration: each item joins an existing block or opens the
    next one (restricted growth), so no partition appears twice.  The last
    item varies fastest: it joins each block in turn, then opens a new one.
    """
    if not items:
        yield ()
        return
    x = items[-1]
    for parts in _partitions_upto(items[:-1], max_parts):
        for i in range(len(parts)):
            yield parts[:i] + (parts[i] + (x,),) + parts[i + 1:]
        if len(parts) < max_parts:
            yield parts + ((x,),)


def partition_tree_cover_oracle(inst: Instance, subset: Sequence[int] | None,
                                k: int) -> OracleResult:
    """Exact min-max tree cover value by enumerating all vertex partitions.

    For every partition of the subset into at most k blocks, the cheapest
    way to connect each block is its MST; the oracle minimizes the maximum
    block MST cost.  The witness is the minimizing partition, the first in
    restricted-growth order.  A ``k`` that is not an integer of at least 1
    raises ValueError, as in :func:`treecover.minmax_tree_cover`.
    """
    k = _count(k, "k", 1)
    verts = _normalize_subset(inst, subset)
    m = len(verts)
    if m > PARTITION_MAX_POINTS:
        raise ValueError(
            f"partition oracle is limited to {PARTITION_MAX_POINTS} points, got {m}")
    if k > PARTITION_MAX_PARTS:
        raise ValueError(
            f"partition oracle is limited to {PARTITION_MAX_PARTS} parts, got {k}")

    best = math.inf
    best_partition: tuple[tuple[int, ...], ...] | None = None
    for partition in _partitions_upto(verts, k):
        worst = 0.0
        for block in partition:
            c = _subset_mst(inst, block)[3]
            if c > worst:
                worst = c
            if worst >= best:
                break
        if worst < best:
            best = worst
            best_partition = partition
    if best_partition is None:  # every candidate scored inf
        raise ValueError("every partition's tree cost overflows to inf: the "
                         "distances are too large to sum in floating point")
    return OracleResult(float(best), best_partition,
                        {"method": "set-partitions", "points": m, "parts": k})


def _grow_spanning_tree(
    dist: np.ndarray, tree: tuple[np.ndarray, np.ndarray],
    old: np.ndarray, new: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """MST of ``old`` + ``new`` from ``tree``, the (u, v) edges of MST(old).

    By the cycle property MST(old + new) lies within MST(old) plus the edges
    touching ``new``, so Kruskal runs on just those candidates, in the
    (distance, u, v) order of ``minimum_spanning_tree``: the tree and the
    cost, summed in that order, are the same as a fresh MST of the union.
    """
    at = np.arange(new.size)
    iu, iv = np.nonzero(at[:, None] < at)
    a = np.concatenate([np.repeat(new, old.size), new[iu]])
    b = np.concatenate([np.tile(old, new.size), new[iv]])
    us, vs, ws = _spanning_forest(dist, np.concatenate([old, new]),
                                  np.concatenate([tree[0], np.minimum(a, b)]),
                                  np.concatenate([tree[1], np.maximum(a, b)]))
    return (us, vs), _fold(ws.tolist())


def _nearest_neighbour_tour(dist: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Greedy closed tour through ``points``, as positions into ``points``.

    It starts at ``points[0]`` and always moves on to the nearest point not
    yet visited, ties to the earliest in ``points``.
    """
    left = np.ones(points.size, dtype=bool)
    left[0] = False
    tour = [0]
    for _ in range(points.size - 1):
        tour.append(int(np.argmin(np.where(left, dist[points[tour[-1]], points], np.inf))))
        left[tour[-1]] = False
    return np.array(tour)


def _tour_length(dist: np.ndarray, stops: np.ndarray) -> float:
    """Length of the closed tour through ``stops``, summed left to right from
    ``stops[0]``, the closing hop last: the order in which the Held-Karp
    table sums a tour started at ``stops[0]``."""
    return _fold(dist[stops, np.concatenate((stops[1:], stops[:1]))].tolist())


def _insert_cheapest(dist: np.ndarray, tour: np.ndarray, point: int) -> np.ndarray:
    """``tour`` with ``point`` put into the hop it lengthens least, ties to
    the earliest hop; the closing hop comes last, so ``tour[0]`` stays first."""
    after = np.roll(tour, -1)
    at = int(np.argmin(dist[tour, point] + dist[point, after] - dist[tour, after]))
    return np.insert(tour, at + 1, point)


# Rows per block of _leaf_distances: a block gathers at most _LEAF_ROWS x n
# distances, about 1 MB at n = 2000.
_LEAF_ROWS = 64


def _leaf_distances(dist: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Distance from each ranked point after the first, ``order[1:]``, to its
    nearest earlier-ranked point.

    The rows are gathered ``_LEAF_ROWS`` at a time, each block only up to
    its last row's rank, so no n x n copy is made.
    """
    leaves = np.empty(order.size - 1)
    for lo in range(1, order.size, _LEAF_ROWS):
        hi = min(lo + _LEAF_ROWS, order.size)
        block = dist[order[lo:hi, None], order[:hi]]
        block[np.arange(hi) >= np.arange(lo, hi)[:, None]] = np.inf
        block.min(axis=1, out=leaves[lo - 1:hi - 1])
    return leaves


# The Held-Karp levels take up to two tables: a first over the largest
# surviving level of at most _FIRST_TABLE_MAX points, whose optimal tour,
# extended by cheapest insertion, then rules out larger levels before the
# second is built.  Over perfbench's plan-graded inputs of seeds 1 to 3, the
# tables built held 0.82, 0.77, 0.78, 0.81 and 0.86 of the entries one table
# per instance holds, for cut-offs of 11 to 15 (mean over the seeds).
_FIRST_TABLE_MAX = 12


def _exact_levels(sub: np.ndarray, ranked: np.ndarray, ends: list[int],
                  layers: Iterable[np.ndarray]) -> float:
    """Largest ``w * TSP`` of the levels ``ends`` (ascending, at most 16
    points), read from ``layers``: the Held-Karp layers of ``sub``, the
    distances among the first ``ends[-1]`` ranked points.  Each level's
    closing column is read as its layer passes, so ``layers`` may be the
    kernel's stream, and then no layer outlives the next one's step.
    """
    return max(float(ranked[c]) * float(np.min(_closing(layer, sub, c + 1)))
               for c, layer in enumerate(layers) if c + 1 in ends)


@np.errstate(over="ignore")  # a tour too long for a double costs inf
def lower_bound(inst: Instance) -> float:
    """Certified lower bound on the best achievable weighted max-absence.

    Two families of bounds, maximized jointly:

    * for every weight level w, any schedule leaves some point of weight
      >= w unvisited for at least the tour cost of all such points, so
      ``w * TSP({x : weight(x) >= w})`` is a bound (MST substitutes for TSP
      above 16 points; it is never larger, so validity is preserved);
    * the full distance between any two points (some weight-1 point must
      keep returning to both sides).

    The levels are computed incrementally.  Points are ranked heaviest
    first, ties by index, so every level is a prefix of the ranking.  Above
    16 points the first level computed takes its MST from
    ``mst._subset_mst``, which a tree cover of the same points shares, and
    the tree grows from level to level: by the cycle property the MST of a
    level lies within an earlier level's tree plus the edges touching the
    points added since, so Kruskal re-runs on just those, and the tree and
    its cost equal a fresh MST bit for bit.  A Held-Karp table over a
    prefix of at most 16 points, started at the heaviest point, gives the
    exact TSP of every smaller prefix from a single column; it may differ
    from a tour started at the lowest index by an ulp, since floating-point
    sums depend on the start.

    With more than one level, a level whose value provably cannot exceed
    the best value found so far is skipped, so the returned float is the
    same as evaluating every level.  (u is the unit roundoff; a float sum
    of at most n non-negative terms, added in any order, is within a factor
    (1 + 2u)^n of the exact sum.)

    * MST levels (done first), one test.  Let k be the last level computed
      exactly, with float cost c_k (0 before the first), and leaf(i) the
      distance from the i-th ranked point to its nearest earlier-ranked
      point, gathered for every point in one pass.  The tree of level k
      plus the leaf edges of the points ranked after it spans level j, so
      its MST is at most c_k + sum of those leaf(i) as real numbers.  No
      shortcut is taken, so only rounding needs a margin.  c_k and the leaf
      sum are each within (1 + 2u)^n of their exact sums, adding them
      rounds once, the level's own float cost is within (1 + 2u)^n of its
      exact sum, and the product with the margin rounds once more:
      (1 + 2u)^(2n + 3) in all, which the margin ``(1 + 2 eps)^(n + 2)``
      (eps = 2u) exceeds even after its own rounding for any n below
      10^15.  Where that sum is subnormal, every addition is exact and a
      margin of 1 suffices.  So ``(c_k + leaves) * margin`` is at least the
      level's float cost, and a level with ``w`` times it ``<= best`` is
      skipped; its points join the next exact level in one batch.  Weights
      fall along the ranking, so once ``w`` times c_k plus every leaf left
      is at most ``best``, the test skips every later level too, and no
      separate stop test is needed.
    * Held-Karp levels, two tables.  The table sums a tour from the
      heaviest point left to right, the closing hop last, and keeps the
      minimum over tours at every step; float addition is monotone, so its
      value for a level is at most that same sum along any one tour of the
      level, exactly, with no margin.  First that sum along a
      nearest-neighbour tour of the prefix, restricted to each level, rules
      levels out.  Of the levels left, one table over the largest of at
      most ``_FIRST_TABLE_MAX`` points gives theirs, raises ``best``, and
      walks back its optimal tour.  A larger level is kept only while its
      weight times that tour with the points up to it added by cheapest
      insertion, summed as the table sums it, beats ``best``, and the
      second table is built only over the largest level kept.  Since every
      table entry depends only on its sub-masks, a prefix table gives the
      same level values as the full one, bit for bit.  The second table is
      streamed: each kept level's closing column is read as its layer
      passes, so at most two of its layers are held at once, never the
      whole table.

    Cost O(15^2 * 2^15 + n^2 log n) at most: the table's min-plus steps
    take k^2 * 2^k additions and minima over k = 15 free points, instead
    of one fresh TSP or MST per level.
    """
    n = inst.n
    best = float(np.max(inst.dist)) if n > 1 else 0.0
    order = np.argsort(-inst.weights, kind="stable")
    ranked = inst.weights[order]
    ends = [*(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), n]
    prune = len(ends) > 1
    mst_ends = [e for e in ends if e > HELD_KARP_MAX]
    if mst_ends:
        if prune:
            leaf = _leaf_distances(inst.dist, order)
            margin = (1.0 + 2.0 * sys.float_info.epsilon) ** (n + 2)
        cost, covered, leaves = 0.0, 0, 0.0
        for start, end in zip([1, *mst_ends], mst_ends):
            weight = float(ranked[end - 1])
            if prune:
                leaves += _fold(leaf[start - 1:end - 1].tolist())
                if weight * ((cost + leaves) * margin) <= best:
                    continue
            if covered:
                tree, cost = _grow_spanning_tree(inst.dist, tree, order[:covered],
                                                 order[covered:end])
            else:
                us, vs, _, cost = _subset_mst(inst, sorted(order[:end].tolist()))
                tree = (us, vs)
            covered, leaves = end, 0.0
            best = max(best, weight * cost)
    tsp_ends = [e for e in ends if 2 <= e <= HELD_KARP_MAX]
    if prune and tsp_ends:
        tour = _nearest_neighbour_tour(inst.dist, order[:tsp_ends[-1]])
        tsp_ends = [e for e in tsp_ends if float(ranked[e - 1]) * _tour_length(
            inst.dist, order[tour[tour < e]]) > best]
        first = [e for e in tsp_ends if e <= _FIRST_TABLE_MAX]
        if first and first[-1] < tsp_ends[-1]:
            sub = inst.dist[np.ix_(order[:first[-1]], order[:first[-1]])]
            layers, _, positions = _shortest_tour(sub)
            best = max(best, _exact_levels(sub, ranked, first, layers))
            if positions is None:  # the table overflowed, so best is inf
                return best
            tour = order[positions]
            kept = []
            for end in tsp_ends[len(first):]:
                for point in order[tour.size:end]:
                    tour = _insert_cheapest(inst.dist, tour, point)
                if float(ranked[end - 1]) * _tour_length(inst.dist, tour) > best:
                    kept.append(end)
            tsp_ends = kept
    if tsp_ends:
        sub = inst.dist[np.ix_(order[:tsp_ends[-1]], order[:tsp_ends[-1]])]
        best = max(best, _exact_levels(sub, ranked, tsp_ends, _held_karp_layers(sub)))
    return float(best)
