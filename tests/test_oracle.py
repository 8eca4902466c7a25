"""Exact reference solvers: TSP, exhaustive schedules, partition covers."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (GEOMETRIES, WEIGHT_LAWS, RandomSpec, Schedule,
                         brute_force_weighted_opt, generate_random, held_karp_tsp,
                         lower_bound, make_instance, minimum_spanning_tree, oracle,
                         partition_tree_cover_oracle, period_length,
                         weighted_objective)
from patrolsched.instance import TRIANGLE_TOL
from patrolsched.oracle import (BRUTE_FORCE_MAX_POINTS, HELD_KARP_MAX, _closing,
                                _held_karp_layers, _held_karp_steps, _partitions_upto)
from conftest import (random_instance, random_metric_instance, reference_brute_force,
                      reference_held_karp, reference_held_karp_dp,
                      reference_incremental_lower_bound, reference_lower_bound,
                      schedules_on_metrics)


def permutation_tsp(inst, subset):
    """Exact TSP value by enumerating permutations (tiny subsets only)."""
    verts = list(subset)
    if len(verts) <= 1:
        return 0.0
    first = verts[0]
    best = math.inf
    for perm in itertools.permutations(verts[1:]):
        order = [first, *perm]
        cost = sum(inst.dist[order[i], order[(i + 1) % len(order)]]
                   for i in range(len(order)))
        best = min(best, cost)
    return float(best)


class TestHeldKarp:
    def test_triangle(self, unit_triangle):
        res = held_karp_tsp(unit_triangle)
        assert res.value == 3.0
        assert sorted(res.witness.visits) == [0, 1, 2]

    def test_witness_cost_equals_value(self, line_four):
        res = held_karp_tsp(line_four)
        assert res.value == 6.0  # out and back along the line
        assert period_length(res.witness, line_four) == pytest.approx(res.value)

    def test_two_points(self, line_four):
        res = held_karp_tsp(line_four, [0, 3])
        assert res.value == 6.0

    def test_single_point(self, line_four):
        res = held_karp_tsp(line_four, [2])
        assert res.value == 0.0
        assert res.witness.visits == (2,)

    def test_prefix_columns_equal_fresh_tables(self):
        # each size's mask ranks are a prefix of the largest size's, and the
        # full mask of c bits, the smallest of its popcount, has rank 0: so
        # _closing reads column 0 at every table size
        shared_rank = _held_karp_steps(HELD_KARP_MAX - 1)[0]
        for k in range(1, HELD_KARP_MAX):
            rank = _held_karp_steps(k)[0]
            assert np.array_equal(rank, shared_rank[:1 << k]), k
            assert all(rank[(1 << c) - 1] == 0 for c in range(k + 1)), k
        # every prefix of the points, read from one shared table, is bit for
        # bit the table of that prefix alone (same start vertex 0)
        dist = random_metric_instance(np.random.default_rng(5), HELD_KARP_MAX).dist
        shared = list(_held_karp_layers(dist))
        for size in range(2, HELD_KARP_MAX + 1):
            fresh_dist = dist[:size, :size]
            fresh = list(_held_karp_layers(fresh_dist))
            rank = _held_karp_steps(size - 1)[0]
            for mask in range(1, 1 << (size - 1)):
                c = mask.bit_count()
                assert np.array_equal(shared[c][:size - 1, shared_rank[mask]],
                                      fresh[c][:, rank[mask]])
            assert np.array_equal(_closing(shared[size - 1], dist, size),
                                  _closing(fresh[size - 1], fresh_dist, size))

    @pytest.mark.parametrize("kind", ["metric", "grid", "huge", "subnormal"])
    @pytest.mark.parametrize("m", range(2, HELD_KARP_MAX + 1))
    def test_every_entry_matches_reference_dp(self, m, kind):
        # layers[c][j, rank[mask]] is dp[(mask << 1) | 1, j + 1] bit for bit,
        # inf entries included, and so are the closing costs: on random
        # metrics, on integer L1 distances full of ties, at 1e308 to 1.7e308
        # where every path of two hops or more overflows to inf, and at a
        # subnormal scale
        rng = np.random.default_rng(100 + m)
        if kind == "grid":
            cells = np.divmod(rng.choice(25, size=m, replace=False), 5)
            cells = np.stack(cells, axis=1)
            dist = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2).astype(float)
        elif kind == "huge":
            stretch = np.triu(rng.uniform(0.0, 0.7, size=(m, m)), 1)
            dist = 1e308 * (1.0 + stretch + stretch.T) * (1.0 - np.eye(m))
        else:
            dist = random_metric_instance(rng, m).dist * {"metric": 1.0, "subnormal": 1e-320}[kind]
        with np.errstate(over="ignore"):
            layers = list(_held_karp_layers(dist))
            closing = _closing(layers[m - 1], dist, m)
            dp = reference_held_karp_dp(dist)
            want_closing = dp[-1, 1:] + dist[1:, 0]
        rank = _held_karp_steps(m - 1)[0]
        masks = np.arange(1 << (m - 1))
        counts = np.array([mask.bit_count() for mask in masks.tolist()])
        for c, layer in enumerate(layers):
            of_c = masks[counts == c]
            got = layer[:, rank[of_c]]
            want = dp[(of_c << 1) | 1, 1:].T
            assert got.tobytes() == want.tobytes(), (m, kind, c)
        assert closing.tobytes() == want_closing.tobytes(), (m, kind)
        if kind == "huge":
            assert all(np.isinf(layer).all() for layer in layers[2:])

    @pytest.mark.parametrize("m", range(2, HELD_KARP_MAX + 1))
    def test_matches_reference_dp(self, m):
        # value and tie-broken witness equal an independent dp[mask, j] DP
        inst = random_metric_instance(np.random.default_rng(m), m)
        value, order = reference_held_karp(inst.dist)
        res = held_karp_tsp(inst)
        assert res.value == value
        assert res.witness.visits == tuple(order)

    def test_rejects_large_subset(self):
        inst = random_instance(0, 17)
        with pytest.raises(ValueError):
            held_karp_tsp(inst)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), m=st.integers(2, 7))
def test_held_karp_matches_permutation_enumeration(seed, m):
    rng = np.random.default_rng(seed)
    inst = random_metric_instance(rng, 8)
    subset = sorted(rng.choice(8, size=m, replace=False).tolist())
    res = held_karp_tsp(inst, subset)
    assert res.value == pytest.approx(permutation_tsp(inst, subset), rel=1e-12)
    # witness visits each subset point exactly once and achieves the value
    assert sorted(res.witness.visits) == subset
    assert period_length(res.witness, inst) == pytest.approx(res.value, rel=1e-12)


def l1_grid(cells, weights):
    """Points on the integer grid at L1 distances: integer costs, many ties."""
    pts = np.array(cells, dtype=float)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    return make_instance([f"q{i}" for i in range(len(cells))], weights, dist)


GRID_FIVE = l1_grid([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)], [1, 0.5, 1, 0.5, 0.5])
GRID_SIX = l1_grid([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
                   [1, 0.5, 1, 0.5, 0.5, 0.25])
GRID_NINE = l1_grid([(x, y) for y in range(3) for x in range(3)],
                    [1, 0.5, 1, 0.5, 0.25, 0.5, 1, 0.5, 1])


class TestBruteForceWeightedOpt:
    # (instance, p, max_period, value.hex(), witness): among equal objectives
    # the shortest period wins, then the lexicographically first sequence
    @pytest.mark.parametrize("inst, p, max_period, value, witness", [
        (GRID_FIVE, math.inf, 5, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, math.inf, 6, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, math.inf, 7, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, 2.0, 5, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, 2.0, 6, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, 2.0, 7, "0x1.4cccccccccccdp+2", "q0 q1 q2 q0 q2 q4 q3"),
        (GRID_FIVE, 3.0, 5, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, 3.0, 6, "0x1.8000000000000p+2", "q0 q1 q2 q4 q3"),
        (GRID_FIVE, 3.0, 7, "0x1.589d89d89d89ep+2", "q0 q1 q2 q0 q2 q4 q3"),
        (GRID_SIX, math.inf, 6, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, math.inf, 7, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, math.inf, 8, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, 2.0, 6, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, 2.0, 7, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, 2.0, 8, "0x1.4cccccccccccdp+2", "q0 q1 q2 q0 q2 q5 q4 q3"),
        (GRID_SIX, 3.0, 6, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, 3.0, 7, "0x1.8000000000000p+2", "q0 q1 q2 q5 q4 q3"),
        (GRID_SIX, 3.0, 8, "0x1.589d89d89d89ep+2", "q0 q1 q2 q0 q2 q5 q4 q3"),
    ])
    def test_tie_break_goldens(self, inst, p, max_period, value, witness):
        res = brute_force_weighted_opt(inst, p, max_period)
        assert res.value.hex() == value
        assert " ".join(inst.labels[v] for v in res.witness.visits) == witness

    def test_unit_triangle_weighted(self, unit_triangle):
        res = brute_force_weighted_opt(unit_triangle, math.inf, 4)
        assert res.value == 2.0
        assert [unit_triangle.labels[v] for v in res.witness.visits] == ["a", "b", "a", "c"]
        assert res.search_bound["upper_bound_only"] is True

    def test_value_matches_witness(self, unit_triangle):
        for p in (2.0, math.inf):
            res = brute_force_weighted_opt(unit_triangle, p, 5)
            assert weighted_objective(res.witness, unit_triangle, p) == pytest.approx(
                res.value, rel=1e-12)

    def test_longer_periods_never_hurt(self, unit_triangle):
        v4 = brute_force_weighted_opt(unit_triangle, math.inf, 4).value
        v6 = brute_force_weighted_opt(unit_triangle, math.inf, 6).value
        assert v6 <= v4 + 1e-12

    def test_uniform_weights_reduce_to_tsp(self):
        # with equal weights and period exactly n, the best patrol is a TSP tour
        inst = random_instance(3, 5, weight_law="equal")
        bf = brute_force_weighted_opt(inst, math.inf, 5)
        hk = held_karp_tsp(inst)
        assert bf.value == pytest.approx(hk.value, rel=1e-12)

    def test_rejects_too_many_points(self):
        inst = random_instance(0, 7)
        with pytest.raises(ValueError):
            brute_force_weighted_opt(inst, math.inf, 8)

    def test_rejects_period_shorter_than_n(self, unit_triangle):
        with pytest.raises(ValueError):
            brute_force_weighted_opt(unit_triangle, math.inf, 2)


@settings(max_examples=60, deadline=None)
@given(case=schedules_on_metrics(max_n=5), p=st.sampled_from([2.0, 3.0, math.inf]),
       extra=st.integers(0, 2))
def test_value_is_the_witness_objective_exactly(case, p, extra):
    """The oracle scores a candidate as ``weighted_objective`` does, bit for bit."""
    inst, _ = case
    res = brute_force_weighted_opt(inst, p, inst.n + extra)
    assert res.value == weighted_objective(res.witness, inst, p)


@st.composite
def exhaustive_cases(draw):
    """(instance, p, max_period) for the exhaustive oracle, at a distance
    scale 10^k.

    ``generated`` covers both geometries and all three weight laws.  ``grid``
    puts the points on an L1 grid and ``line`` on a line, at whole or tenth
    steps: whole steps tie many candidates exactly, tenth steps make their
    periods differ by rounding alone.  Their weights take at most three
    values, so points tie on weight too.
    """
    kind = draw(st.sampled_from(["generated", "grid", "line"]))
    n = draw(st.integers(3 if kind == "generated" else 1, BRUTE_FORCE_MAX_POINTS))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "generated":
        inst = generate_random(RandomSpec(n=n, weight_law=draw(st.sampled_from(WEIGHT_LAWS)),
                                          geometry=draw(st.sampled_from(GEOMETRIES))), seed)
        dist, weights = inst.dist, inst.weights
    else:
        rng = np.random.default_rng(seed)
        if kind == "grid":
            cells = rng.choice(9, size=n, replace=False)
            pts = np.stack([cells // 3, cells % 3], axis=1)
        else:
            pts = rng.choice(12, size=(n, 1), replace=False)
        step = draw(st.sampled_from([1.0, 0.1]))
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) * step
        weights = rng.integers(1, draw(st.integers(1, 3)) + 1, size=n)
    scale = 10.0 ** draw(st.integers(-300, 300))
    inst = make_instance([f"p{i}" for i in range(n)], weights, dist * scale)
    p = draw(st.sampled_from([2.0, 3.0, math.inf]))
    return inst, p, min(n + draw(st.integers(0, 3)), 8)


@settings(max_examples=100, deadline=None)
@given(case=exhaustive_cases())
def test_bounded_search_equals_scoring_every_candidate(case):
    inst, p, max_period = case
    res, ref = brute_force_weighted_opt(inst, p, max_period), reference_brute_force(
        inst, p, max_period)
    assert res.value.hex() == ref.value.hex()
    assert res.witness == ref.witness
    assert res.search_bound == ref.search_bound


def test_bound_keeps_its_rounding_margin():
    # q1, the one point of weight 1, is visited once, at 0.4, by the tour
    # q0 q1 q2 q3 (hops 0.4, 0.6, 0.4, 0.3).  Its period P folds to 1.7, and
    # q1's wrap gap (P - 0.4) + 0.4 rounds one ulp below, to the tour's
    # value.  The reversed tour folds its period to that lower float and
    # scores it too, so without the margin it comes first and the tour's
    # bound P rules the tour out: the witness would lose its tie.
    d = [[0.0, 0.4, 0.7, 0.3], [0.4, 0.0, 0.6, 0.6],
         [0.7, 0.6, 0.0, 0.4], [0.3, 0.6, 0.4, 0.0]]
    inst = make_instance(["q0", "q1", "q2", "q3"], [0.25, 1.0, 0.5, 0.25], d)
    tour = Schedule((0, 1, 2, 3))
    below = math.nextafter(1.7, 0.0)
    assert period_length(tour, inst) == 1.7
    assert weighted_objective(tour, inst, math.inf) == below
    assert period_length(Schedule((0, 3, 2, 1)), inst) == below
    res = brute_force_weighted_opt(inst, math.inf, 4)
    assert (res.value, res.witness) == (below, tour)


def test_equal_weights_score_only_the_shortest_tours(monkeypatch):
    # GRID_SIX with equal weights, period 8: of the 16,920 candidates, only
    # the 6-long tour around the grid and its reversal have a bound (their
    # period, since they visit points once) of at most 6
    inst = make_instance(GRID_SIX.labels, [1.0] * 6, GRID_SIX.dist)
    calls = _record_calls(monkeypatch, "_profiles")
    res = brute_force_weighted_opt(inst, math.inf, 8)
    assert (res.value, res.witness) == (6.0, Schedule((0, 1, 2, 5, 4, 3)))
    assert len(calls) == 2


def equidistant(dist):
    return make_instance(["a", "b", "c"], [1.0, 1.0, 1.0],
                         [[0.0 if i == j else dist for j in range(3)] for i in range(3)])


class TestBruteForceOverflow:
    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_every_period_overflowing_is_an_error(self, p):
        with pytest.raises(ValueError, match="weighted objective overflows"):
            brute_force_weighted_opt(equidistant(1e308), p, 5)

    def test_overflowing_candidates_do_not_hide_finite_ones(self):
        # three hops of 5e307 add up; a fourth overflows
        inst = equidistant(5e307)
        res = brute_force_weighted_opt(inst, math.inf, 5)
        assert len(res.witness) == 3
        assert res.value == weighted_objective(res.witness, inst, math.inf) < math.inf


class TestPartitionOracle:
    def test_line_two_blocks(self, line_four):
        res = partition_tree_cover_oracle(line_four, None, 2)
        assert res.value == 1.0  # {p0,p1} and {p2,p3}, each an MST of cost 1
        assert sorted(len(b) for b in res.witness) == [2, 2]

    def test_single_block_is_mst(self, line_four):
        res = partition_tree_cover_oracle(line_four, None, 1)
        assert res.value == minimum_spanning_tree(line_four).cost

    def test_enough_blocks_for_singletons(self, line_four):
        res = partition_tree_cover_oracle(line_four, None, 4)
        assert res.value == 0.0

    def test_rejects_oversized_inputs(self):
        inst = random_instance(0, 11)
        with pytest.raises(ValueError):
            partition_tree_cover_oracle(inst, None, 2)
        small = random_instance(0, 5)
        with pytest.raises(ValueError):
            partition_tree_cover_oracle(small, None, 5)

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(17)
        inst = random_metric_instance(rng, 7)
        res = partition_tree_cover_oracle(inst, None, 3)
        worst = max(minimum_spanning_tree(inst, block).cost for block in res.witness)
        assert worst == pytest.approx(res.value, rel=1e-12)


    # the first minimizing partition in restricted-growth order is the witness
    @pytest.mark.parametrize("k, value, witness", [
        (1, "0x1.0000000000000p+3", "q0 q1 q2 q3 q4 q5 q6 q7 q8"),
        (2, "0x1.0000000000000p+2", "q0 q1 q2 q3 q4 | q5 q6 q7 q8"),
        (3, "0x1.0000000000000p+1", "q0 q1 q2 | q3 q4 q5 | q6 q7 q8"),
        (4, "0x1.0000000000000p+1", "q0 q1 q2 | q3 q4 q5 | q6 q7 q8"),
    ])
    def test_tie_break_goldens(self, k, value, witness):
        res = partition_tree_cover_oracle(GRID_NINE, None, k)
        assert res.value.hex() == value
        assert " | ".join(" ".join(GRID_NINE.labels[v] for v in block)
                          for block in res.witness) == witness


def stirling2(m, j):
    """Number of partitions of m items into exactly j non-empty blocks."""
    if m == 0 or j == 0:
        return int(m == j)
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("k", range(1, 5))
def test_partitions_come_once_in_restricted_growth_order(m, k):
    items = (2, 3, 5, 7, 11, 13, 17)[:m]
    partitions = list(_partitions_upto(items, k))
    assert len(partitions) == sum(stirling2(m, j) for j in range(1, k + 1))
    growth = []
    for partition in partitions:
        assert 1 <= len(partition) <= k
        # canonical: ascending blocks, ordered by their first item, covering items once
        assert all(list(block) == sorted(block) for block in partition)
        assert [block[0] for block in partition] == sorted(block[0] for block in partition)
        assert sorted(x for block in partition for x in block) == list(items)
        growth.append([next(b for b, block in enumerate(partition) if x in block)
                       for x in items])
    # strictly increasing block-index strings: each partition once, in order
    assert all(a < b for a, b in zip(growth, growth[1:]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999), k=st.integers(1, 3))
def test_partition_oracle_nonincreasing_in_k(seed, k):
    rng = np.random.default_rng(seed)
    inst = random_metric_instance(rng, 6)
    a = partition_tree_cover_oracle(inst, None, k).value
    b = partition_tree_cover_oracle(inst, None, k + 1).value
    assert b <= a + 1e-12


class TestLowerBound:
    def test_unit_triangle(self, unit_triangle):
        assert lower_bound(unit_triangle) == 1.5

    def test_at_least_weighted_diameter(self, line_four):
        assert lower_bound(line_four) >= 3.0

    def test_single_point(self):
        inst = make_instance(["a"], [1.0], [[0.0]])
        assert lower_bound(inst) == 0.0

    def test_never_exceeds_any_full_patrol(self, unit_triangle):
        # the bound must sit below the best exhaustive patrol value
        bf = brute_force_weighted_opt(unit_triangle, math.inf, 6)
        assert lower_bound(unit_triangle) <= bf.value + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999))
def test_lower_bound_below_exhaustive_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = random_metric_instance(rng, 4)
    bf = brute_force_weighted_opt(inst, math.inf, 7)
    assert lower_bound(inst) <= bf.value * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 40), levels=st.integers(1, 40))
def test_lower_bound_matches_per_level_reference(seed, n, levels):
    # weights drawn from ``levels`` values give tied levels; levels == 1 is
    # all-equal weights, and n up to 40 lets levels straddle 16 points
    rng = np.random.default_rng(seed)
    dist = random_metric_instance(rng, n).dist
    weights = rng.integers(1, levels + 1, size=n) / levels
    inst = make_instance([f"p{i}" for i in range(n)], weights, dist)
    lb, ref = lower_bound(inst), reference_lower_bound(inst)
    sizes = {int(np.count_nonzero(inst.weights >= w)) for w in inst.weights}
    if any(2 <= s <= HELD_KARP_MAX for s in sizes):
        assert lb == pytest.approx(ref, rel=1e-12)
    else:  # MST levels only: the grown tree is the fresh MST, summed alike
        assert lb == ref


@st.composite
def pruned_bound_instances(draw):
    """Instances for the pruned ``lower_bound``, at a distance scale 10^k.

    ``generated`` covers both geometries and all three weight laws;
    ``tied`` draws a few weight values on 10 to 30 points, so levels fall on
    both sides of 16 points; ``cliff`` puts 17 to 30 points of nearly equal
    weight over a far lighter tail, so the last level the bound keeps is
    usually the one that sets it; ``slack`` stretches every distance of an
    integer L1 grid, full of exact triangle equalities, by up to 0.999 of
    ``TRIANGLE_TOL``, so shortcuts use almost all the slack the validator
    allows; ``arc`` puts 17 to 46 points in ranked order along three
    quarters of a circle, so each point's nearest earlier-ranked point is
    the one before it, every such leaf edge is an MST edge, the leaf test's
    sum is the MST of the level it tests, and, unlike on a line, an MST
    level can exceed the diameter; weights fall by at most half along the
    arc, so the last levels usually set the bound.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["generated", "tied", "cliff", "slack", "arc"]))
    if kind == "generated":
        n = draw(st.integers(3, 60))
        spec = RandomSpec(n=n, weight_law=draw(st.sampled_from(WEIGHT_LAWS)),
                          geometry=draw(st.sampled_from(GEOMETRIES)))
        inst = generate_random(spec, seed)
        dist, weights = inst.dist, inst.weights
    elif kind == "tied":
        n = draw(st.integers(HELD_KARP_MAX - 6, HELD_KARP_MAX + 14))
        dist = random_metric_instance(rng, n).dist
        levels = draw(st.integers(2, 6))
        weights = rng.integers(1, levels + 1, size=n) / levels
    elif kind == "cliff":
        heavy = draw(st.integers(HELD_KARP_MAX + 1, HELD_KARP_MAX + 14))
        n = heavy + draw(st.integers(1, 20))
        dist = random_metric_instance(rng, n).dist
        weights = np.concatenate([rng.uniform(0.9, 1.0, size=heavy),
                                  rng.uniform(1e-6, 1e-2, size=n - heavy)])
    elif kind == "arc":
        n = draw(st.integers(HELD_KARP_MAX + 1, HELD_KARP_MAX + 30))
        gaps = rng.uniform(0.01, 1.0, size=n)
        gaps[0] = 0.0
        turn = 1.5 * np.pi * np.cumsum(gaps) / gaps.sum()
        coords = np.stack([np.cos(turn), np.sin(turn)], axis=1)
        dist = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
        levels = draw(st.integers(2, n))
        weights = 1.0 - 0.5 * np.sort(rng.integers(0, levels, size=n)) / levels
    else:
        n = draw(st.integers(3, 40))
        cells = rng.choice(64, size=n, replace=False)
        pts = np.stack([cells // 8, cells % 8], axis=1)
        base = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
        stretch = np.triu(rng.uniform(0.0, 0.999, size=(n, n)), 1)
        dist = base * (1.0 + (stretch + stretch.T) * TRIANGLE_TOL)
        weights = rng.uniform(0.01, 1.0, size=n)
    scale = 10.0 ** draw(st.integers(-300, 300))
    return make_instance([f"p{i}" for i in range(n)], weights, dist * scale)


@settings(max_examples=150, deadline=None)
@given(inst=pruned_bound_instances())
def test_pruned_lower_bound_is_bit_identical(inst):
    assert lower_bound(inst).hex() == reference_incremental_lower_bound(inst).hex()


def _record_calls(monkeypatch, name):
    """Replace ``oracle.<name>`` with a wrapper; returns the list of its calls."""
    calls = []
    real = getattr(oracle, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, recorded)
    return calls


class TestLowerBoundPruning:
    def test_single_level_builds_no_tour(self, monkeypatch):
        tours = _record_calls(monkeypatch, "_nearest_neighbour_tour")
        for n in (10, 40):
            lower_bound(random_instance(3, n, "equal"))
        assert tours == []

    def test_ruled_out_small_levels_build_no_table(self, monkeypatch):
        # five heavy points a hundredth apart, 30 lighter ones spread over
        # the unit square: every small level's tour is below the diameter
        rng = np.random.default_rng(7)
        coords = np.concatenate([0.5 + 0.01 * rng.uniform(size=(5, 2)),
                                 rng.uniform(size=(30, 2))])
        dist = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
        weights = np.concatenate([np.linspace(1.0, 0.9, 5), np.full(30, 0.5)])
        inst = make_instance([f"p{i}" for i in range(35)], weights, dist)
        expected = reference_incremental_lower_bound(inst)
        # every table, streamed or whole, is built by this one kernel
        tables = _record_calls(monkeypatch, "_held_karp_layers")
        assert lower_bound(inst) == expected
        assert tables == []

    def test_insertion_bound_rules_out_the_top_table(self, monkeypatch):
        # twelve points of weight 1 and four of weight 0.7 in the unit
        # square: the 16-point level's nearest-neighbour tour still beats
        # the 12-point level's exact value, but its tour by cheapest
        # insertion into the 12-point optimum does not
        rng = np.random.default_rng(4)
        coords = rng.uniform(size=(16, 2))
        dist = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
        inst = make_instance([f"p{i}" for i in range(16)], np.repeat([1.0, 0.7], [12, 4]),
                             dist)
        greedy = oracle._nearest_neighbour_tour(dist, np.arange(16))
        assert 0.7 * oracle._tour_length(dist, greedy) > held_karp_tsp(inst, range(12)).value
        expected = reference_incremental_lower_bound(inst)
        tables = _record_calls(monkeypatch, "_held_karp_layers")
        assert lower_bound(inst) == expected
        assert [len(sub) for sub, in tables] == [12]

    def test_streamed_final_table_reads_four_levels(self, monkeypatch):
        # twelve points of weight 1 on the unit circle and four lighter ones
        # pushed out to radius 1.6 between them: each light point lengthens
        # the tour by far more than its weight drops, so levels 13 to 16
        # all survive the insertion bound and are read from one streamed
        # 16-point table
        heavy = 2 * np.pi * np.arange(12) / 12
        light = 2 * np.pi * (np.array([0, 3, 6, 9]) + 0.5) / 12
        coords = np.concatenate([np.stack([np.cos(heavy), np.sin(heavy)], axis=1),
                                 1.6 * np.stack([np.cos(light), np.sin(light)], axis=1)])
        dist = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
        inst = make_instance([f"p{i}" for i in range(16)],
                             [1.0] * 12 + [0.99, 0.98, 0.97, 0.96], dist)
        expected = reference_incremental_lower_bound(inst)
        assert expected == 0.96 * held_karp_tsp(inst).value  # the lightest level binds
        tables = _record_calls(monkeypatch, "_held_karp_layers")
        levels = _record_calls(monkeypatch, "_exact_levels")
        assert lower_bound(inst).hex() == expected.hex()
        assert [len(sub) for sub, in tables] == [12, 16]
        assert [ends for _, _, ends, _ in levels] == [[12], [13, 14, 15, 16]]

    def test_overflowed_first_table_gives_inf(self):
        # 14 points pairwise 1e308 apart: every tour of the 12 heaviest
        # overflows, so the first table has no finite tour to walk back
        dist = np.full((14, 14), 1e308)
        np.fill_diagonal(dist, 0.0)
        inst = make_instance([f"p{i}" for i in range(14)], [1.0] * 12 + [0.5] * 2, dist)
        assert lower_bound(inst) == reference_incremental_lower_bound(inst) == math.inf

    def test_single_level_computes_no_leaf_distances(self, monkeypatch):
        leaves = _record_calls(monkeypatch, "_leaf_distances")
        for n in (17, 40):
            lower_bound(random_instance(3, n, "equal"))
        assert leaves == []

    def test_levels_the_tour_rules_out_take_no_leaf_distances(self, monkeypatch):
        # two points of weight 1 a unit apart and 30 far lighter ones
        # around the first: each MST level's weight times a tour through
        # all points is below the diameter, so no leaf row is gathered
        rng = np.random.default_rng(2)
        coords = np.concatenate([[[0.0, 0.0], [1.0, 0.0]], 0.01 * rng.uniform(size=(30, 2))])
        dist = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1))
        weights = np.concatenate([[1.0, 1.0], rng.uniform(0.005, 0.01, size=30)])
        inst = make_instance([f"p{i}" for i in range(32)], weights, dist)
        leaves = _record_calls(monkeypatch, "_leaf_distances")
        assert lower_bound(inst) == reference_incremental_lower_bound(inst)
        assert leaves == []

    def test_leaf_bound_keeps_its_rounding_margin(self):
        # point 0 at distance 1 from 17 points spaced u = 2**-53 apart, the
        # last of them lighter.  Summed in ranked order, the top level's
        # leaf distances 1, u, ..., u round to 1, the diameter; Kruskal
        # sums the same tree u first, to 1 + 8 eps.  Only the margin keeps
        # the leaf test from skipping the level that sets the bound.
        u = 2.0 ** -53
        at = np.arange(18)
        dist = np.abs(at[:, None] - at) * u
        dist[0, 1:] = dist[1:, 0] = 1.0
        inst = make_instance([f"p{i}" for i in range(18)], [1.0] * 17 + [0.5], dist)
        assert reference_incremental_lower_bound(inst) == 1.0 + 8 * np.finfo(float).eps
        assert lower_bound(inst) == 1.0 + 8 * np.finfo(float).eps
