"""The input contract, as a property: every command, given a valid instance,
schedule and strategy with one of them mutated, either runs or fails with
exit code 1 or 2 and one ``error:`` line, and never lets an exception or a
warning out.

Each example writes the three documents, mutates one of them at one node and
runs ``validate``, ``plan``, ``eval``, ``attack``, ``mix``, ``treecover --k 2``
and ``oracle-tsp`` in-process.  A warning counts as stderr output, because
the installed command prints it there.

Below the commands, each library function refuses an argument out of its
domain with a ValueError that names it, instead of reading past it.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolsched import (RandomSpec, Schedule, Tree, absence_profile, brute_force_weighted_opt,
                         decompose_tree, euler_shortcut, expected_return_time, generate_random,
                         held_karp_tsp, instance_from_document, minimum_spanning_tree,
                         minmax_tree_cover, partition_tree_cover_oracle, point_cost,
                         success_probability, try_budget, validate_metric, worst_weighted)
from patrolsched.cli import main
from patrolsched.oracle import BRUTE_FORCE_MAX_PERIOD
from patrolsched.planner import build_lists
from conftest import random_instance

# Values written in place of the mutated node.
VALUES = {"string": "x", "number": 7, "bool": True, "null": None, "empty-array": [],
          "empty-object": {}, "nan": math.nan, "infinity": math.inf,
          "-infinity": -math.inf}

# JSON text spliced in place of the mutated node: what json.dumps cannot
# write (a 5,000-digit integer) or would take too deep a recursion to.
RAW = {"int-401": "1" + "0" * 400, "int-5000": "1" + "0" * 4999,
       "deep-1000": "[" * 1000 + "]" * 1000, "deep-100000": "[" * 100_000 + "]" * 100_000}

# "repeat" makes every item of a list its first item (duplicate labels when
# the node is the instance's labels); "0xff" puts that byte before the text.
MUTANTS = (*VALUES, *RAW, "repeat", "0xff")

KINDS = ("instance", "schedule", "strategy")
SPLICE = "@@splice@@"


def documents(n: int, seed: int, metric: str) -> dict[str, object]:
    """A valid instance (explicit or euclidean metric), schedule and strategy.

    Generated instances have at least three points, so one- and two-point
    instances are built by hand.
    """
    if n >= 3:
        inst = random_instance(seed, n)
    else:
        inst = instance_from_document({
            "labels": ["p0", "p1"][:n], "weights": [1.0, 0.5][:n],
            "metric": {"type": "euclidean", "coords": [[0.0, 0.0], [3.0, 4.0 + seed]][:n]}})
    doc = inst.to_document()
    if metric == "explicit":
        doc["metric"] = {"type": "explicit", "dist": inst.dist.tolist()}
    labels = doc["labels"]
    return {"instance": doc,
            "schedule": {"visits": labels},
            "strategy": {"entries": [{"schedule": {"visits": labels}, "prob": 0.5},
                                     {"schedule": {"visits": labels[::-1]}, "prob": 0.5}]}}


def node_paths(doc, path=()):
    """The key path of every node of ``doc``, the root first."""
    yield path
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from node_paths(doc[key], (*path, key))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from node_paths(item, (*path, i))


def mutated(doc, path, mutant: str) -> bytes:
    """``doc`` as file bytes, with ``mutant`` applied at ``path``."""
    holder = {"root": copy.deepcopy(doc)}
    *parents, last = ("root", *path)
    parent = holder
    for key in parents:
        parent = parent[key]
    node = parent[last]
    if mutant == "repeat":
        if isinstance(node, list):
            parent[last] = node[:1] * len(node)
    elif mutant in RAW:
        parent[last] = SPLICE
    elif mutant != "0xff":
        parent[last] = VALUES[mutant]
    text = json.dumps(holder["root"]).replace(json.dumps(SPLICE), RAW.get(mutant, ""))
    return (b"\xff" if mutant == "0xff" else b"") + text.encode()


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(KINDS))
    n, seed = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    metric = draw(st.sampled_from(("explicit", "euclidean")))
    doc = documents(n, seed, metric)[kind]
    path = draw(st.sampled_from(list(node_paths(doc))))
    return kind, n, seed, metric, path, draw(st.sampled_from(MUTANTS))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(case=mutations())
# a strategy probability past the float range once printed a traceback from mix
@example(case=("strategy", 3, 0, "explicit", ("entries", 0, "prob"), "int-401"))
@example(case=("instance", 4, 1, "explicit", ("labels",), "repeat"))
# an infinite coordinate once printed numpy's RuntimeWarning before the error line
@example(case=("instance", 3, 0, "euclidean", ("metric", "coords", 1, 0), "infinity"))
@example(case=("instance", 3, 0, "explicit", ("weights", 2), "int-5000"))
@example(case=("schedule", 5, 2, "explicit", ("visits", 1), "deep-1000"))
# mix on a one-point instance once printed a UserWarning about its zero cost
@example(case=("schedule", 1, 0, "euclidean", ("visits", 0), "number"))
@example(case=("instance", 2, 1, "explicit", ("metric", "dist", 0, 1), "number"))
def test_every_command_runs_or_fails_with_one_error_line(workdir, case):
    kind, n, seed, metric, path, mutant = case
    files = {}
    for name, doc in documents(n, seed, metric).items():
        files[name] = workdir / f"{name}.json"
        files[name].write_bytes(mutated(doc, path, mutant) if name == kind
                                else json.dumps(doc).encode())
    inst, sched, strat = (str(files[name]) for name in KINDS)
    for argv in (["validate", inst], ["plan", inst], ["eval", inst, sched],
                 ["attack", inst, sched], ["mix", inst, strat],
                 ["treecover", inst, "--k", "2"], ["oracle-tsp", inst]):
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, code)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert len(lines) <= 1, (argv, lines)
        assert all(line.startswith("error: ") for line in lines), (argv, lines)


# The unit triangle's three edges: a cycle, so not a tree.
TRIANGLE_CYCLE = Tree((0, 1, 2), ((0, 1), (1, 2), (0, 2)), 3.0)


# Without its check, point -1 would silently read the last point's profile.
@pytest.mark.parametrize("call, message", [
    (lambda inst: absence_profile(Schedule((0, 1, 2)), -1, inst), "unknown point index -1"),
    (lambda inst: absence_profile(Schedule((0, 1, 2)), inst.n, inst), "unknown point index 3"),
    (lambda inst: success_probability(Schedule((0, 1, 2)), inst, -1, 1.0),
     "unknown point index -1"),
    (lambda inst: success_probability(Schedule((0, 1, 2)), inst, inst.n, 1.0),
     "unknown point index 3"),
    (lambda inst: validate_metric(np.zeros((2, 3))),
     "distance matrix must be square, got shape (2, 3)"),
    (lambda inst: RandomSpec(n=5, geometry="torus"), "unknown geometry 'torus'; pick one of"),
    (lambda inst: minimum_spanning_tree(inst, []), "subset must be non-empty"),
    (lambda inst: held_karp_tsp(inst, [0.5, 1.7, 2.2]), "subset entry 0.5 is not a point index"),
    (lambda inst: minmax_tree_cover(inst, [0, 1, 2.0], 2),
     "subset entry 2.0 is not a point index"),
    (lambda inst: minimum_spanning_tree(inst, (x for x in [0, 1.5])),
     "subset entry 1.5 is not a point index"),
    (lambda inst: brute_force_weighted_opt(inst, math.inf, BRUTE_FORCE_MAX_PERIOD + 1),
     f"brute force is limited to period {BRUTE_FORCE_MAX_PERIOD}, "
     f"got {BRUTE_FORCE_MAX_PERIOD + 1}"),
    (lambda inst: build_lists([]), "cannot build tour lists from zero tours"),
    # a float point or count is refused, never truncated or rounded to an integer
    (lambda inst: absence_profile(Schedule((0, 1, 2)), 1.5, inst),
     "point 1.5 is not a point index"),
    (lambda inst: point_cost(Schedule((0, 1, 2)), 1.0, inst, 2.0),
     "point 1.0 is not a point index"),
    (lambda inst: success_probability(Schedule((0, 1, 2)), inst, 0.5, 1.0),
     "point 0.5 is not a point index"),
    (lambda inst: expected_return_time(Schedule((0, 1, 2)), inst, 2.0),
     "point 2.0 is not a point index"),
    (lambda inst: minmax_tree_cover(inst, None, 2.5), "k must be an integer, got 2.5"),
    (lambda inst: try_budget(inst, None, 1.5, 1.0), "k must be an integer, got 1.5"),
    (lambda inst: partition_tree_cover_oracle(inst, None, 2.5), "k must be an integer, got 2.5"),
    (lambda inst: brute_force_weighted_opt(inst, math.inf, 6.0),
     "max_period must be an integer, got 6.0"),
    (lambda inst: RandomSpec(n=5.0), "n must be an integer, got 5.0"),
    # zip would stop at the shorter list and drop the points past it
    (lambda inst: worst_weighted([1.0], inst), "expected 3 point costs, got 1"),
    (lambda inst: decompose_tree(inst, Tree((0, 9), ((0, 9),), 1.0), 1.0),
     "unknown point index 9"),
    (lambda inst: decompose_tree(inst, Tree((0, 1.5), ((0, 1.5),), 1.0), 1.0),
     "tree edge end 1.5 is not a point index"),
    # a numpy array has __index__, yet operator.index refuses it
    (lambda inst: Schedule(np.array([[0, 1], [1, 2]])),
     "schedule visit array([0, 1]) is not a point index"),
    (lambda inst: held_karp_tsp(inst, [np.array([0, 1])]),
     "subset entry array([0, 1]) is not a point index"),
    (lambda inst: euler_shortcut(Tree((0, 1), ((0, 1),), 1.0), np.array([0, 1])),
     "start vertex array([0, 1]) is not a point index"),
    (lambda inst: absence_profile(Schedule((0, 1, 2)), np.array([0, 1]), inst),
     "point array([0, 1]) is not a point index"),
    # a Tree that is not a tree: a cycle once hung decompose_tree, a missing
    # edge dropped a point from the tour, a foreign edge end raised KeyError
    (lambda inst: euler_shortcut(TRIANGLE_CYCLE, 0),
     "tree edge count 3 is not its vertex count 3 minus 1"),
    (lambda inst: euler_shortcut(Tree((0, 1, 2), ((0, 1),), 1.0), 0),
     "tree edge count 1 is not its vertex count 3 minus 1"),
    (lambda inst: euler_shortcut(Tree((0, 1), ((0, 1), (0, 1)), 2.0), 0),
     "tree edge count 2 is not its vertex count 2 minus 1"),
    (lambda inst: euler_shortcut(Tree((0,), ((0, 1),), 1.0), 0),
     "tree edge end 1 is not a tree vertex"),
    (lambda inst: euler_shortcut(Tree((0, 1, 2), ((0, 1), (0, 1)), 2.0), 0),
     "tree edges reach 2 of its 3 vertices from 0"),
    (lambda inst: euler_shortcut(Tree((0, 1), ((0, 1),), 1.0), 2),
     "start vertex 2 is not in the tree"),
    (lambda inst: decompose_tree(inst, TRIANGLE_CYCLE, 1.0),
     "tree edge count 3 is not its vertex count 3 minus 1"),
    # its stated cost is below 2 * budget: the check comes before that early return
    (lambda inst: decompose_tree(inst, Tree((0, 1, 2), ((0, 1),), 1.0), 1.0),
     "tree edge count 1 is not its vertex count 3 minus 1"),
    (lambda inst: decompose_tree(inst, Tree((0, 1), ((0, 1), (0, 1)), 2.0), 1.0),
     "tree edge count 2 is not its vertex count 2 minus 1"),
    (lambda inst: decompose_tree(inst, Tree((0,), ((0, 1),), 5.0), 1.0),
     "tree edge end 1 is not a tree vertex"),
    (lambda inst: decompose_tree(inst, Tree((0, 1, 2), ((0, 1), (0, 1)), 2.0), 1.0),
     "tree edges reach 2 of its 3 vertices from 0"),
    (lambda inst: decompose_tree(inst, Tree((), (), 0.0), 1.0),
     "tree edge count 0 is not its vertex count 0 minus 1"),
], ids=["profile-at-minus-1", "profile-at-n", "success-at-minus-1", "success-at-n",
        "non-square-metric", "unknown-geometry", "empty-mst-subset",
        "float-tsp-subset", "float-cover-subset", "float-mst-subset-iterator",
        "brute-force-period", "no-tours", "float-profile-point", "float-cost-point",
        "float-success-point", "float-return-time-point", "float-cover-k",
        "float-try-budget-k", "float-oracle-k", "float-max-period", "float-random-n",
        "short-costs", "foreign-tree-point", "float-tree-point", "array-schedule-visit",
        "array-tsp-subset", "array-start-vertex", "array-profile-point", "euler-cycle",
        "euler-missing-edge", "euler-repeated-edge", "euler-foreign-edge-end",
        "euler-split-tree", "euler-foreign-start", "decompose-cycle", "decompose-missing-edge", "decompose-repeated-edge",
        "decompose-foreign-edge-end", "decompose-split-tree", "decompose-no-vertex"])
def test_library_names_an_argument_out_of_its_domain(unit_triangle, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(unit_triangle)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
def test_cover_and_its_oracle_reject_the_same_non_integer_k(k):
    """Acceptance 4 compares the two at one k: neither may read 2.5 as 2
    or as 3, so both refuse it with the same line."""
    inst = generate_random(RandomSpec(n=8), 1)
    with pytest.raises(ValueError) as cover:
        minmax_tree_cover(inst, None, k)
    with pytest.raises(ValueError) as oracle:
        partition_tree_cover_oracle(inst, None, k)
    assert str(cover.value) == str(oracle.value) == f"k must be an integer, got {k!r}"
