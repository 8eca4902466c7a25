"""Schedule planner: weight classes, per-class tree covers, interleaved tours.

The pipeline turns an instance into one periodic schedule whose weighted
max-absence is within an O(log n) factor of the best possible:

1. round every weight down to a power of two; points of rounded weight 2^-i
   form class i, which is allotted theta_i = min(|class i|, 2^i) trees;
2. cover each class with a min-max tree cover of theta_i trees and shortcut
   every tree to a tour (so heavy points sit on few short tours, light
   points on many);
3. enumerate the tours with the heaviest class first and slice the sequence
   into lists L_0, L_1, ... of geometrically growing length; list L_i is
   cycled through with period lambda_i (1, 2, 4, ... tours per slot);
4. emit lcm(lambda_i) phases, each phase running one tour from every list,
   so a tour in L_i repeats every lambda_i phases — heavy points are
   revisited often, light points proportionally to their weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .instance import Instance
from .mst import euler_shortcut
from .oracle import lower_bound
from .schedule import Schedule, point_costs, worst_weighted
from .treecover import TreeCover, minmax_tree_cover


@dataclass(frozen=True)
class WeightClass:
    """Points whose weight rounds down to the same power of two."""

    index: int  # rounded weight is 2**-index
    rounded_weight: float
    members: tuple[int, ...]
    theta: int  # number of trees this class is allotted: min(|members|, 2**index)


@dataclass(frozen=True)
class TourList:
    """A slot in the phase rotation: ``tours[j % lam]`` runs in phase j."""

    index: int
    tours: tuple[Schedule, ...]
    lam: int


@dataclass(frozen=True)
class PlanResult:
    schedule: Schedule
    classes: tuple[WeightClass, ...]
    covers: dict[int, TreeCover]  # class index -> cover
    lists: tuple[TourList, ...]
    I: int  # last list index; len(lists) == I + 1
    J: int  # total number of tours
    phases: int
    diagnostics: dict[str, Any]


def class_index(weight: float) -> int:
    """The unique i with 2^-i <= weight < 2^-(i-1), exact for any float."""
    if not 0.0 < weight <= 1.0:
        raise ValueError(f"weights must lie in (0, 1], got {weight!r}")
    mantissa, exp = math.frexp(weight)  # weight = mantissa * 2**exp, mantissa in [0.5, 1)
    return 1 - exp


def round_weights(inst: Instance) -> tuple[WeightClass, ...]:
    """Round weights down to powers of two and group points into classes.

    Returns the non-empty classes in increasing index order, i.e. heaviest
    first.  Objectives are always evaluated against the original weights.
    """
    groups: dict[int, list[int]] = {}
    for x, w in enumerate(inst.weights.tolist()):
        groups.setdefault(class_index(w), []).append(x)
    return tuple(
        WeightClass(index=i,
                    rounded_weight=math.ldexp(1.0, -i),
                    members=tuple(members),
                    theta=min(len(members), 1 << i))
        for i, members in sorted(groups.items())
    )


def build_class_tours(inst: Instance, classes: tuple[WeightClass, ...]
                      ) -> tuple[list[Schedule], dict[int, TreeCover]]:
    """Cover each class with theta trees and shortcut each tree to a tour.

    Tours are enumerated heaviest class first; within a class they follow the
    cover's tree order.  Every tour starts at its tree's lowest point index.
    """
    tours: list[Schedule] = []
    covers: dict[int, TreeCover] = {}
    for cls in classes:
        cover = minmax_tree_cover(inst, cls.members, cls.theta)
        covers[cls.index] = cover
        for tree in cover.trees:
            tours.append(euler_shortcut(tree, min(tree.vertices)))
    return tours, covers


def build_lists(tours: list[Schedule]) -> tuple[TourList, ...]:
    """Slice tours 1..J into lists of size 1, 2, 4, ...; list i repeats
    every lambda_i phases.

    With I = ceil(log2(J+1)) - 1: list i < I holds tours 2^i..2^(i+1)-1 with
    lambda_i = 2^i, and the last list holds the remaining tours with
    lambda_I = J + 1 - 2^I (between 1 and 2^I).
    """
    J = len(tours)
    if J == 0:
        raise ValueError("cannot build tour lists from zero tours")
    I = J.bit_length() - 1  # == ceil(log2(J+1)) - 1
    lists = []
    for i in range(I):
        lists.append(TourList(index=i,
                              tours=tuple(tours[(1 << i) - 1:(1 << (i + 1)) - 1]),
                              lam=1 << i))
    lists.append(TourList(index=I, tours=tuple(tours[(1 << I) - 1:]),
                          lam=J + 1 - (1 << I)))
    assert all(len(tl.tours) == tl.lam for tl in lists)
    return tuple(lists)


def emit_schedule(lists: tuple[TourList, ...]) -> tuple[Schedule, int]:
    """Concatenate lcm(lambda_i) phases; phase j runs tour j % lambda_i of
    every list, heaviest list first.  Returns the schedule and its phase
    count."""
    phases = math.lcm(*(tl.lam for tl in lists))
    visits: list[int] = []
    for j in range(phases):
        for tl in lists:
            visits.extend(tl.tours[j % tl.lam].visits)
    return Schedule(tuple(visits)), phases


def plan(inst: Instance) -> PlanResult:
    """Full pipeline; diagnostics carry objectives, the certified lower
    bound, and the per-run invariant checks."""
    classes = round_weights(inst)
    tours, covers = build_class_tours(inst, classes)
    lists = build_lists(tours)
    schedule, phases = emit_schedule(lists)
    J = len(tours)
    I = len(lists) - 1

    obj_inf, obj_2 = (worst_weighted(costs, inst)
                      for costs in point_costs(schedule, inst, [math.inf, 2.0]))
    lb = lower_bound(inst)
    for name, value in (("objective_inf", obj_inf), ("objective_2", obj_2),
                        ("lower_bound", lb)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite ({value!r}): the distances "
                             "are too large to sum in floating point")
    ratio = obj_inf / lb if lb > 0.0 else 0.0  # lb is 0 only for one point, planned at 0
    limit = 18.0 * (I + 1)

    diagnostics: dict[str, Any] = {
        "objective_inf": obj_inf,
        "objective_2": obj_2,
        "lower_bound": lb,
        "envelope_ratio": ratio,
        "envelope_limit": limit,
        "envelope_ok": obj_inf <= limit * lb,
        "all_points_visited": set().union(*(set(t.visits) for t in tours)) == set(range(inst.n)),
        "list_weight_ok": _check_list_weights(lists, classes),
        "tree_budget_ok": _check_tree_budgets(classes, covers),
    }
    return PlanResult(schedule=schedule, classes=classes, covers=covers,
                      lists=lists, I=I, J=J, phases=phases, diagnostics=diagnostics)


def _check_list_weights(lists: tuple[TourList, ...],
                        classes: tuple[WeightClass, ...]) -> bool:
    """Every point on a tour in list i has rounded weight <= 2^-i.

    Holds because classes are enumerated heaviest first and class c
    contributes at most 2^c tours, so its tours sit at positions below
    2^(c+1), i.e. in lists 0..c.
    """
    point_class = {}
    for cls in classes:
        for x in cls.members:
            point_class[x] = cls.index
    for tl in lists:
        for tour in tl.tours:
            for x in tour.visits:
                if point_class[x] < tl.index:
                    return False
    return True


def _check_tree_budgets(classes: tuple[WeightClass, ...],
                        covers: dict[int, TreeCover]) -> bool:
    """theta_i * (max tree cost) <= 4 * MST(class i) for every class.

    This is what makes the emitted schedule comparable to the lower bound:
    a class's tree budget never exceeds a constant times the cheapest way to
    span the class.  Each cover carries its class's MST cost.
    """
    for cls in classes:
        cover = covers[cls.index]
        if cls.theta * cover.max_cost > 4.0 * cover.mst_cost:
            return False
    return True
