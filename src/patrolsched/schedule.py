"""Periodic visit schedules and absence-based costs.

A :class:`Schedule` is one period of a cyclic walk, given as the sequence of
points visited; travel time between consecutive visits is the metric distance
and the walk wraps around from the last visit to the first.  The cost of a
schedule at a point is a function of that point's *absence lengths*: the
travel times between its consecutive visits within one period (cyclically).

Two costs matter most:

* ``p = inf`` — the longest absence (worst-case time away), and
* ``p = 2``  — sum(l^2) / sum(l), which is twice the mean time until the next
  visit seen from a uniformly random moment in the period.

Generic finite ``p >= 2`` is supported as ``sum(l^p) / sum(l^(p-1))``.
A point that never appears in the schedule has unbounded cost, reported as the
explicit value :data:`UNBOUNDED` (``math.inf``), never as an error.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

from .instance import Instance, _check_points, _finite, _label_points, _point_indices

UNBOUNDED = math.inf


def _collapse(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Drop immediate repeats, including across the cyclic wrap-around."""
    out = [v for v, before in zip(seq, (None, *seq)) if v != before]
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Schedule:
    """One period of a cyclic visit sequence (point indices).

    Visits are integers (``int``, ``bool`` or numpy integers); any other
    visit raises ValueError.  Immediate repeats are collapsed on
    construction, cyclically, so two consecutive visits are always distinct
    unless the schedule is a single visit.
    """

    visits: tuple[int, ...]

    def __post_init__(self) -> None:
        visits = _point_indices(self.visits, "schedule visit")
        if not visits:
            raise ValueError("a schedule must contain at least one visit")
        object.__setattr__(self, "visits", _collapse(visits))

    def __len__(self) -> int:
        return len(self.visits)


def _hops(s: Schedule, inst: Instance) -> list[float]:
    """The travel time from each visit to the next, the wrap-around hop last."""
    v = _check_points(inst, s.visits)
    return inst.dist[v, np.concatenate((v[1:], v[:1]))].tolist()


def _visit_times(hops: Sequence[float]) -> list[float]:
    """Every visit's time, then the period: 0.0, then the running sums of ``hops``.

    The hops are folded left to right, the wrap-around hop last; every
    period in the package is this sum, and one that overflows is refused.
    """
    times = [0.0, *accumulate(hops)]
    _finite(times[-1], "schedule period")
    return times


def period_length(s: Schedule, inst: Instance) -> float:
    """Total travel time of one period, including the wrap-around hop (added last)."""
    return _visit_times(_hops(s, inst))[-1]


def _profiles(visits: Sequence[int], hops: Sequence[float],
              n: int) -> tuple[list[list[float] | None], float]:
    """Absence profile of every point and the period, in one walk.

    ``hops[i]`` is the travel time from ``visits[i]`` to the next visit, the
    wrap-around hop last.  ``profiles[x]`` lists x's gaps in order of
    occurrence from its first visit, the wrap-around gap
    ``(period - last) + first`` last, and is None if ``x`` never appears.
    """
    *times, period = _visit_times(hops)
    profiles: list[list[float] | None] = [None] * n
    first = [0.0] * n
    last = [0.0] * n
    for x, t in zip(visits, times):
        gaps = profiles[x]
        if gaps is None:
            profiles[x] = []
            first[x] = t
        else:
            gaps.append(t - last[x])
        last[x] = t
    for x, gaps in enumerate(profiles):
        if gaps is not None:
            gaps.append((period - last[x]) + first[x])
    return profiles, period


def _walk(s: Schedule, inst: Instance) -> tuple[list[list[float] | None], float]:
    """:func:`_profiles` of a schedule on ``inst``."""
    return _profiles(s.visits, _hops(s, inst), inst.n)


def absence_profile(s: Schedule, x: int, inst: Instance) -> list[float] | None:
    """Cyclic absence lengths of point ``x``, or None if ``x`` is unvisited.

    The profile always sums to the period length.  An ``x`` that is not a
    point index of ``inst`` raises ValueError.
    """
    x = _check_points(inst, _point_indices((x,), "point"))[0]
    return _walk(s, inst)[0][x]


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 2.0:
        raise ValueError(f"cost order p must be >= 2 or inf, got {p!r}")
    return p


def _cost_of_gaps(gaps: list[float] | None, p: float) -> float:
    """sum(l^p) / sum(l^(p-1)) over ``gaps``, the max gap for p = inf.

    A finite-p cost is at most the largest gap in exact arithmetic, so the
    quotient is clamped to it: rounding never puts a cost above the point's
    cost at p = inf (with one gap l, l^p / l^(p-1) can round to l + 1 ulp).

    When sum(l^p) is not a finite normal float and some gap is positive, a
    power or their sum left the float range: the cost is taken on the gaps
    divided by the largest one and multiplied back, so tiny distances never
    cost a silent 0 and huge ones never an overflow.
    """
    if gaps is None:
        return UNBOUNDED
    if math.isinf(p):
        return max(gaps)
    num = 0.0
    den = 0.0
    try:
        if p == 2.0:
            for g in gaps:
                num += g * g
                den += g
        else:
            for g in gaps:
                num += g ** p
                den += g ** (p - 1.0)
    except OverflowError:
        num = math.inf
    if not sys.float_info.min <= num < math.inf:  # every gap is 0 (a single visit), or out of range
        top = max(gaps)
        return 0.0 if top == 0.0 else _cost_of_gaps([g / top for g in gaps], p) * top
    return min(num / den, max(gaps))


def point_cost(s: Schedule, x: int, inst: Instance, p: float) -> float:
    """Absence cost of point ``x``: max gap for p=inf, sum(l^p)/sum(l^(p-1)) else.

    Returns :data:`UNBOUNDED` when ``x`` is not visited.  An ``x`` that is
    not a point index of ``inst`` raises ValueError.
    """
    p = _validate_p(p)
    return _cost_of_gaps(absence_profile(s, x, inst), p)


def point_costs(s: Schedule, inst: Instance, ps: Sequence[float]) -> list[list[float]]:
    """Every point's :func:`point_cost` for each order in ``ps``, from one
    profile pass: ``point_costs(s, inst, ps)[i][x]`` is x's cost at ``ps[i]``."""
    ps = [_validate_p(p) for p in ps]
    profiles, _ = _walk(s, inst)
    return [[_cost_of_gaps(g, p) for g in profiles] for p in ps]


def worst_weighted(costs: Sequence[float], inst: Instance) -> float:
    """max over points x of weight(x) * costs[x]; 0.0 for no positive term.

    ``costs`` holds one cost per point; any other length raises ValueError.
    """
    if len(costs) != inst.n:
        raise ValueError(f"expected {inst.n} point costs, got {len(costs)}")
    best = 0.0
    for w, c in zip(inst.weights.tolist(), costs):
        wc = w * c
        if wc > best:
            best = wc
    return best


def weighted_objective(s: Schedule, inst: Instance, p: float) -> float:
    """max over points x of weight(x) * point_cost(x).

    :data:`UNBOUNDED` as soon as any point is unvisited.
    """
    return worst_weighted(point_costs(s, inst, [p])[0], inst)


def schedule_from_document(doc: Any, inst: Instance) -> Schedule:
    """Build a Schedule from a ``{"visits": [label, ...]}`` document.

    Every visit is resolved in one lookup over the instance's labels; the
    first visit that is not a string, or names no point, raises ValueError.
    """
    if not isinstance(doc, dict) or "visits" not in doc:
        raise ValueError("schedule document must be an object with a 'visits' array")
    visits = doc["visits"]
    if not isinstance(visits, list) or not visits:
        raise ValueError("'visits' must be a non-empty array of point labels")
    return Schedule(_label_points(inst, visits, "schedule visits"))


def schedule_to_document(s: Schedule, inst: Instance) -> dict[str, Any]:
    return {"visits": [inst.labels[v] for v in _check_points(inst, s.visits).tolist()]}
