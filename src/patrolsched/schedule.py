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
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .instance import Instance

UNBOUNDED = math.inf


def _collapse(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Drop immediate repeats, including across the cyclic wrap-around."""
    out: list[int] = []
    for v in seq:
        if not out or out[-1] != v:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Schedule:
    """One period of a cyclic visit sequence (point indices).

    Immediate repeats are collapsed on construction, cyclically, so two
    consecutive visits are always distinct unless the schedule is a single
    visit.
    """

    visits: tuple[int, ...]

    def __post_init__(self) -> None:
        visits = tuple(int(v) for v in self.visits)
        if not visits:
            raise ValueError("a schedule must contain at least one visit")
        object.__setattr__(self, "visits", _collapse(visits))

    def __len__(self) -> int:
        return len(self.visits)


def _check_points(visits: Sequence[int], n: int) -> np.ndarray:
    """The visits as an index array; ValueError names the first unknown index."""
    v = np.array(visits, dtype=np.intp)
    if v.min() < 0 or v.max() >= n:
        bad = np.flatnonzero((v < 0) | (v >= n))
        raise ValueError(f"schedule refers to unknown point index {visits[bad[0]]}")
    return v


def _hop_sums(v: np.ndarray, inst: Instance) -> tuple[np.ndarray, float]:
    """Running sums of the hops from ``v[0]`` and the period they end in.

    The hops are folded left to right in visit order, the wrap-around hop
    last, so the last running sum is the period.  Every period in the
    package is this sum.
    """
    with np.errstate(over="ignore"):
        cum = inst.dist[v, np.concatenate((v[1:], v[:1]))].cumsum()
    period = float(cum[-1])
    if not math.isfinite(period):
        raise ValueError(f"schedule period overflows to {period}: "
                         f"the travel times are too long to add up in floating point")
    return cum, period


def period_length(s: Schedule, inst: Instance) -> float:
    """Total travel time of one period, including the wrap-around hop (added last)."""
    return _hop_sums(_check_points(s.visits, inst.n), inst)[1]


def _profiles(visits: Sequence[int], inst: Instance) -> tuple[np.ndarray, np.ndarray, float]:
    """Absence profile of every point in one pass: (gaps, starts, period).

    ``gaps[starts[x]:starts[x+1]]`` are the cyclic gaps between consecutive
    visits of ``x`` (empty if ``x`` never appears), in order of occurrence
    starting from x's first visit, so the wrap-around gap comes last.
    Visit times and the period are the running sums of ``_hop_sums``.
    """
    v = _check_points(visits, inst.n)
    cum, period = _hop_sums(v, inst)
    ts = np.concatenate(((0.0,), cum[:-1]))[v.argsort(kind="stable")]
    starts = np.zeros(inst.n + 1, dtype=np.intp)
    np.bincount(v, minlength=inst.n).cumsum(out=starts[1:])
    gaps = np.empty_like(ts)
    np.subtract(ts[1:], ts[:-1], out=gaps[:-1])
    visited = starts[1:] > starts[:-1]
    last = starts[1:][visited] - 1
    gaps[last] = (period - ts[last]) + ts[starts[:-1][visited]]
    return gaps, starts, period


def absence_profile(s: Schedule, x: int, inst: Instance) -> list[float] | None:
    """Cyclic absence lengths of point ``x``, or None if ``x`` is unvisited.

    The profile always sums to the period length.
    """
    gaps, starts, _ = _profiles(s.visits, inst)
    if not 0 <= x < inst.n:
        raise ValueError(f"unknown point index {x}")
    return gaps[starts[x]:starts[x + 1]].tolist() or None


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 2.0:
        raise ValueError(f"cost order p must be >= 2 or inf, got {p!r}")
    return p


def _cost_of_gaps(gaps: list[float] | None, p: float) -> float:
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
    if math.isinf(num):  # a power, or the sum of the powers, passed the float range
        raise ValueError(f"absence cost at p={p:g} overflows: the absence lengths "
                         f"to the power p exceed the float range")
    if den == 0.0:
        return 0.0  # only when every gap is 0 (single-visit schedule)
    return num / den


def point_cost(s: Schedule, x: int, inst: Instance, p: float) -> float:
    """Absence cost of point ``x``: max gap for p=inf, sum(l^p)/sum(l^(p-1)) else.

    Returns :data:`UNBOUNDED` when ``x`` is not visited.
    """
    p = _validate_p(p)
    return _cost_of_gaps(absence_profile(s, x, inst), p)


def point_costs(s: Schedule, inst: Instance, ps: Sequence[float]) -> list[list[float]]:
    """Every point's :func:`point_cost` for each order in ``ps``, from one
    profile pass: ``point_costs(s, inst, ps)[i][x]`` is x's cost at ``ps[i]``."""
    ps = [_validate_p(p) for p in ps]
    gaps, starts, _ = _profiles(s.visits, inst)
    flat, bounds = gaps.tolist(), starts.tolist()
    profiles = [flat[i:j] or None for i, j in zip(bounds, bounds[1:])]
    return [[_cost_of_gaps(g, p) for g in profiles] for p in ps]


def worst_weighted(costs: Sequence[float], inst: Instance) -> float:
    """max over points x of weight(x) * costs[x]; 0.0 for no positive term."""
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
    """Build a Schedule from a ``{"visits": [label, ...]}`` document."""
    if not isinstance(doc, dict) or "visits" not in doc:
        raise ValueError("schedule document must be an object with a 'visits' array")
    visits = doc["visits"]
    if not isinstance(visits, list) or not visits:
        raise ValueError("'visits' must be a non-empty array of point labels")
    return Schedule(tuple(inst.index(str(lab)) for lab in visits))


def schedule_to_document(s: Schedule, inst: Instance) -> dict[str, Any]:
    _check_points(s.visits, inst.n)
    return {"visits": [inst.labels[v] for v in s.visits]}
