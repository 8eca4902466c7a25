"""Attack analysis against periodic schedules, and mixing tour distributions.

The threat model: an attacker picks a target point x and an attack duration
t, then strikes at a moment chosen uniformly at random over the defender's
period.  The attack succeeds if the defender stays away from x for the full
duration, i.e. lands inside an absence interval with more than t remaining;
a successful attack is worth ``weight(x) * t``.

For a fixed schedule the attacker's best response is computable in closed
form because the success probability is piecewise linear in t.  The expected
utility of the best response is bracketed by the quadratic absence cost:
``w * C2 / 8 <= best utility <= w * C2 / 2`` — so a defender minimizing the
quadratic cost is minimizing attacker value up to a factor 4.

``mix_tours`` turns a probability distribution over tours into one periodic
schedule whose quadratic cost at every point is at most 8 times the mixture's
expected cost, by concatenating carefully chosen repeat counts of the
highest-probability tours.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any

from .instance import Instance
from .schedule import (Schedule, UNBOUNDED, _cost_of_gaps, _profiles,
                       period_length, schedule_from_document,
                       schedule_to_document)

PROB_TOL = 1e-9


@dataclass(frozen=True)
class AttackOutcome:
    """An attack plan (target, duration) and its expected utility."""

    target: int
    duration: float
    utility: float


@dataclass(frozen=True)
class MixedStrategy:
    """Finite probability distribution over schedules."""

    entries: tuple[tuple[Schedule, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a mixed strategy needs at least one schedule")
        total = 0.0
        for _, prob in self.entries:
            if not prob > 0.0:
                raise ValueError(f"strategy probabilities must be positive, got {prob!r}")
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"strategy probabilities must sum to 1, got {total!r}")


def success_probability(s: Schedule, inst: Instance, x: int, t: float) -> float:
    """Probability that an attack of duration ``t`` on ``x`` succeeds.

    Equals sum(max(l - t, 0)) / period over x's absence lengths l.  An
    unvisited target is never interrupted: probability 1 for every t.
    """
    if t < 0.0:
        raise ValueError(f"attack duration must be nonnegative, got {t!r}")
    if not 0 <= x < inst.n:
        raise ValueError(f"unknown point index {x}")
    profiles, period = _profiles(s.visits, inst.dist.tolist(), inst.n)
    gaps = profiles[x]
    if gaps is None:
        return 1.0
    if period == 0.0:
        return 1.0 if t == 0.0 else 0.0  # degenerate single-visit schedule
    return sum(max(g - t, 0.0) for g in gaps) / period


def expected_return_time(s: Schedule, inst: Instance, x: int) -> float:
    """Expected wait until the defender next reaches ``x`` from a uniformly
    random moment; equals half the quadratic absence cost."""
    if not 0 <= x < inst.n:
        raise ValueError(f"unknown point index {x}")
    profiles, _ = _profiles(s.visits, inst.dist.tolist(), inst.n)
    return _cost_of_gaps(profiles[x], 2.0) / 2.0


def _best_attack_on_gaps(gaps: list[float], period: float, weight: float) -> tuple[float, float]:
    """(duration, utility) maximizing w * t * sum(max(l - t, 0)) / period.

    On each interval between consecutive sorted absence lengths the utility
    is a downward parabola in t, so the maximum is at an interval endpoint or
    the parabola vertex.  Ties resolve to the smallest duration.
    """
    if period == 0.0:
        return 0.0, 0.0
    ls = sorted(gaps)
    m = len(ls)
    # suffix[r] = sum of ls[r:]
    suffix = [0.0] * (m + 1)
    for r in range(m - 1, -1, -1):
        suffix[r] = suffix[r + 1] + ls[r]

    candidates: list[float] = []
    lo = 0.0
    for r in range(m):
        hi = ls[r]
        if hi > lo:
            count = m - r  # gaps strictly longer than any t in (lo, hi)
            vertex = suffix[r] / (2.0 * count)
            candidates.append(lo)
            candidates.append(hi)
            if lo < vertex < hi:
                candidates.append(vertex)
        lo = hi

    best_t = 0.0
    best_u = 0.0
    for t in sorted(candidates):
        u = weight * t * sum(max(g - t, 0.0) for g in ls) / period
        if u > best_u:
            best_u = u
            best_t = t
    return best_t, best_u


def per_target_best(s: Schedule, inst: Instance) -> list[AttackOutcome]:
    """The attacker's best (duration, utility) against every point.

    An unvisited point yields an unbounded outcome (infinite duration and
    utility).
    """
    profiles, period = _profiles(s.visits, inst.dist.tolist(), inst.n)
    out: list[AttackOutcome] = []
    for x in range(inst.n):
        gaps = profiles[x]
        if gaps is None:
            out.append(AttackOutcome(target=x, duration=UNBOUNDED, utility=UNBOUNDED))
        else:
            t, u = _best_attack_on_gaps(gaps, period, float(inst.weights[x]))
            out.append(AttackOutcome(target=x, duration=t, utility=u))
    return out


def attacker_best_response(s: Schedule, inst: Instance) -> AttackOutcome:
    """The overall best attack; ties go to the lowest point index, then the
    smallest duration."""
    best: AttackOutcome | None = None
    for outcome in per_target_best(s, inst):
        if math.isinf(outcome.utility):
            return outcome
        if best is None or outcome.utility > best.utility:
            best = outcome
    assert best is not None
    return best


def mix_tours(strategy: MixedStrategy, inst: Instance) -> Schedule:
    """Collapse a distribution over tours into one comparable periodic tour.

    Keeps the most likely tours up to cumulative probability 1/2 and
    concatenates N_i copies of each, where N_i grows with the tour's
    probability and shrinks with its period, scaled so that block boundaries
    are negligible.  For every point the quadratic absence cost of the result
    is at most 8 times the strategy's expected quadratic cost.

    Every supported schedule must visit every point.
    """
    for sched, _ in strategy.entries:
        if len(set(sched.visits)) != inst.n:
            missing = sorted(set(range(inst.n)) - set(sched.visits))
            raise ValueError(
                f"every schedule in the strategy must visit all points; "
                f"missing {[inst.labels[i] for i in missing]}")

    order = sorted(range(len(strategy.entries)),
                   key=lambda i: (-strategy.entries[i][1], i))
    entries = [strategy.entries[i] for i in order]

    cum = 0.0
    top = 0
    for top, (_, prob) in enumerate(entries):
        cum += prob
        if cum >= 0.5 - PROB_TOL:
            break
    kept = entries[:top + 1]
    q = kept[-1][1]

    periods = [period_length(sched, inst) for sched, _ in kept]
    d_bar = max(periods)

    scale = 0.0
    for (sched, _), period in zip(kept, periods):
        profiles, _ = _profiles(sched.visits, inst.dist.tolist(), inst.n)
        for gaps in profiles:
            c2 = _cost_of_gaps(gaps, 2.0)
            if c2 > 0.0:
                scale = max(scale, 8.0 * d_bar / c2)
    if scale == 0.0:
        warnings.warn("degenerate strategy with zero quadratic cost everywhere; "
                      "using repeat count scale 1")
        scale = 1.0

    visits: list[int] = []
    for (sched, prob), period in zip(kept, periods):
        if period == 0.0:
            copies = 1
        else:
            copies = math.ceil(scale * (prob / q) * (d_bar / period))
        visits.extend(sched.visits * copies)
    return Schedule(tuple(visits))


def strategy_from_document(doc: Any, inst: Instance) -> MixedStrategy:
    """Build a MixedStrategy from ``{"entries": [{"schedule": ..., "prob": ...}]}``."""
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("strategy document must be an object with an 'entries' array")
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a non-empty array")
    built = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "schedule" not in e or "prob" not in e:
            raise ValueError("each strategy entry needs a 'schedule' and a 'prob'")
        prob = e["prob"]
        if isinstance(prob, bool) or not isinstance(prob, (int, float)):
            raise ValueError(f"strategy entry {i}: 'prob' must be a number, got {prob!r}")
        built.append((schedule_from_document(e["schedule"], inst), float(prob)))
    return MixedStrategy(entries=tuple(built))


def strategy_to_document(strategy: MixedStrategy, inst: Instance) -> dict[str, Any]:
    return {"entries": [{"schedule": schedule_to_document(s, inst), "prob": p}
                        for s, p in strategy.entries]}
