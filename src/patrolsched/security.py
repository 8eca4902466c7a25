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
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .instance import Instance
from .schedule import (Schedule, UNBOUNDED, _cost_of_gaps, _walk, absence_profile,
                       schedule_from_document, schedule_to_document)

PROB_TOL = 1e-9

# Most (candidate duration, absence length) pairs the best-attack scan
# holds in one block.
SCAN_BLOCK = 1 << 16


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


def _excess(gaps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum(max(l - t, 0)) over ``gaps`` for every t in ``ts``.

    Each sum is folded left to right over ``gaps`` (a row of ``np.cumsum``),
    so the result does not depend on how the Python version sums floats.
    """
    return np.cumsum(np.maximum(gaps - ts[:, None], 0.0), axis=1)[:, -1]


def success_probability(s: Schedule, inst: Instance, x: int, t: float) -> float:
    """Probability that an attack of duration ``t`` on ``x`` succeeds.

    Equals sum(max(l - t, 0)) / period over x's absence lengths l.  An
    unvisited target is never interrupted: probability 1 for every t.
    """
    if not t >= 0.0:
        raise ValueError(f"attack duration must be nonnegative, got {t!r}")
    profiles, period = _walk(s, inst)
    if not 0 <= x < inst.n:
        raise ValueError(f"unknown point index {x}")
    if profiles[x] is None:
        return 1.0
    if period == 0.0:
        return 1.0 if t == 0.0 else 0.0  # degenerate single-visit schedule
    return float(_excess(np.array(profiles[x]), np.array([t]))[0]) / period


def expected_return_time(s: Schedule, inst: Instance, x: int) -> float:
    """Expected wait until the defender next reaches ``x`` from a uniformly
    random moment; equals half the quadratic absence cost."""
    return _cost_of_gaps(absence_profile(s, x, inst), 2.0) / 2.0


def _best_attack_on_gaps(gaps: np.ndarray, period: float, weight: float) -> tuple[float, float]:
    """(duration, utility) maximizing w * t * sum(max(l - t, 0)) / period.

    On each interval between consecutive sorted absence lengths the utility
    is a downward parabola in t, so the maximum is at an interval endpoint or
    the parabola vertex.  Every distinct candidate is scored once, in blocks
    of at most :data:`SCAN_BLOCK` pairs; ties resolve to the smallest
    duration.  t = 0 is not scored: its utility is 0, the initial best.

    When the best candidate's w * t * excess, or its quotient by the period,
    is not a finite normal float, the scan under- or overflowed: the gaps are
    scored divided by the period and the answer is multiplied back.  A
    subnormal weight keeps the direct answer unless the rescaled one is
    normal.
    """
    if period == 0.0:
        return 0.0, 0.0
    ls = np.sort(gaps)
    m = len(ls)
    suffix = np.cumsum(ls[::-1])[::-1]  # suffix[r] = sum of ls[r:]
    lo = np.concatenate(([0.0], ls[:-1]))
    # on (lo[r], ls[r]) the gaps ls[r:] are longer than t
    vertex = suffix / (2.0 * (m - np.arange(m)))
    candidates = np.unique(np.concatenate((ls, vertex[(lo < vertex) & (vertex < ls)])))

    best_t = best_wte = best_u = 0.0
    rows = max(1, SCAN_BLOCK // m)
    for a in range(0, len(candidates), rows):
        t = candidates[a:a + rows]
        wte = weight * t * _excess(ls, t)
        u = wte / period
        i = int(np.argmax(u))
        if u[i] > best_u:
            best_t, best_wte, best_u = float(t[i]), float(wte[i]), float(u[i])
    if period != 1.0 and not all(sys.float_info.min <= x < math.inf for x in (best_wte, best_u)):
        t_unit, u_unit = _best_attack_on_gaps(ls / period, 1.0, weight)
        if weight >= sys.float_info.min or u_unit * period >= sys.float_info.min:
            return t_unit * period, u_unit * period
    return best_t, best_u


def per_target_best(s: Schedule, inst: Instance) -> list[AttackOutcome]:
    """The attacker's best (duration, utility) against every point.

    An unvisited point yields an unbounded outcome (infinite duration and
    utility).
    """
    profiles, period = _walk(s, inst)
    out: list[AttackOutcome] = []
    # a scan past the float range is rescaled, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for x, (w, gaps) in enumerate(zip(inst.weights.tolist(), profiles)):
            if gaps is None:
                out.append(AttackOutcome(target=x, duration=UNBOUNDED, utility=UNBOUNDED))
            else:
                t, u = _best_attack_on_gaps(np.array(gaps), period, w)
                out.append(AttackOutcome(target=x, duration=t, utility=u))
    return out


def strongest_attack(outcomes: list[AttackOutcome]) -> AttackOutcome:
    """The first unbounded outcome, else the first of highest utility."""
    best = outcomes[0]
    for outcome in outcomes:
        if math.isinf(outcome.utility):
            return outcome
        if outcome.utility > best.utility:
            best = outcome
    return best


def attacker_best_response(s: Schedule, inst: Instance) -> AttackOutcome:
    """The overall best attack; ties go to the lowest point index, then the
    smallest duration."""
    return strongest_attack(per_target_best(s, inst))


def mix_tours(strategy: MixedStrategy, inst: Instance) -> Schedule:
    """Collapse a distribution over tours into one comparable periodic tour.

    Keeps the most likely tours up to cumulative probability 1/2 and
    concatenates N_i copies of each, where N_i grows with the tour's
    probability and shrinks with its period, scaled so that block boundaries
    are negligible.  For every point the quadratic absence cost of the result
    is at most 8 times the strategy's expected quadratic cost.  A lone kept
    tour is emitted once: copies of one tour change no point's cost.

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

    walks = [_walk(sched, inst) for sched, _ in kept]
    d_bar = max(period for _, period in walks)

    # scale stays 0 only on one point, where every period is 0 and it is not read
    scale = 0.0
    for profiles, _ in walks:
        for gaps in profiles:
            c2 = _cost_of_gaps(gaps, 2.0)
            if c2 > 0.0:
                scale = max(scale, 8.0 * d_bar / c2)

    visits: list[int] = []
    for (sched, prob), (_, period) in zip(kept, walks):
        if len(kept) == 1 or period == 0.0:
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
        try:
            prob = float(prob)
        except OverflowError:  # an integer past the float range
            raise ValueError(f"strategy entry {i}: 'prob' is past the float range") from None
        built.append((schedule_from_document(e["schedule"], inst), prob))
    return MixedStrategy(entries=tuple(built))


def strategy_to_document(strategy: MixedStrategy, inst: Instance) -> dict[str, Any]:
    return {"entries": [{"schedule": schedule_to_document(s, inst), "prob": p}
                        for s, p in strategy.entries]}
