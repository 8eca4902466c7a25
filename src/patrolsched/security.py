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
``per_target_best`` scores the targets with the same number of visits
together: their gap lists form one array, scanned in blocks of at most
``SCAN_BLOCK`` (duration, gap) pairs across targets.

``mix_tours`` turns a probability distribution over tours into one periodic
schedule whose quadratic cost at every point is at most 8 times the mixture's
expected cost, by concatenating carefully chosen repeat counts of the
highest-probability tours.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .instance import Instance, _check_points, _point_indices
from .schedule import (Schedule, UNBOUNDED, _cost_of_gaps, _walk, absence_profile,
                       schedule_from_document, schedule_to_document)

PROB_TOL = 1e-9

# Most (candidate duration, absence length) pairs one block of the
# best-attack scan holds, counted over all the targets the block takes.
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
    """sum(max(l - t, 0)) over the last axis of ``gaps`` for every t in ``ts``.

    ``gaps`` is one row of absence lengths and ``ts`` a row of durations, or
    ``gaps`` holds one row per target and ``ts`` that target's row of
    durations.  Each sum is folded left to right over the gaps (a row of
    ``np.cumsum``), so the result does not depend on how the Python version
    sums floats or on how many targets share the call.
    """
    return np.cumsum(np.maximum(gaps[..., None, :] - ts[..., :, None], 0.0), axis=-1)[..., -1]


def success_probability(s: Schedule, inst: Instance, x: int, t: float) -> float:
    """Probability that an attack of duration ``t`` on ``x`` succeeds.

    Equals sum(max(l - t, 0)) / period over x's absence lengths l.  An
    unvisited target is never interrupted: probability 1 for every t.  An
    ``x`` that is not a point index of ``inst`` raises ValueError.
    """
    if not t >= 0.0:
        raise ValueError(f"attack duration must be nonnegative, got {t!r}")
    x = _check_points(inst, _point_indices((x,), "point"))[0]
    profiles, period = _walk(s, inst)
    if profiles[x] is None:
        return 1.0
    if period == 0.0:
        return 1.0 if t == 0.0 else 0.0  # degenerate single-visit schedule
    return float(_excess(np.array(profiles[x]), np.array([t]))[0]) / period


def expected_return_time(s: Schedule, inst: Instance, x: int) -> float:
    """Expected wait until the defender next reaches ``x`` from a uniformly
    random moment; equals half the quadratic absence cost.  An ``x`` that is
    not a point index of ``inst`` raises ValueError."""
    return _cost_of_gaps(absence_profile(s, x, inst), 2.0) / 2.0


def _best_attacks(gaps: np.ndarray, period: float,
                  weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(durations, utilities) maximizing w * t * sum(max(l - t, 0)) / period
    for every row of ``gaps``, a (targets x m) array of absence lengths, with
    the matching entry of ``weights``.

    On each interval between consecutive sorted absence lengths the utility
    is a downward parabola in t, so the maximum is at an interval endpoint or
    the parabola vertex.  A row's distinct candidates come first, in
    ascending order, then repeats of them up to the widest row's count.  The
    scan runs in blocks of at most :data:`SCAN_BLOCK` (candidate, gap) pairs:
    ascending column slices of ``SCAN_BLOCK // m`` candidates, at most the
    widest row, each over as many rows as fit.  A row's best changes only
    where its first maximum in a block beats it, so ties resolve to the
    smallest duration.  A NaN utility (w * t
    is 0 and the excess overflowed to inf) is passed over on its own, as if
    it were never a candidate.  t = 0 is not scored: its utility is 0, the
    initial best.

    When a row's best w * t * excess, or its quotient by the period, is not a
    finite normal float, the scan under- or overflowed: that row is scored on
    its gaps divided by the period and the answer is multiplied back.  A
    subnormal weight keeps the direct answer unless the rescaled one is
    normal.
    """
    k, m = gaps.shape
    best_t, best_wte, best_u = np.zeros(k), np.zeros(k), np.zeros(k)
    if period == 0.0:
        return best_t, best_u
    # a scan past the float range is rescaled, without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        ls = np.sort(gaps, axis=1)
        suffix = np.cumsum(ls[:, ::-1], axis=1)[:, ::-1]  # suffix[:, r] = sum of ls[:, r:]
        lo = np.concatenate((np.zeros((k, 1)), ls[:, :-1]), axis=1)
        # on (lo[r], ls[r]) the gaps ls[r:] are longer than t
        vertex = suffix / (2.0 * (m - np.arange(m)))
        inside = (lo < vertex) & (vertex < ls)
        # a vertex outside its interval is replaced by a repeat of the longest gap
        cands = np.concatenate((ls, np.where(inside, vertex, ls[:, -1:])), axis=1)
        cands.sort(axis=1)
        repeat = np.zeros(cands.shape, dtype=bool)
        repeat[:, 1:] = cands[:, 1:] == cands[:, :-1]
        width = int((~repeat).sum(axis=1).max())
        # past its distinct count a row holds repeats of earlier candidates:
        # a repeat's utility has the same bits as its first, and a best
        # changes only on a strictly larger utility, so repeats never win
        first = np.argsort(repeat, axis=1, kind="stable")[:, :width]
        cands = np.take_along_axis(cands, first, axis=1)

        cols = min(width, max(1, SCAN_BLOCK // m))
        rows = max(1, SCAN_BLOCK // (cols * m))
        # each row meets its column slices in ascending order
        for r0, c0 in itertools.product(range(0, k, rows), range(0, width, cols)):
            r1 = r0 + rows
            t = cands[r0:r1, c0:c0 + cols]
            wte = weights[r0:r1, None] * t * _excess(ls[r0:r1], t)
            u = wte / period
            at = np.arange(len(t)), np.argmax(np.where(np.isnan(u), -np.inf, u), axis=1)
            better = u[at] > best_u[r0:r1]
            # best_*[r0:r1] are views, so the masked writes land in best_*
            best_t[r0:r1][better] = t[at][better]
            best_wte[r0:r1][better] = wte[at][better]
            best_u[r0:r1][better] = u[at][better]

        normal = sys.float_info.min
        in_range = ((normal <= best_wte) & (best_wte < math.inf)
                    & (normal <= best_u) & (best_u < math.inf))
        if period != 1.0 and not in_range.all():
            redo = np.flatnonzero(~in_range)
            t_unit, u_unit = _best_attacks(ls[redo] / period, 1.0, weights[redo])
            keep = (weights[redo] >= normal) | (u_unit * period >= normal)
            best_t[redo[keep]] = t_unit[keep] * period
            best_u[redo[keep]] = u_unit[keep] * period
    return best_t, best_u


def per_target_best(s: Schedule, inst: Instance) -> list[AttackOutcome]:
    """The attacker's best (duration, utility) against every point.

    An unvisited point yields an unbounded outcome (infinite duration and
    utility).
    """
    profiles, period = _walk(s, inst)
    durations = [UNBOUNDED] * inst.n
    utilities = [UNBOUNDED] * inst.n
    # one scan per visit count: its targets' gap lists form one array
    groups: dict[int, list[int]] = {}
    for x, gaps in enumerate(profiles):
        if gaps is not None:
            groups.setdefault(len(gaps), []).append(x)
    for xs in groups.values():
        ts, us = _best_attacks(np.array([profiles[x] for x in xs]), period, inst.weights[xs])
        for x, t, u in zip(xs, ts.tolist(), us.tolist()):
            durations[x], utilities[x] = t, u
    return [AttackOutcome(target=x, duration=t, utility=u)
            for x, (t, u) in enumerate(zip(durations, utilities))]


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
