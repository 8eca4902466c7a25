"""Scale invariance: every answer scales with the distances, at every scale
whose sums stay finite.

Absence costs and attack utilities are powers and products of distances, so
at large and small scales their intermediate values leave the float range;
the kernels then recompute on rescaled gaps, and the answers must still be
the unscaled instance's times the scale.
"""
from __future__ import annotations

import numpy as np
import pytest

from patrolsched import (Instance, make_instance, per_target_best, period_length, plan,
                         point_costs)
from conftest import random_instance

INSTANCES = {
    "unit-triangle": lambda: make_instance(["a", "b", "c"], [1.0, 0.5, 0.5],
                                           [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "pareto-60-euclidean": lambda: random_instance(1, 60, "pareto", "euclidean-plane"),
    "uniform-80-closure": lambda: random_instance(2, 80, "uniform", "random-closure"),
    "equal-40-euclidean": lambda: random_instance(3, 40, "equal", "euclidean-plane"),
}


def scaled(inst: Instance, factor: float) -> Instance:
    return make_instance(inst.labels, inst.weights, inst.dist * factor)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_plan_scales_by_powers_of_ten(name):
    """plan(10^k M) is plan(M)'s schedule at 10^k times its objectives and
    bound, for every k in [-300, 300]."""
    inst = INSTANCES[name]()
    base = plan(inst)
    for k in range(-300, 301):
        factor = 10.0 ** k
        res = plan(scaled(inst, factor))
        assert res.schedule == base.schedule, k
        for key in ("objective_inf", "objective_2", "lower_bound"):
            assert res.diagnostics[key] == pytest.approx(
                factor * base.diagnostics[key], rel=1e-9), (k, key)


@pytest.mark.parametrize("name", ["unit-triangle", "pareto-60-euclidean", "uniform-80-closure"])
def test_attacks_and_costs_scale_by_powers_of_two(name):
    """On 2^k M the best attacks and the costs at p = 2 and 3 are M's times
    2^k, for every k in [-1000, 1000] whose period is finite.  On the
    60-point plan at 2^-542, w * t * excess is subnormal while its quotient
    by the period is not."""
    inst = INSTANCES[name]()
    sched = plan(inst).schedule

    def answers(at: Instance) -> np.ndarray:
        attacks = [(o.duration, o.utility) for o in per_target_best(sched, at)]
        return np.concatenate((np.ravel(attacks), np.ravel(point_costs(sched, at, [2.0, 3.0]))))

    base = answers(inst)
    for k in range(-1000, 1001):
        factor = 2.0 ** k
        # scaling by a power of two is exact, so the metric stays valid
        big = Instance(inst.labels, inst.weights, inst.dist * factor)
        try:
            period_length(sched, big)
        except ValueError:  # the period itself overflows
            continue
        want = base * factor
        got = answers(big)
        assert (abs(got - want) <= 1e-12 * want).all(), (k, np.flatnonzero(
            abs(got - want) > 1e-12 * want))
