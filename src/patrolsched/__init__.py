"""Weighted patrol scheduling on finite metric spaces.

A patroller walks forever through a set of weighted points; a point's cost
is a function of the gaps between its consecutive visits (maximum gap, or a
normalized power mean), and the objective is the weighted worst point.  The
package provides:

- validated metric instances with JSON ingestion and random generation,
- periodic schedules with exact absence-profile cost evaluation,
- an O(log n)-approximation planner built on min-max tree covers,
- exact brute-force oracles for desk-scale verification,
- an attack/defense layer: best attacker response against a schedule and
  derandomization of mixed tour strategies,
- a CLI (``patrolsched``) exposing all of the above with reproducible
  JSON reports.
"""
from .instance import (GEOMETRIES, WEIGHT_LAWS, Instance, InstanceFormatError,
                       MetricReport, MetricViolationError,
                       NonpositiveWeightError, RandomSpec, Violation,
                       generate_random, instance_from_document, load_instance,
                       make_instance, serialize_instance, validate_metric)
from .mst import Tree, euler_shortcut, minimum_spanning_tree
from .oracle import (OracleResult, brute_force_weighted_opt, held_karp_tsp,
                     lower_bound, partition_tree_cover_oracle)
from .planner import PlanResult, TourList, WeightClass, class_index, plan
from .schedule import (UNBOUNDED, Schedule, absence_profile, period_length,
                       point_cost, point_costs, schedule_from_document,
                       schedule_to_document, weighted_objective, worst_weighted)
from .security import (AttackOutcome, MixedStrategy, attacker_best_response,
                       expected_return_time, mix_tours, per_target_best,
                       strategy_from_document, strategy_to_document,
                       strongest_attack, success_probability)
from .treecover import TreeCover, decompose_tree, minmax_tree_cover, try_budget

__version__ = "0.1.0"

__all__ = [
    "GEOMETRIES", "WEIGHT_LAWS", "Instance", "InstanceFormatError",
    "MetricReport", "MetricViolationError", "NonpositiveWeightError",
    "RandomSpec", "Violation", "generate_random", "instance_from_document",
    "load_instance", "make_instance", "serialize_instance", "validate_metric",
    "Tree", "euler_shortcut", "minimum_spanning_tree",
    "OracleResult", "brute_force_weighted_opt", "held_karp_tsp",
    "lower_bound", "partition_tree_cover_oracle",
    "PlanResult", "TourList", "WeightClass", "class_index", "plan",
    "UNBOUNDED", "Schedule", "absence_profile", "period_length", "point_cost",
    "point_costs", "schedule_from_document", "schedule_to_document",
    "weighted_objective", "worst_weighted",
    "AttackOutcome", "MixedStrategy", "attacker_best_response",
    "expected_return_time", "mix_tours", "per_target_best",
    "strategy_from_document", "strategy_to_document", "strongest_attack",
    "success_probability",
    "TreeCover", "decompose_tree", "minmax_tree_cover", "try_budget",
    "__version__",
]
