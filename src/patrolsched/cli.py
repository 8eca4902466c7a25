"""Command-line surface for patrol scheduling, evaluation, oracles, and attacks.

Subcommands
-----------
validate      check an instance document (metric axioms, weights)
gen           generate a random instance document
plan          run the approximation planner on an instance
eval          evaluate a schedule document against an instance
oracle-tsp    exact shortest closed tour (small point sets)
oracle-opt    exhaustive best weighted schedule up to a period bound
oracle-cover  exact min-max tree cover by partition enumeration
treecover     approximate min-max tree cover for a point subset
attack        best attacker response against a schedule
mix           collapse a mixed strategy into one periodic schedule
bench         planner ratio table over a directory of instances

Exit codes: 0 success, 1 domain/validation failure, 2 I/O or usage error.

Every command runs through one runner, ``_run``.  For an instance command
the runner reads and builds the instance, then parses each document the
command declares (a schedule or a strategy), and hands them over.  A
command parses its flags, calls the library and returns its report fields,
a short human summary and its exit code; the runner times it, adds
``command``, ``instance`` (the file's path and SHA-256) and ``timings``,
writes the JSON run report when ``--out`` is given, prints the summary, and
maps errors to exit codes with a one-line ``error:`` message.
Every document the CLI writes is one line of JSON with sorted keys.
Reports are deterministic for fixed inputs, flags, and seeds: the SHA-256
of the instance file's bytes is embedded, and wall-clock measurements live
under a separate top-level ``"timings"`` key so out-of-band variation never
touches result fields.  A point the schedule never visits costs
``"unbounded"``; only ``eval``'s ``objective`` and ``point_costs`` and
``attack``'s ``duration`` and ``utility`` (``best`` and ``per_target``) hold
that string.  Any other non-finite value fails the command with an
``error:`` line, and no report is written.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import sys
import time
from pathlib import Path
from typing import Any

from .instance import (GEOMETRIES, WEIGHT_LAWS, Instance, MetricReport,
                       MetricViolationError, RandomSpec, _label_points, dumps,
                       generate_random, load_instance, loads, serialize_instance)
from .mst import Tree
from .oracle import (BRUTE_FORCE_MAX_POINTS, BRUTE_FORCE_MAX_PERIOD,
                     HELD_KARP_MAX, OracleResult, brute_force_weighted_opt,
                     held_karp_tsp, partition_tree_cover_oracle)
from .planner import plan
from .schedule import (Schedule, _validate_p, period_length, point_costs,
                       schedule_from_document, schedule_to_document, weighted_objective,
                       worst_weighted)
from .security import (AttackOutcome, MixedStrategy, mix_tours, per_target_best,
                       strategy_from_document, strongest_attack)
from .treecover import minmax_tree_cover

# What a command returns to the runner: report fields, summary, exit code.
Outcome = tuple[dict[str, Any], str, int]

# The errors a command, or one bench row, reports instead of raising.
_FAILURES = (OSError, ValueError, KeyError, MemoryError)

# The plan diagnostics that `plan` reports and `bench` tabulates.
_PLAN_FIELDS = ("objective_inf", "objective_2", "lower_bound", "envelope_ratio",
                "envelope_limit")


# ---------------------------------------------------------------------------
# report plumbing


def _write_json(doc: Any, path: str, what: str = "document") -> None:
    """Write a report or schedule document through :func:`dumps`, which
    refuses a NaN or infinite float before the file is opened."""
    Path(path).write_text(dumps(doc, what) + "\n")


def _unbounded(x: float) -> float | str:
    """An eval cost or attack outcome; inf (a point never visited) as "unbounded"."""
    return "unbounded" if math.isinf(x) else x


def _run(args: argparse.Namespace) -> int:
    """Read the command's inputs, time the command, write its report, print
    its summary, return its code."""
    t0 = time.perf_counter()
    try:
        if args.documents is None:
            fields, summary, code = args.func(args)
        else:
            data, ref = _read_instance_file(args.instance)
            inst = load_instance(data, ref["path"])
            del data  # the command runs without the file's bytes held
            parse = {"schedule": schedule_from_document, "strategy": strategy_from_document}
            docs = []
            for name in args.documents:
                path = getattr(args, name)
                docs.append(parse[name](loads(Path(path).read_bytes(), path), inst))
            fields, summary, code = args.func(args, inst, *docs)
            fields["instance"] = ref
        if args.out is not None and args.report is not None:
            report = {"command": args.command, **fields,
                      "timings": {"total_s": time.perf_counter() - t0}}
            _write_json(report, args.report.format(args.out), f"{args.command}: report")
        print(summary)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    return code


def _fmt(x: float) -> str:
    return "unbounded" if math.isinf(x) else format(x, ".6g")


def _read_instance_file(path: str | Path) -> tuple[bytes, dict[str, Any]]:
    """The file's bytes and its report reference: path and SHA-256 of the bytes."""
    data = Path(path).read_bytes()
    return data, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _parse_p(text: str) -> float:
    try:
        return _validate_p(float(text))
    except ValueError:
        raise ValueError(f"--p must be 'inf' or a number >= 2, got {text!r}") from None


def _parse_subset(inst: Instance, text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise ValueError("--subset must list at least one label")
    return _label_points(inst, labels, "--subset entries")


def _subset_doc(inst: Instance, subset: tuple[int, ...] | None) -> list[str] | None:
    return None if subset is None else [inst.labels[x] for x in subset]


def _oracle_doc(res: OracleResult, witness: Any) -> dict[str, Any]:
    return {"value": res.value, "witness": witness, "search_bound": res.search_bound}


def _attack_doc(outcome: AttackOutcome, inst: Instance) -> dict[str, Any]:
    return {"target": inst.labels[outcome.target],
            "duration": _unbounded(outcome.duration),
            "utility": _unbounded(outcome.utility)}


def _tree_doc(tree: Tree, inst: Instance) -> dict[str, Any]:
    return {
        "vertices": [inst.labels[v] for v in tree.vertices],
        "edges": [[inst.labels[u], inst.labels[v], float(inst.dist[u, v])]
                  for u, v in tree.edges],
        "cost": tree.cost,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> Outcome:
    data, ref = _read_instance_file(args.instance)
    try:
        n = load_instance(data, ref["path"]).n
        report = MetricReport(n=n, violations=(), counts={})
    except MetricViolationError as exc:
        report = exc.report
    fields = {"instance": ref, "parameters": {}, "result": {
        "ok": report.ok, "n": report.n, "counts": report.counts,
        "violations": [{"kind": v.kind, "where": list(v.where), "message": v.message}
                       for v in report.violations]}}
    if report.ok:
        return fields, f"{ref['path']}: OK ({report.n} points)", 0
    return fields, (f"{ref['path']}: INVALID ({sum(report.counts.values())} violations; "
                    f"first: {report.violations[0].message})"), 1


def _cmd_gen(args: argparse.Namespace) -> Outcome:
    spec = RandomSpec(n=args.n, weight_law=args.weight_law, geometry=args.geometry)
    inst = generate_random(spec, args.seed)
    text = serialize_instance(inst)
    if args.out is None:
        return {}, text, 0
    Path(args.out).write_text(text + "\n")
    return {}, (f"wrote {args.out}: n={inst.n} geometry={args.geometry} "
                f"weight-law={args.weight_law} seed={args.seed}"), 0


def _cmd_plan(args: argparse.Namespace, inst: Instance) -> Outcome:
    res = plan(inst)
    diag = res.diagnostics
    result = {
        "schedule": schedule_to_document(res.schedule, inst),
        "classes": [{
            "index": c.index,
            "rounded_weight": c.rounded_weight,
            "members": [inst.labels[x] for x in c.members],
            "theta": c.theta,
        } for c in res.classes],
        "class_trees": [{
            "class_index": i,
            "budget": cover.budget_used,
            "max_cost": cover.max_cost,
            "trees": [_tree_doc(t, inst) for t in cover.trees],
        } for i, cover in sorted(res.covers.items())],
        "lists": [{
            "index": tl.index,
            "lam": tl.lam,
            "tours": [[inst.labels[x] for x in t.visits] for t in tl.tours],
        } for tl in res.lists],
        "I": res.I,
        "J": res.J,
        "phases": res.phases,
        **{key: diag[key] for key in _PLAN_FIELDS},
    }
    invariants = {key: diag[key] for key in
                  ("all_points_visited", "list_weight_ok", "tree_budget_ok", "envelope_ok")}
    if args.schedule_out:
        _write_json(result["schedule"], args.schedule_out)
    flags = " ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in sorted(invariants.items()))
    summary = (f"plan: {len(res.schedule)} visits over {res.phases} phases, "
               f"objective_inf={_fmt(diag['objective_inf'])}, "
               f"lower_bound={_fmt(diag['lower_bound'])}, "
               f"limit={_fmt(diag['envelope_limit'])}\n"
               f"invariants: {flags}")
    return {"parameters": {}, "result": result, "invariants": invariants}, summary, 0


def _cmd_eval(args: argparse.Namespace, inst: Instance, sched: Schedule) -> Outcome:
    ps = [_parse_p(t) for t in (args.p or ["2", "inf"])]
    keys = [format(p, "g") for p in ps]
    costs = dict(zip(keys, point_costs(sched, inst, ps)))
    objectives = {key: worst_weighted(c, inst) for key, c in costs.items()}
    per_p = {key: {"objective": _unbounded(objectives[key]),
                   "point_costs": {label: _unbounded(c)
                                   for label, c in zip(inst.labels, costs[key])}}
             for key in costs}
    period = period_length(sched, inst)
    summary = ", ".join(f"p={key}: {_fmt(v)}" for key, v in objectives.items())
    return {
        "parameters": {"schedule": str(args.schedule), "p": keys},
        "result": {"visits": len(sched), "period": period, "per_p": per_p},
    }, f"eval: {len(sched)} visits, period {_fmt(period)}; {summary}", 0


def _cmd_oracle_tsp(args: argparse.Namespace, inst: Instance) -> Outcome:
    subset = _parse_subset(inst, args.subset)
    res = held_karp_tsp(inst, subset)
    return {
        "parameters": {"subset": _subset_doc(inst, subset)},
        "result": _oracle_doc(res, schedule_to_document(res.witness, inst)),
    }, f"oracle-tsp: value {_fmt(res.value)} over {res.search_bound['points']} points", 0


def _cmd_oracle_opt(args: argparse.Namespace, inst: Instance) -> Outcome:
    p = _parse_p(args.p)
    max_period = args.max_period if args.max_period is not None else inst.n
    res = brute_force_weighted_opt(inst, p, max_period)
    return {
        "parameters": {"p": format(p, "g"), "max_period": max_period},
        "result": _oracle_doc(res, schedule_to_document(res.witness, inst)),
    }, (f"oracle-opt: best weighted objective {_fmt(res.value)} "
        f"at p={p:g}, periods up to {max_period} visits "
        f"(upper bound on the unrestricted optimum)"), 0


def _cmd_oracle_cover(args: argparse.Namespace, inst: Instance) -> Outcome:
    subset = _parse_subset(inst, args.subset)
    res = partition_tree_cover_oracle(inst, subset, args.k)
    return {
        "parameters": {"subset": _subset_doc(inst, subset), "k": args.k},
        "result": _oracle_doc(res, [[inst.labels[x] for x in block]
                                    for block in res.witness]),
    }, (f"oracle-cover: exact min-max block cost {_fmt(res.value)} "
        f"with {len(res.witness)} blocks (k={args.k})"), 0


def _cmd_treecover(args: argparse.Namespace, inst: Instance) -> Outcome:
    subset = _parse_subset(inst, args.subset)
    cover = minmax_tree_cover(inst, subset, args.k)
    return {
        "parameters": {"subset": _subset_doc(inst, subset), "k": args.k},
        "result": {
            "budget": cover.budget_used,
            "max_cost": cover.max_cost,
            "guarantee_factor": 4.0,
            "trees": [_tree_doc(t, inst) for t in cover.trees],
        },
    }, (f"treecover: {len(cover.trees)} trees (k={args.k}), "
        f"max cost {_fmt(cover.max_cost)} at budget {_fmt(cover.budget_used)}"), 0


def _cmd_attack(args: argparse.Namespace, inst: Instance, sched: Schedule) -> Outcome:
    outcomes = per_target_best(sched, inst)
    best = strongest_attack(outcomes)
    return {
        "parameters": {"schedule": str(args.schedule)},
        "result": {"best": _attack_doc(best, inst),
                   "per_target": [_attack_doc(o, inst) for o in outcomes]},
    }, (f"attack: best target {inst.labels[best.target]}, "
        f"duration {_fmt(best.duration)}, utility {_fmt(best.utility)}"), 0


def _cmd_mix(args: argparse.Namespace, inst: Instance, strategy: MixedStrategy) -> Outcome:
    mixed = mix_tours(strategy, inst)
    doc = schedule_to_document(mixed, inst)
    period = period_length(mixed, inst)
    if args.schedule_out:
        _write_json(doc, args.schedule_out)
    return {
        "parameters": {"strategy": str(args.strategy), "support": len(strategy.entries)},
        "result": {
            "schedule": doc,
            "visits": len(mixed),
            "period": period,
            "objective_2": weighted_objective(mixed, inst, 2.0),
        },
    }, (f"mix: {len(strategy.entries)}-tour strategy collapsed to one tour "
        f"with {len(mixed)} visits, period {_fmt(period)}"), 0


_BENCH_COLUMNS = [
    "file", "status", "error", "sha256", "n", "I", "phases", "visits",
    *_PLAN_FIELDS, "envelope_ok", "oracle_p", "oracle_value", "alg_over_oracle",
]


def _bench_row(path: Path) -> dict[str, Any]:
    row: dict[str, Any] = {c: None for c in _BENCH_COLUMNS}
    row["file"] = path.name
    try:
        data, ref = _read_instance_file(path)
        row["sha256"] = ref["sha256"]
        inst = load_instance(data, ref["path"])
        res = plan(inst)
        diag = res.diagnostics
        row.update({
            "status": "ok",
            "n": inst.n,
            "I": res.I,
            "phases": res.phases,
            "visits": len(res.schedule),
            **{key: diag[key] for key in (*_PLAN_FIELDS, "envelope_ok")},
        })
        if inst.n <= BRUTE_FORCE_MAX_POINTS:
            max_period = min(inst.n + 2, BRUTE_FORCE_MAX_PERIOD)
            oracle = brute_force_weighted_opt(inst, math.inf, max_period)
            row["oracle_p"] = "inf"
            row["oracle_value"] = oracle.value
            if oracle.value > 0.0:
                row["alg_over_oracle"] = diag["objective_inf"] / oracle.value
    except _FAILURES as exc:
        row["status"] = "failed"
        row["error"] = str(exc)
    return row


def _cmd_bench(args: argparse.Namespace) -> Outcome:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise OSError(f"corpus directory not found: {corpus}")
    files = sorted(corpus.glob("*.json"), key=lambda p: p.name)
    rows = [_bench_row(path) for path in files]

    ok = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] != "ok"]
    ratios = [r["envelope_ratio"] for r in ok]
    summary = {
        "instances": len(rows),
        "ok": len(ok),
        "failed": len(failed),
        "max_envelope_ratio": max(ratios) if ratios else None,
        "all_envelopes_ok": all(r["envelope_ok"] for r in ok),
    }
    fields = {"corpus": {"path": str(corpus), "files": len(rows)}, "parameters": {},
              "result": {"summary": summary, "rows": rows}}
    if args.out is not None:
        dumps(fields, f"{args.command}: report")  # a report that cannot be written fails first
        with open(f"{args.out}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)

    ratio_txt = (_fmt(summary["max_envelope_ratio"])
                 if summary["max_envelope_ratio"] is not None else "n/a")
    return fields, (f"bench: {summary['instances']} instances, {summary['ok']} ok, "
        f"{summary['failed']} failed, max envelope ratio {ratio_txt}, "
        f"envelopes {'all ok' if summary['all_envelopes_ok'] else 'VIOLATED'}"), 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: building it costs far more than parsing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolsched",
        description="Weighted patrol scheduling: planner, oracles, and attack analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    # ``report`` names a command's report file from its ``--out`` value (None: none);
    # ``documents`` names what the runner parses after the instance (None: it reads nothing).
    def add(name: str, func, help_text: str, *documents: str) -> argparse.ArgumentParser:
        """A command that reads an instance and ``documents`` and writes its
        report to ``--out``."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, report="{}", documents=documents)
        p.add_argument("instance")
        for document in documents:
            p.add_argument(document, help=f"{document} document path")
        p.add_argument("--out", help="write a JSON run report")
        return p

    # a metric violation is validate's result, not an error: it reads its own file
    add("validate", _cmd_validate, "check an instance document").set_defaults(documents=None)

    p = sub.add_parser("gen", help="generate a random instance document")
    p.set_defaults(func=_cmd_gen, report=None, documents=None)
    p.add_argument("--n", type=int, required=True, help="number of points (>= 3)")
    p.add_argument("--weight-law", choices=WEIGHT_LAWS, default="uniform")
    p.add_argument("--geometry", choices=GEOMETRIES, default="euclidean-plane")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="instance output path (default: stdout)")

    p = add("plan", _cmd_plan, "compute an approximate patrol schedule")
    p.add_argument("--schedule-out", help="also write the bare schedule document")

    p = add("eval", _cmd_eval, "evaluate a schedule document", "schedule")
    p.add_argument("--p", action="append",
                   help="absence-cost exponent: 'inf' or a number >= 2 "
                        "(repeatable; default: 2 and inf)")

    p = add("oracle-tsp", _cmd_oracle_tsp,
            f"exact shortest closed tour (<= {HELD_KARP_MAX} points)")
    p.add_argument("--subset", help="comma-separated point labels")

    p = add("oracle-opt", _cmd_oracle_opt,
            f"exhaustive best schedule (<= {BRUTE_FORCE_MAX_POINTS} points)")
    p.add_argument("--p", default="inf",
                   help="absence-cost exponent: 'inf' or a number >= 2")
    p.add_argument("--max-period", type=int,
                   help="longest visit sequence searched (default: n)")

    p = add("oracle-cover", _cmd_oracle_cover,
            "exact min-max tree cover by partition enumeration")
    p.add_argument("--subset", help="comma-separated point labels")
    p.add_argument("--k", type=int, required=True, help="maximum number of trees")

    p = add("treecover", _cmd_treecover, "approximate min-max tree cover")
    p.add_argument("--subset", help="comma-separated point labels")
    p.add_argument("--k", type=int, required=True, help="maximum number of trees")

    add("attack", _cmd_attack, "best attacker response against a schedule", "schedule")

    p = add("mix", _cmd_mix, "collapse a mixed strategy into one schedule", "strategy")
    p.add_argument("--schedule-out", help="also write the bare schedule document")

    p = sub.add_parser("bench", help="planner ratio table over a corpus directory")
    p.set_defaults(func=_cmd_bench, report="{}.json", documents=None)
    p.add_argument("corpus", help="directory of instance *.json documents")
    p.add_argument("--out", help="output prefix: writes PREFIX.json and PREFIX.csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
