"""CLI subcommands: exit codes, report files, determinism."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patrolsched
from patrolsched import (Schedule, held_karp_tsp, load_instance, make_instance,
                         minmax_tree_cover, partition_tree_cover_oracle,
                         plan, point_cost, schedule_to_document,
                         serialize_instance, weighted_objective)
from patrolsched.cli import _write_json, main
from conftest import random_instance


@pytest.fixture
def triangle_file(tmp_path, unit_triangle):
    path = tmp_path / "triangle.json"
    path.write_text(serialize_instance(unit_triangle))
    return path


@pytest.fixture
def triangle_schedule_file(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"visits": ["a", "b", "a", "c"]}))
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


def stripped(path):
    doc = read_json(path)
    doc.pop("timings")
    return json.dumps(doc, sort_keys=True)


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so a raw traceback would show."""
    src = str(Path(patrolsched.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from patrolsched.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, timeout=10, env=env)


def count_calls(monkeypatch, name):
    """Count calls of the package function ``name`` at every module bound to it."""
    modules = [m for m in (patrolsched.cli, patrolsched.schedule, patrolsched.security)
               if hasattr(m, name)]
    original = getattr(modules[0], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, counted)
    return calls


def assert_one_line_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# An array nested far past the interpreter's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def golden_files(tmp_path):
    """Five points in the plane and a schedule that revisits three of them."""
    coords = np.array([(0, 0), (3, 1), (1, 4), (5, 5), (2, 2)], dtype=float)
    dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=-1))
    inst = make_instance(["a", "b", "c", "d", "e"], [1.0, 0.7, 0.3, 0.55, 0.9], dist)
    ipath, spath = tmp_path / "five.json", tmp_path / "five-sched.json"
    ipath.write_text(serialize_instance(inst))
    spath.write_text(json.dumps({"visits": "a e b a d c e b".split()}))
    return ipath, spath


class TestValidate:
    def test_valid_instance(self, tmp_path, triangle_file):
        out = tmp_path / "report.json"
        assert main(["validate", str(triangle_file), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["command"] == "validate"
        assert report["result"]["ok"] is True
        assert report["result"]["violations"] == []
        assert report["result"]["counts"] == {}
        assert len(report["instance"]["sha256"]) == 64

    def test_triangle_violation_exits_1_with_witness(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "labels": ["a", "b", "c"], "weights": [1, 1, 1],
            "metric": {"type": "explicit",
                       "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}}))
        out = tmp_path / "report.json"
        assert main(["validate", str(bad), "--out", str(out)]) == 1
        report = read_json(out)
        assert report["result"]["ok"] is False
        kinds = {v["kind"] for v in report["result"]["violations"]}
        assert kinds == {"triangle"}
        assert [0, 1, 2] in [v["where"] for v in report["result"]["violations"]]
        assert report["result"]["counts"] == {"triangle": 2}

    def test_exact_count_on_a_large_non_metric_in_seconds(self, tmp_path):
        """3,778,570 violating triangles, counted without a Python step per
        violation, so each command answers well within the subprocess's 10 s
        timeout."""
        upper = np.triu(np.random.default_rng(300).uniform(0.1, 2.0, size=(300, 300)), 1)
        path = tmp_path / "random300.json"
        path.write_text(json.dumps({
            "labels": [f"p{i}" for i in range(300)], "weights": [1.0] * 300,
            "metric": {"type": "explicit", "dist": (upper + upper.T).tolist()}}))
        out = tmp_path / "report.json"
        proc = run_cli_process("validate", str(path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout.startswith(f"{path}: INVALID (3778570 violations; first: ")
        assert proc.stdout.count("\n") == 1
        result = read_json(out)["result"]
        assert result["counts"] == {"triangle": 3778570}
        assert len(result["violations"]) == 50
        proc = run_cli_process("plan", str(path))
        assert_one_line_error(proc)
        assert proc.stderr.startswith("error: metric invalid (triangle: 3778570) e.g. ")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_unparsable_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1

    def test_non_string_label_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "labels": [["a"], "b", "c"], "weights": [1, 1, 1],
            "metric": {"type": "explicit",
                       "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}))
        assert main(["validate", str(bad)]) == 1
        assert main(["plan", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("error: point labels must be strings, got ['a']\n") == 2

    @pytest.mark.parametrize("bad", [{}, [1, 2], 10 ** 400],
                             ids=["object", "ragged", "past-float-range"])
    @pytest.mark.parametrize("field", ["weights", "metric.dist", "metric.coords"])
    def test_non_number_in_array_exits_1_with_one_line_error(self, tmp_path, capsys,
                                                             field, bad):
        explicit = {"type": "explicit", "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
        weights, metric = {
            "weights": ([1, bad, 1], explicit),
            "metric.dist": ([1, 1, 1], {"type": "explicit",
                                        "dist": [[0, 1, 1], [1, bad, 1], [1, 1, 0]]}),
            "metric.coords": ([1, 1, 1], {"type": "euclidean",
                                          "coords": [[0, 0], [1, bad], [0, 1]]}),
        }[field]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"], "weights": weights,
                                    "metric": metric}))
        assert main(["validate", str(path)]) == 1
        assert main(["plan", str(path)]) == 1
        message = f"error: '{field}' must be an array of numbers with rows of equal length\n"
        assert capsys.readouterr().err == message * 2

    def test_deeply_nested_instance_exits_1_with_one_line_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"labels": ["a", "b", "c"], "weights": [1, 1, 1], '
                        '"metric": {"type": "explicit", "dist": ' + DEEP + '}}')
        for command in ("validate", "plan"):
            proc = run_cli_process(command, str(path))
            assert_one_line_error(proc)
            assert proc.stderr.startswith(
                f"error: {path}: not valid JSON: maximum recursion depth")

    def test_negative_weight_message_prints_the_value(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c"], "weights": [1, -1, 1],
            "metric": {"type": "explicit",
                       "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == ("error: weights must be finite and strictly "
                                           "positive; weight[1]=-1.0\n")

    def test_weight_that_normalizes_to_0_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c"], "weights": [1e308, 1e-308, 1],
            "metric": {"type": "explicit",
                       "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}))
        assert main(["validate", str(path)]) == 1
        assert main(["plan", str(path)]) == 1
        message = ("error: weight[1] of point 'b' normalizes to 0 against the largest "
                   "weight 1e+308\n")
        assert capsys.readouterr().err == message * 2

    def test_reports_the_path_as_given_like_plan(self, tmp_path, monkeypatch, unit_triangle):
        (tmp_path / "x.json").write_text(serialize_instance(unit_triangle))
        monkeypatch.chdir(tmp_path)
        paths = []
        for command in ("validate", "plan"):
            assert main([command, "./x.json", "--out", f"{command}.json"]) == 0
            paths.append(read_json(f"{command}.json")["instance"]["path"])
        assert paths == ["./x.json", "./x.json"]


class TestInstanceDigest:
    def test_sha256_is_over_the_file_bytes(self, tmp_path, unit_triangle):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        path = corpus / "crlf.json"
        text = json.dumps(unit_triangle.to_document(), indent=2)
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert b"\r\n" in path.read_bytes()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for command in ("validate", "plan"):
            out = tmp_path / f"{command}.json"
            assert main([command, str(path), "--out", str(out)]) == 0
            assert read_json(out)["instance"]["sha256"] == digest
        prefix = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 0
        assert read_json(f"{prefix}.json")["result"]["rows"][0]["sha256"] == digest


NOT_UTF8 = "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestInputFiles:
    """Every input file is read as bytes and parsed by ``instance.loads``."""

    def test_non_utf8_file_names_its_path(self, tmp_path, triangle_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + triangle_file.read_bytes())
        for argv in (["validate", bad], ["plan", bad],
                     ["eval", triangle_file, bad], ["mix", triangle_file, bad]):
            assert main([str(arg) for arg in argv]) == 1
            assert capsys.readouterr().err == f"error: {bad}: {NOT_UTF8}\n"

    def test_non_utf8_corpus_entry_is_a_failed_row(self, tmp_path, triangle_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        bad = corpus / "bad.json"
        bad.write_bytes(b"\xff" + triangle_file.read_bytes())
        prefix = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 0
        [row] = read_json(f"{prefix}.json")["result"]["rows"]
        assert row["status"] == "failed"
        assert row["error"] == f"{bad}: {NOT_UTF8}"
        assert row["sha256"] == hashlib.sha256(bad.read_bytes()).hexdigest()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter reads integers of any length")
    def test_integer_too_long_to_read_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"labels": ["a", "b", "c"], "weights": [1, 1, 1' + "0" * 4999
                        + '], "metric": {"type": "explicit", '
                          '"dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}')
        for command in ("validate", "plan"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: {path}: not valid JSON: Exceeds the limit (4300 digits)")


class TestGen:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
        inst = load_instance(out.read_text())
        assert inst.n == 8

    def test_deterministic_bytes_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--n", "6", "--seed", "11", "--weight-law", "pareto"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n_exits_1(self, tmp_path):
        assert main(["gen", "--n", "2", "--out", str(tmp_path / "x.json")]) == 1

    def test_impossible_size_exits_1_with_one_line_error(self, capsys):
        # numpy refuses the n x n cost matrix before it allocates anything
        assert main(["gen", "--n", "10000000", "--geometry", "random-closure"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("geometry, metric", [("euclidean-plane", "euclidean"),
                                                  ("random-closure", "explicit")])
    def test_writes_euclidean_instances_as_coordinates(self, tmp_path, geometry, metric):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "6", "--geometry", geometry, "--out", str(out)]) == 0
        assert read_json(out)["metric"]["type"] == metric


class TestCoordinateDocuments:
    """An explicit and a coordinate copy of one instance give the same reports,
    except the instance's SHA-256 and the timings."""

    @staticmethod
    def assert_same_reports(tmp_path, monkeypatch, inst, runs):
        """Run ``plan --schedule-out sched.json``, write ``strategy.json`` from
        that schedule, then every run, on each copy; each copy is ``inst.json``
        in its own directory, so the reported paths agree."""
        doc = inst.to_document()
        assert doc["metric"]["type"] == "euclidean"
        copies = {"coords": doc,
                  "explicit": {**doc, "metric": {"type": "explicit", "dist": inst.dist.tolist()}}}
        outputs, digests = {}, {}
        for name, copy in copies.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("inst.json").write_text(json.dumps(copy))
            assert main(["plan", "inst.json", "--schedule-out", "sched.json"]) == 0
            Path("strategy.json").write_text(json.dumps(
                {"entries": [{"schedule": read_json("sched.json"), "prob": 1.0}]}))
            outputs[name] = [read_json("sched.json")]
            for argv in runs:
                assert main([*argv, "--out", "report.json"]) == 0, argv
                report = read_json("report.json")
                report.pop("timings")
                digests.setdefault(name, set()).add(report["instance"].pop("sha256"))
                outputs[name].append(report)
        assert outputs["coords"] == outputs["explicit"]
        assert len(digests["coords"]) == len(digests["explicit"]) == 1
        assert digests["coords"] != digests["explicit"]

    def test_plan_eval_attack_mix_and_covers(self, tmp_path, monkeypatch):
        self.assert_same_reports(tmp_path, monkeypatch, random_instance(4, 40, "pareto"), [
            ["validate", "inst.json"], ["plan", "inst.json"],
            ["eval", "inst.json", "sched.json", "--p", "2", "--p", "3", "--p", "inf"],
            ["attack", "inst.json", "sched.json"], ["mix", "inst.json", "strategy.json"],
            ["treecover", "inst.json", "--k", "3"]])

    def test_oracles(self, tmp_path, monkeypatch):
        self.assert_same_reports(tmp_path, monkeypatch, random_instance(2, 6), [
            ["oracle-tsp", "inst.json"], ["oracle-opt", "inst.json", "--max-period", "7"],
            ["oracle-cover", "inst.json", "--k", "2"]])


class TestPlan:
    def test_triangle_report(self, tmp_path, triangle_file, unit_triangle):
        out = tmp_path / "plan.json"
        sched_out = tmp_path / "sched.json"
        assert main(["plan", str(triangle_file), "--out", str(out),
                     "--schedule-out", str(sched_out)]) == 0
        report = read_json(out)
        assert report["result"]["schedule"]["visits"] == ["a", "b", "a", "c"]
        assert report["result"]["objective_inf"] == 2.0
        assert report["result"]["lower_bound"] == 1.5
        assert report["result"]["envelope_limit"] == 36.0
        assert all(report["invariants"].values())
        assert read_json(sched_out) == {"visits": ["a", "b", "a", "c"]}

    def test_reports_byte_identical_without_timings(self, tmp_path, triangle_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", str(triangle_file), "--out", str(a)]) == 0
        assert main(["plan", str(triangle_file), "--out", str(b)]) == 0
        assert stripped(a) == stripped(b)


class TestEval:
    def test_objectives_match_library(self, tmp_path, triangle_file,
                                      triangle_schedule_file, unit_triangle):
        out = tmp_path / "eval.json"
        assert main(["eval", str(triangle_file), str(triangle_schedule_file),
                     "--p", "2", "--p", "inf", "--out", str(out)]) == 0
        per_p = read_json(out)["result"]["per_p"]
        s = Schedule((0, 1, 0, 2))
        assert per_p["2"]["objective"] == weighted_objective(s, unit_triangle, 2.0)
        assert per_p["inf"]["objective"] == weighted_objective(s, unit_triangle, math.inf)
        assert per_p["2"]["objective"] <= per_p["inf"]["objective"]
        assert per_p["inf"]["point_costs"]["b"] == 4.0

    def test_one_profile_pass_and_library_values(self, tmp_path, monkeypatch):
        inst = random_instance(3, 9)
        ipath, spath = tmp_path / "inst.json", tmp_path / "sched.json"
        ipath.write_text(serialize_instance(inst))
        s = Schedule((0, 4, 1, 5, 0, 2, 6, 3, 0, 7, 8, 4))
        spath.write_text(json.dumps(schedule_to_document(s, inst)))
        calls = count_calls(monkeypatch, "_profiles")
        out = tmp_path / "eval.json"
        assert main(["eval", str(ipath), str(spath), "--p", "2", "--p", "3", "--p", "inf",
                     "--out", str(out)]) == 0
        assert calls == [1]
        per_p = read_json(out)["result"]["per_p"]
        for key, p in (("2", 2.0), ("3", 3.0), ("inf", math.inf)):
            assert per_p[key]["objective"] == weighted_objective(s, inst, p)
            assert per_p[key]["point_costs"] == {
                inst.labels[x]: point_cost(s, x, inst, p) for x in range(inst.n)}

    def test_float_hex_golden(self, tmp_path, golden_files):
        # exact bits, captured from the earlier numpy profile kernel
        out = tmp_path / "eval.json"
        assert main(["eval", *map(str, golden_files), "--p", "2", "--p", "3", "--p", "inf",
                     "--out", str(out)]) == 0
        res = read_json(out)["result"]
        assert res["period"].hex() == "0x1.96961f57d224fp+4"
        hexed = {key: (entry["objective"].hex(),
                       " ".join(c.hex() for c in entry["point_costs"].values()))
                 for key, entry in res["per_p"].items()}
        assert hexed == {
            "2": ("0x1.dd5b2bcd9db22p+3",
                  "0x1.dd5b2bcd9db22p+3 0x1.dd5b2bcd9db23p+3 0x1.96961f57d224ep+4 "
                  "0x1.96961f57d224ep+4 0x1.dd5b2bcd9db23p+3"),
            "3": ("0x1.079231a2b0a8fp+4",
                  "0x1.079231a2b0a8fp+4 0x1.079231a2b0a8fp+4 0x1.96961f57d2250p+4 "
                  "0x1.96961f57d2250p+4 0x1.079231a2b0a8fp+4"),
            "inf": ("0x1.201b93ae9fbaep+4",
                    "0x1.201b93ae9fbaep+4 0x1.201b93ae9fbaep+4 0x1.96961f57d224fp+4 "
                    "0x1.96961f57d224fp+4 0x1.201b93ae9fbaep+4"),
        }

    def test_deeply_nested_schedule_exits_1_with_one_line_error(self, tmp_path,
                                                               triangle_file):
        sched = tmp_path / "deep.json"
        sched.write_text('{"visits": ' + DEEP + '}')
        for command in ("eval", "attack"):
            proc = run_cli_process(command, str(triangle_file), str(sched))
            assert_one_line_error(proc)
            assert proc.stderr.startswith(f"error: {sched}: not valid JSON: maximum recursion")

    def test_missing_point_reports_unbounded(self, tmp_path, triangle_file):
        sched = tmp_path / "partial.json"
        sched.write_text(json.dumps({"visits": ["a", "b"]}))
        out = tmp_path / "eval.json"
        assert main(["eval", str(triangle_file), str(sched),
                     "--p", "inf", "--out", str(out)]) == 0
        res = read_json(out)["result"]
        assert res["per_p"]["inf"]["objective"] == "unbounded"
        assert res["per_p"]["inf"]["point_costs"]["c"] == "unbounded"

    def test_bad_p_exits_1(self, triangle_file, triangle_schedule_file):
        assert main(["eval", str(triangle_file), str(triangle_schedule_file),
                     "--p", "1.5"]) == 1

    def test_unknown_label_exits_1(self, tmp_path, triangle_file):
        sched = tmp_path / "bad.json"
        sched.write_text(json.dumps({"visits": ["a", "zz"]}))
        assert main(["eval", str(triangle_file), str(sched)]) == 1


class TestOracles:
    def test_oracle_tsp(self, tmp_path, triangle_file, unit_triangle):
        out = tmp_path / "tsp.json"
        assert main(["oracle-tsp", str(triangle_file), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["result"]["value"] == held_karp_tsp(unit_triangle).value

    def test_oracle_tsp_subset(self, tmp_path, triangle_file):
        out = tmp_path / "tsp.json"
        assert main(["oracle-tsp", str(triangle_file),
                     "--subset", "a,b", "--out", str(out)]) == 0
        assert read_json(out)["result"]["value"] == 2.0

    def test_oracle_opt(self, tmp_path, triangle_file):
        out = tmp_path / "opt.json"
        assert main(["oracle-opt", str(triangle_file), "--p", "inf",
                     "--max-period", "4", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["result"]["value"] == 2.0
        assert report["result"]["witness"]["visits"] == ["a", "b", "a", "c"]
        assert report["result"]["search_bound"]["upper_bound_only"] is True

    def test_oracle_cover(self, tmp_path, unit_triangle, triangle_file):
        out = tmp_path / "cover.json"
        assert main(["oracle-cover", str(triangle_file), "--k", "2",
                     "--out", str(out)]) == 0
        exact = partition_tree_cover_oracle(unit_triangle, None, 2)
        assert read_json(out)["result"]["value"] == exact.value

    def test_unknown_subset_label_exits_1(self, triangle_file):
        assert main(["oracle-tsp", str(triangle_file), "--subset", "a,zz"]) == 1


class TestTreecover:
    def test_matches_library(self, tmp_path, triangle_file, unit_triangle):
        out = tmp_path / "tc.json"
        assert main(["treecover", str(triangle_file), "--k", "2",
                     "--out", str(out)]) == 0
        report = read_json(out)
        cover = minmax_tree_cover(unit_triangle, None, 2)
        assert report["result"]["max_cost"] == cover.max_cost
        assert len(report["result"]["trees"]) == len(cover.trees)


class TestAttack:
    def test_triangle_golden(self, tmp_path, triangle_file, triangle_schedule_file):
        out = tmp_path / "attack.json"
        assert main(["attack", str(triangle_file), str(triangle_schedule_file),
                     "--out", str(out)]) == 0
        best = read_json(out)["result"]["best"]
        assert best == {"target": "a", "duration": 1.0, "utility": 0.5}

    def test_float_hex_golden(self, tmp_path, golden_files):
        # exact bits, captured from the earlier numpy profile kernel
        out = tmp_path / "attack.json"
        assert main(["attack", *map(str, golden_files), "--out", str(out)]) == 0
        res = read_json(out)["result"]
        hexed = [(o["target"], o["duration"].hex(), o["utility"].hex())
                 for o in [res["best"], *res["per_target"]]]
        assert hexed == [
            ("d", "0x1.96961f57d224fp+3", "0x1.bf3ebc13cd8f1p+1"),
            ("a", "0x1.201b93ae9fbaep+3", "0x1.984e9dec3c29ep+1"),
            ("b", "0x1.201b93ae9fbaep+3", "0x1.1dd0a1bef6ea2p+1"),
            ("c", "0x1.96961f57d224fp+3", "0x1.e7e758cfc8f92p+0"),
            ("d", "0x1.96961f57d224fp+3", "0x1.bf3ebc13cd8f1p+1"),
            ("e", "0x1.201b93ae9fbaep+3", "0x1.6f79f487cfbf5p+1"),
        ]

    def test_one_per_target_pass(self, triangle_file, triangle_schedule_file, monkeypatch):
        calls = count_calls(monkeypatch, "per_target_best")
        assert main(["attack", str(triangle_file), str(triangle_schedule_file)]) == 0
        assert calls == [1]

    def test_unvisited_target_reports_unbounded(self, tmp_path, triangle_file):
        sched = tmp_path / "partial.json"
        sched.write_text(json.dumps({"visits": ["a", "b"]}))
        out = tmp_path / "attack.json"
        assert main(["attack", str(triangle_file), str(sched),
                     "--out", str(out)]) == 0
        best = read_json(out)["result"]["best"]
        assert best["target"] == "c"
        assert best["utility"] == "unbounded"


class TestMix:
    def test_collapses_strategy(self, tmp_path, triangle_file, unit_triangle):
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a", "b", "c"]}, "prob": 0.75},
            {"schedule": {"visits": ["a", "c", "b"]}, "prob": 0.25}]}))
        out = tmp_path / "mix.json"
        sched_out = tmp_path / "mixed.json"
        assert main(["mix", str(triangle_file), str(strat),
                     "--out", str(out), "--schedule-out", str(sched_out)]) == 0
        mixed_doc = read_json(sched_out)
        mixed = Schedule(tuple(unit_triangle.index(l) for l in mixed_doc["visits"]))
        for x in range(3):
            base = (0.75 * point_cost(Schedule((0, 1, 2)), x, unit_triangle, 2.0)
                    + 0.25 * point_cost(Schedule((0, 2, 1)), x, unit_triangle, 2.0))
            assert point_cost(mixed, x, unit_triangle, 2.0) <= 8.0 * base * (1 + 1e-9)

    def test_lone_tour_is_emitted_once(self, tmp_path, capsys):
        """The one-entry strategy from an 8-point plan's 16-visit schedule: the
        tour comes back as it is, with the schedule's own weighted C2."""
        inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
        assert main(["gen", "--n", "8", "--seed", "1", "--out", str(inst_path)]) == 0
        assert main(["plan", str(inst_path), "--schedule-out", str(sched_path)]) == 0
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps({"entries": [
            {"schedule": read_json(sched_path), "prob": 1.0}]}))
        capsys.readouterr()
        out = tmp_path / "mix.json"
        assert main(["mix", str(inst_path), str(strat), "--out", str(out)]) == 0
        assert "collapsed to one tour with 16 visits" in capsys.readouterr().out
        inst = load_instance(inst_path.read_text())
        lone = Schedule(tuple(inst.index(l) for l in read_json(sched_path)["visits"]))
        result = read_json(out)["result"]
        assert result["visits"] == len(lone) == 16
        assert result["schedule"] == read_json(sched_path)
        assert result["objective_2"] == weighted_objective(lone, inst, 2.0)

    def test_one_point_instance_exits_0_with_empty_stderr(self, tmp_path):
        inst = tmp_path / "one.json"
        inst.write_text(serialize_instance(make_instance(["a"], [1.0], [[0.0]])))
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a"]}, "prob": 1.0}]}))
        out = tmp_path / "mix.json"
        proc = run_cli_process("mix", str(inst), str(strat), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert read_json(out)["result"]["schedule"] == {"visits": ["a"]}

    def test_bad_probabilities_exit_1(self, tmp_path, triangle_file):
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a", "b", "c"]}, "prob": 0.9}]}))
        assert main(["mix", str(triangle_file), str(strat)]) == 1

    def test_deeply_nested_strategy_exits_1_with_one_line_error(self, tmp_path,
                                                               triangle_file):
        strat = tmp_path / "deep.json"
        strat.write_text('{"entries": ' + DEEP + '}')
        proc = run_cli_process("mix", str(triangle_file), str(strat))
        assert_one_line_error(proc)
        assert proc.stderr.startswith(f"error: {strat}: not valid JSON: maximum recursion")

    @pytest.mark.parametrize("prob", [[1], {"p": 1}, None, True, "1", 10 ** 400],
                             ids=["array", "object", "null", "bool", "string",
                                  "past-float-range"])
    def test_non_number_prob_exits_1_with_one_line_error(self, tmp_path, triangle_file,
                                                         prob):
        strat = tmp_path / "strategy.json"
        strat.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a", "b", "c"]}, "prob": prob}]}))
        proc = run_cli_process("mix", str(triangle_file), str(strat))
        assert_one_line_error(proc)
        assert "strategy entry 0" in proc.stderr


class TestBench:
    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, seed in enumerate((1, 2)):
            out = corpus / f"inst{i}.json"
            assert main(["gen", "--n", "5", "--seed", str(seed),
                         "--out", str(out)]) == 0
        (corpus / "invalid.json").write_text(json.dumps({
            "labels": ["a", "b", "c"], "weights": [1, 1, 1],
            "metric": {"type": "explicit",
                       "dist": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}}))
        return corpus

    def test_failed_rows_recorded_run_continues(self, tmp_path, corpus):
        prefix = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 0
        report = read_json(f"{prefix}.json")
        rows = report["result"]["rows"]
        assert [r["file"] for r in rows] == ["inst0.json", "inst1.json", "invalid.json"]
        by_file = {r["file"]: r for r in rows}
        assert by_file["invalid.json"]["status"] == "failed"
        assert by_file["inst0.json"]["status"] == "ok"
        assert by_file["inst0.json"]["envelope_ok"] is True
        summary = report["result"]["summary"]
        assert summary["instances"] == 3
        assert summary["ok"] == 2
        assert summary["failed"] == 1
        assert summary["all_envelopes_ok"] is True
        with open(f"{prefix}.csv") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert [r["file"] for r in csv_rows] == [r["file"] for r in rows]
        assert csv_rows[2]["status"] == "failed"

    def test_byte_identical_without_timings(self, tmp_path, corpus):
        p1, p2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["bench", str(corpus), "--out", str(p1)]) == 0
        assert main(["bench", str(corpus), "--out", str(p2)]) == 0
        assert stripped(f"{p1}.json") == stripped(f"{p2}.json")
        assert Path(f"{p1}.csv").read_bytes() == Path(f"{p2}.csv").read_bytes()

    def test_unreadable_entry_is_a_failed_row(self, tmp_path, corpus):
        (corpus / "sub.json").mkdir()
        prefix = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 0
        rows = read_json(f"{prefix}.json")["result"]["rows"]
        assert [r["file"] for r in rows] == ["inst0.json", "inst1.json", "invalid.json",
                                            "sub.json"]
        assert rows[3]["status"] == "failed"
        assert "Is a directory" in rows[3]["error"]
        assert rows[3]["sha256"] is None
        assert [r["status"] for r in rows[:2]] == ["ok", "ok"]
        with open(f"{prefix}.csv") as fh:
            assert list(csv.DictReader(fh))[3]["status"] == "failed"

    def test_a_row_that_runs_out_of_memory_fails_alone(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in (1, 2, 3):
            assert main(["gen", "--n", "5", "--seed", str(seed),
                         "--out", str(corpus / f"inst{seed}.json")]) == 0
        calls = []

        def second_runs_out_of_memory(inst):
            calls.append(inst)
            if len(calls) == 2:
                raise MemoryError("out of memory")
            return plan(inst)
        monkeypatch.setattr(patrolsched.cli, "plan", second_runs_out_of_memory)
        prefix = tmp_path / "bench"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 0
        rows = read_json(f"{prefix}.json")["result"]["rows"]
        assert [(r["file"], r["status"], r["error"]) for r in rows] == [
            ("inst1.json", "ok", None), ("inst2.json", "failed", "out of memory"),
            ("inst3.json", "ok", None)]

    def test_empty_corpus_ok(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        prefix = tmp_path / "bench"
        assert main(["bench", str(empty), "--out", str(prefix)]) == 0
        assert read_json(f"{prefix}.json")["result"]["rows"] == []

    def test_missing_corpus_exits_2(self, tmp_path):
        assert main(["bench", str(tmp_path / "nowhere")]) == 2

    def test_report_that_cannot_be_written_leaves_no_csv(self, tmp_path, triangle_file,
                                                         monkeypatch, capsys):
        def infinite_ratio(inst):
            res = plan(inst)
            return dataclasses.replace(
                res, diagnostics={**res.diagnostics, "envelope_ratio": math.inf})
        monkeypatch.setattr(patrolsched.cli, "plan", infinite_ratio)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "triangle.json").write_bytes(triangle_file.read_bytes())
        prefix = tmp_path / "b"
        assert main(["bench", str(corpus), "--out", str(prefix)]) == 1
        assert capsys.readouterr().err == ("error: bench: report field "
                                           "result.rows[0].envelope_ratio is inf\n")
        assert not Path(f"{prefix}.csv").exists()
        assert not Path(f"{prefix}.json").exists()


def report_leaves(doc, path=()):
    """Every (key path, value) of a report; list items share their list's path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from report_leaves(value, (*path, key))
    elif isinstance(doc, list):
        for value in doc:
            yield from report_leaves(value, path)
    else:
        yield path, doc


def unbounded_allowed(command, path):
    """eval's objectives and point costs, attack's durations and utilities."""
    if command == "eval":
        return path[:2] == ("result", "per_p") and path[3] in ("objective", "point_costs")
    if command == "attack":
        return (path[:2] in (("result", "best"), ("result", "per_target"))
                and path[-1] in ("duration", "utility"))
    return False


class TestReportPolicy:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_write_json_refuses_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            _write_json({"result": {"value": value}}, str(path))
        assert not path.exists()

    def test_non_finite_field_is_named_in_key_order(self, tmp_path):
        doc = {"z": math.inf, "a": [{"b": 1.0}, {"c": [2.0, -math.inf]}]}
        with pytest.raises(ValueError, match=r"^schedule field a\[1\]\.c\[1\] is -inf$"):
            _write_json(doc, str(tmp_path / "doc.json"), "schedule")

    def test_unexpected_inf_is_an_error_not_unbounded(self, tmp_path, triangle_file,
                                                       monkeypatch, capsys):
        cover = minmax_tree_cover

        def infinite_budget(*args, **kwargs):
            return dataclasses.replace(cover(*args, **kwargs), budget_used=math.inf)
        monkeypatch.setattr(patrolsched.cli, "minmax_tree_cover", infinite_budget)
        out = tmp_path / "treecover.json"
        assert main(["treecover", str(triangle_file), "--k", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: treecover: report field result.budget is inf\n"
        assert not out.exists()

    def test_every_written_document_is_one_line_of_sorted_key_json(
            self, tmp_path, triangle_file, triangle_schedule_file, capsys):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a", "b", "c"]}, "prob": 1.0}]}))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        tri, sched = str(triangle_file), str(triangle_schedule_file)
        runs = [["gen", "--n", "5", "--out", str(corpus / "gen.json")],
                ["plan", tri, "--out", str(tmp_path / "plan.json"),
                 "--schedule-out", str(tmp_path / "plan-sched.json")],
                ["eval", tri, sched, "--out", str(tmp_path / "eval.json")],
                ["attack", tri, sched, "--out", str(tmp_path / "attack.json")],
                ["mix", tri, str(strategy), "--out", str(tmp_path / "mix.json"),
                 "--schedule-out", str(tmp_path / "mix-sched.json")],
                ["bench", str(corpus), "--out", str(tmp_path / "bench")]]
        for argv in runs:
            assert main(argv) == 0, argv
        assert main(["gen", "--n", "5"]) == 0
        written = [capsys.readouterr().out.splitlines()[-1] + "\n"]
        written += [path.read_text() for path in sorted(tmp_path.glob("**/*.json"))
                    if path not in (triangle_file, triangle_schedule_file, strategy)]
        assert len(written) == 9
        for text in written:
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_unbounded_only_where_a_point_goes_unvisited(self, tmp_path, triangle_file,
                                                         triangle_schedule_file):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"visits": ["a", "b"]}))
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"entries": [
            {"schedule": {"visits": ["a", "b", "c"]}, "prob": 1.0}]}))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "triangle.json").write_bytes(triangle_file.read_bytes())
        tri = str(triangle_file)
        runs = [["validate", tri], ["plan", tri],
                ["eval", tri, str(triangle_schedule_file)], ["eval", tri, str(partial)],
                ["oracle-tsp", tri], ["oracle-opt", tri], ["oracle-cover", tri, "--k", "2"],
                ["treecover", tri, "--k", "2"],
                ["attack", tri, str(triangle_schedule_file)], ["attack", tri, str(partial)],
                ["mix", tri, str(strategy)], ["bench", str(corpus)]]
        unbounded = set()
        for i, argv in enumerate(runs):
            out = tmp_path / f"report-{i}"
            assert main([*argv, "--out", str(out)]) == 0, argv
            report = read_json(f"{out}.json" if argv[0] == "bench" else out)
            for path, value in report_leaves(report):
                if isinstance(value, float):
                    assert math.isfinite(value), (argv, path)
                if value == "unbounded":
                    assert unbounded_allowed(argv[0], path), (argv, path)
                    unbounded.add((argv[0], path[-1]))
        assert {command for command, _ in unbounded} == {"eval", "attack"}
        assert ("eval", "c") in unbounded and ("attack", "utility") in unbounded


class TestUsage:
    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    def test_one_parser_per_process(self, triangle_file):
        assert patrolsched.cli._build_parser() is patrolsched.cli._build_parser()
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        assert main(["validate", str(triangle_file)]) == 0
        assert main(["validate", str(triangle_file)]) == 0

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_oracle_opt_small_max_period_exits_1(self, triangle_file):
        assert main(["oracle-opt", str(triangle_file), "--max-period", "1"]) == 1


_TRIANGLE = {"labels": ["a", "b", "c"], "weights": [1, 1, 1],
             "metric": {"type": "explicit", "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}


class TestInputErrors:
    @pytest.mark.parametrize("command, instance, flags, message", [
        ("validate", {"labels": [], "weights": [], "metric": {"type": "explicit", "dist": []}},
         [], "instance needs at least one point"),
        ("validate", {**_TRIANGLE, "weights": [1, 1]}, [], "expected 3 weights, got shape (2,)"),
        ("validate", {**_TRIANGLE, "metric": {"type": "explicit", "dist": [[0, 1], [1, 0]]}},
         [], "expected a 3x3 distance matrix, got shape (2, 2)"),
        ("validate", {**_TRIANGLE, "metric": {"dist": _TRIANGLE["metric"]["dist"]}},
         [], "'metric' must be an object with a 'type'"),
        ("validate", {**_TRIANGLE, "metric": {"type": "explicit"}},
         [], "explicit metric needs a 'dist' matrix"),
        ("validate", {**_TRIANGLE, "metric": {"type": "euclidean"}},
         [], "euclidean metric needs a 'coords' array"),
        ("eval", _TRIANGLE, ["sched.json", "--p", "abc"],
         "--p must be 'inf' or a number >= 2, got 'abc'"),
        ("oracle-tsp", _TRIANGLE, ["--subset", ","], "--subset must list at least one label"),
        ("treecover", _TRIANGLE, ["--k", "0"], "k must be at least 1, got 0"),
        ("oracle-cover", _TRIANGLE, ["--k", "0"], "k must be at least 1, got 0"),
        ("oracle-opt", "seven points", [], "brute force is limited to 6 points, got 7"),
    ], ids=["empty-instance", "weight-count", "dist-shape", "metric-without-type",
            "explicit-without-dist", "euclidean-without-coords", "eval-p-abc",
            "oracle-tsp-empty-subset", "treecover-k0", "oracle-cover-k0", "oracle-opt-7-points"])
    def test_exits_1_with_one_line_error(self, tmp_path, capsys, command, instance, flags,
                                         message):
        path = tmp_path / "inst.json"
        if instance == "seven points":
            assert main(["gen", "--n", "7", "--seed", "1", "--out", str(path)]) == 0
        else:
            path.write_text(json.dumps(instance))
        (tmp_path / "sched.json").write_text(json.dumps({"visits": ["a", "b", "c"]}))
        flags = [str(tmp_path / x) if x.endswith(".json") else x for x in flags]
        capsys.readouterr()
        assert main([command, str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def write_equidistant(tmp_path, dist, weights):
    """An instance file with every pair of points ``dist`` apart; its labels."""
    n = len(weights)
    labels = [f"p{i}" for i in range(n)]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "labels": labels, "weights": weights,
        "metric": {"type": "explicit", "dist": [
            [0.0 if i == j else dist for j in range(n)] for i in range(n)]}}))
    return path, labels


class TestExtremeScales:
    """Distances at the ends of the double range plan or fail cleanly, never hang."""

    @pytest.mark.parametrize("command, dist, weights, message", [
        ("plan", 1e308, [1, 1], ""),               # sums overflow to inf
        ("plan", 1e308, [1, 1, 1], ""),            # the class MST overflows to inf
        ("oracle-tsp", 1e308, [1, 1, 1], ""),      # every tour overflows to inf
        ("eval", 1e308, [1, 1, 1], "period overflows"),  # the period overflows to inf
        ("attack", 1e308, [1, 1, 1], "period overflows"),
        # every candidate of the exhaustive oracles scores inf
        ("oracle-opt", 1e308, [1, 1, 1], "objective overflows"),
        ("oracle-cover --k 1", 1e308, [1, 1, 1], "tree cost overflows"),
    ], ids=["plan-overflow", "plan-mst-overflow",
         "oracle-tsp-overflow", "eval-overflow", "attack-overflow",
         "oracle-opt-overflow", "oracle-cover-overflow"])
    def test_exits_1_with_one_line_error(self, tmp_path, command, dist, weights, message):
        path, labels = write_equidistant(tmp_path, dist, weights)
        command, *flags = command.split()
        inputs = [str(path), *flags]
        if command in ("eval", "attack"):
            sched = tmp_path / "sched.json"
            sched.write_text(json.dumps({"visits": labels}))
            inputs.append(str(sched))
        proc = run_cli_process(command, *inputs, "--out", str(tmp_path / "report.json"))
        assert_one_line_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("command, inputs, read, expected", [
        ("plan", [], lambda r: (r["objective_inf"], r["objective_2"], r["lower_bound"]),
         (2e200, 2e200, 1.5e200)),
        ("eval", ["sched.json"],
         lambda r: (r["per_p"]["2"]["objective"], r["per_p"]["inf"]["objective"]),
         (2e200, 2e200)),
        ("attack", ["sched.json"],
         lambda r: (r["best"]["target"], r["best"]["duration"], r["best"]["utility"]),
         ("p0", 1e200, 0.5e200)),
        ("mix", ["strategy.json"], lambda r: (r["period"], r["objective_2"]), (4e200, 2e200)),
        ("oracle-opt", ["--p", "2"], lambda r: r["value"], 3e200),
    ], ids=["plan", "eval", "attack", "mix", "oracle-opt-p2"])
    def test_huge_finite_distances_answer_exactly(self, tmp_path, command, inputs,
                                                  read, expected):
        """The unit triangle 1e200 apart: l^2 and t * excess pass the float
        range, and every answer is the unit triangle's times 1e200."""
        path, _ = write_equidistant(tmp_path, 1e200, [1, 0.5, 0.5])
        sched = {"visits": ["p0", "p1", "p0", "p2"]}
        (tmp_path / "sched.json").write_text(json.dumps(sched))
        (tmp_path / "strategy.json").write_text(
            json.dumps({"entries": [{"schedule": sched, "prob": 1.0}]}))
        inputs = [str(tmp_path / x) if x.endswith(".json") else x for x in inputs]
        out = tmp_path / "report.json"
        proc = run_cli_process(command, str(path), *inputs, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert read(read_json(out)["result"]) == expected

    @pytest.mark.parametrize("dist", [1e-170, 1e-300])
    def test_tiny_distances_do_not_cost_a_silent_0(self, tmp_path, dist):
        """The unit triangle's answers scaled down, where l^2 and t * excess underflow."""
        path, _ = write_equidistant(tmp_path, dist, [1, 0.5, 0.5])
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"visits": ["p0", "p1", "p0", "p2"]}))
        for command, *inputs in (("plan", path), ("eval", path, sched), ("attack", path, sched)):
            out = tmp_path / f"{command}.json"
            assert main([command, *map(str, inputs), "--out", str(out)]) == 0
        plan_result = read_json(tmp_path / "plan.json")["result"]
        assert plan_result["objective_2"] == plan_result["objective_inf"] == 2 * dist
        per_p = read_json(tmp_path / "eval.json")["result"]["per_p"]
        assert per_p["2"]["objective"] == per_p["inf"]["objective"] == 2 * dist
        best = read_json(tmp_path / "attack.json")["result"]["best"]
        assert (best["duration"], best["utility"]) == (dist, dist / 2)

    @pytest.mark.parametrize("dist, weights, best", [
        (1e-320, [1, 0.5, 0.5], ("p0", 1e-320, 5e-321)),
        (5e-324, [1, 1, 1], ("p1", 1e-323, 5e-324)),
    ], ids=["subnormal", "smallest-subnormal"])
    def test_attack_utility_that_is_itself_subnormal(self, tmp_path, dist, weights, best):
        """The best utility of `a b a c` is a subnormal number: duration and
        utility are read at their rounded values, not as a silent 0."""
        path, _ = write_equidistant(tmp_path, dist, weights)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"visits": ["p0", "p1", "p0", "p2"]}))
        out = tmp_path / "attack.json"
        assert main(["attack", str(path), str(sched), "--out", str(out)]) == 0
        got = read_json(out)["result"]["best"]
        assert (got["target"], got["duration"], got["utility"]) == best

    @pytest.mark.parametrize("p", ["50", "200", "2000"])
    def test_high_order_cost_at_small_distances(self, tmp_path, p):
        """0.001 apart, l^200 and l^2000 underflow; every cost of `a b a c` is 0.004."""
        path, _ = write_equidistant(tmp_path, 0.001, [1, 1, 1])
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"visits": ["p0", "p1", "p0", "p2"]}))
        out = tmp_path / "eval.json"
        assert main(["eval", str(path), str(sched), "--p", p, "--out", str(out)]) == 0
        assert read_json(out)["result"]["per_p"][p]["objective"] == 0.004
        assert main(["oracle-opt", str(path), "--p", p, "--out", str(out)]) == 0
        assert read_json(out)["result"]["value"] == 0.003

    @pytest.mark.parametrize("n, p", [(40, "400"), (8, "2000")])
    def test_high_order_cost_of_a_plan(self, tmp_path, n, p):
        """l^p overflows on a generated plan's longer gaps; every point's cost
        is still nondecreasing in p up to its longest gap."""
        inst, sched, out = (tmp_path / name for name in ("inst.json", "sched.json", "eval.json"))
        assert main(["gen", "--n", str(n), "--seed", "1", "--out", str(inst)]) == 0
        assert main(["plan", str(inst), "--schedule-out", str(sched)]) == 0
        ps = ["2", "3", "50", p, "inf"]
        assert main(["eval", str(inst), str(sched), *(f"--p={q}" for q in ps),
                     "--out", str(out)]) == 0
        per_p = read_json(out)["result"]["per_p"]
        for label in per_p["inf"]["point_costs"]:
            costs = [per_p[q]["point_costs"][label] for q in ps]
            for lo, hi in zip(costs, costs[1:]):
                assert lo <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("dist, weights", [
        (5e-324, [1, 1, 1]),           # the smallest subnormal: one cover at the MST cost
        (1e-320, [1, 0.5, 0.5, 0.5]),  # a subnormal two-tree class cover
    ], ids=["plan-underflow", "plan-subnormal"])
    def test_plans_at_subnormal_scale(self, tmp_path, dist, weights):
        path, _ = write_equidistant(tmp_path, dist, weights)
        out = tmp_path / "report.json"
        proc = run_cli_process("plan", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = read_json(out)
        assert all(report["invariants"].values()), report["invariants"]
        lb, obj = report["result"]["lower_bound"], report["result"]["objective_inf"]
        assert 0.0 < lb <= obj < math.inf
