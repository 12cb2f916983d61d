"""CLI contract: golden-file determinism, exit codes, report stability.

Everything algorithmic is tested elsewhere; these tests treat the CLI as a
black box over files.
"""

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iknap.cli import main
from iknap.generators import FAMILIES
from iknap.serialize import chain_from_obj, load_instance
from iknap import Chain, is_feasible, profit_phi, profit_phi_bar, validate_instance
from helpers import RECHECK_ONLY_VIOLATION


def run(*argv):
    return main([str(a) for a in argv])


def edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


K3_EDGES = "3 3\n0 1\n1 2\n0 2\n"
#: A JSON array nested deeper than json can decode within the recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestGenerate:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("generate", "--family", "uniform-classes", "--n", 7, "-T", 2,
                   "--seed", 9, "--out", a, "--quiet") == 0
        assert run("generate", "--family", "uniform-classes", "--n", 7, "-T", 2,
                   "--seed", 9, "--out", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(1, 12),
        horizon=st.integers(1, 4),
        seed=st.integers(-(2**64), 2**64),
    )
    def test_fuzzed_generate_repeats_byte_for_byte_then_solves_and_verifies(
        self, family, n, horizon, seed
    ):
        with tempfile.TemporaryDirectory() as tmp:
            a, b, report = (Path(tmp) / name for name in ("a.json", "b.json", "r.json"))
            for out in (a, b):
                assert run_captured("generate", "--family", family, "--n", n, "-T", horizon,
                                    "--seed", seed, "--out", out) == (0, "")
            assert a.read_bytes() == b.read_bytes()
            assert run_captured("solve", "--instance", a, "--out", report) == (0, "")
            assert run_captured("verify", "--instance", a, "--report", report) == (0, "")

    # sha256 over the files of seeds 0-19, in seed order.  Existing families
    # keep writing the same bytes for a seed, whatever else changes.
    PINNED_FILES = [
        ("graphic-classes", 8, 3, "a075cc88b737"),
        ("graphic-classes", 40, 4, "edee8b17140d"),
        ("modular", 8, 3, "9485997812f8"),
        ("modular", 40, 4, "2fc9272f4634"),
        ("partition-classes", 8, 3, "4403e40f3549"),
        ("partition-classes", 40, 4, "f756983e299d"),
        ("uniform-classes", 8, 3, "7608f4ced390"),
        ("uniform-classes", 40, 4, "5a4ad889ff28"),
    ]

    @pytest.mark.parametrize("family, n, horizon, expected", PINNED_FILES)
    def test_generated_files_are_pinned(self, tmp_path, family, n, horizon, expected):
        digest = hashlib.sha256()
        for seed in range(20):
            out = tmp_path / f"{seed}.json"
            assert run("generate", "--family", family, "--n", n, "-T", horizon,
                       "--seed", seed, "--out", out, "--quiet") == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest()[:12] == expected

    def test_every_family_validates(self, tmp_path, capsys):
        for fam in ["modular", "uniform-classes", "partition-classes", "graphic-classes"]:
            out = tmp_path / f"{fam}.json"
            assert run("generate", "--family", fam, "--n", 6, "-T", 2,
                       "--seed", 4, "--out", out) == 0
            assert fam in capsys.readouterr().out
            assert validate_instance(load_instance(out)) == []

    # The vc-reduction instance file is written by reduce-vc, not generate.
    def test_vc_reduction_from_edge_list(self, tmp_path):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        out = tmp_path / "vc.json"
        assert run("reduce-vc", "--graph", graph, "--k", 1, "--out", out, "--quiet") == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 3 and obj["T"] == 1 and obj["capacities"] == [1]
        assert obj["oracle"]["kind"] == "coverage"

    def test_vc_reduction_takes_horizon(self, tmp_path):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        out = tmp_path / "vc.json"
        assert run("reduce-vc", "--graph", graph, "--k", 2, "-T", 3,
                   "--out", out, "--quiet") == 0
        obj = json.loads(out.read_text())
        assert obj["T"] == 3 and obj["capacities"] == [2, 2, 2] and obj["deltas"] == [1, 1, 1]

    @pytest.mark.parametrize("extra", [("--n", 9), ("--seed", 5), ("--seed", 2024)])
    def test_vc_reduction_rejects_n_and_seed(self, tmp_path, capsys, extra):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        out = tmp_path / "vc.json"
        with pytest.raises(SystemExit) as exc:
            run("reduce-vc", "--graph", graph, "--k", 1, *extra, "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_vc_reduction_without_graph_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "vc.json"
        with pytest.raises(SystemExit) as exc:
            run("reduce-vc", "--k", 1, "--out", out)
        assert exc.value.code == 2
        assert "the following arguments are required: --graph" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["modular", "uniform-classes"])
    @pytest.mark.parametrize("extra", [("--graph", "k3.txt"), ("--k", 1), ("--k", 3)])
    def test_graph_and_k_rejected_for_random_families(
        self, tmp_path, capsys, family, extra
    ):
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        flag, value = extra
        if flag == "--graph":
            value = tmp_path / value
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run("generate", "--family", family, flag, value, "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_rejected_by_parser(self, tmp_path, capsys):
        for family in ("nonsense", "vc-reduction"):  # reduce-vc builds the latter
            with pytest.raises(SystemExit) as exc:
                run("generate", "--family", family, "--out", tmp_path / "x.json")
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, n, horizon",
        [("modular", 3, 0), ("modular", -2, 2), ("uniform-classes", 0, 2),
         ("partition-classes", 0, 2), ("graphic-classes", 0, 2)],
    )
    def test_n_or_horizon_below_1_is_a_usage_error(
        self, tmp_path, capsys, family, n, horizon
    ):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run("generate", "--family", family, "--n", n, "-T", horizon, "--out", out)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def toy_instance(tmp_path):
    path = tmp_path / "toy.json"
    assert run("generate", "--family", "partition-classes", "--n", 7, "-T", 2,
               "--seed", 12, "--out", path, "--quiet") == 0
    return path


class TestSolveAndVerify:
    def test_solve_then_verify_round_trip(self, toy_instance, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("solve", "--instance", toy_instance, "--solver", "exact",
                   "--out", report_path, "--quiet") == 0
        report = json.loads(report_path.read_text())
        assert report["phi"] == report["phi_bar"]
        assert run("verify", "--instance", toy_instance,
                   "--report", report_path, "--quiet") == 0

    def test_report_stable_modulo_elapsed_time(self, toy_instance, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert run("solve", "--instance", toy_instance, "--solver", "exact",
                       "--seed", 3, "--out", r, "--quiet") == 0
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_tampered_phi_fails_verification(self, toy_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run("solve", "--instance", toy_instance, "--out", report_path, "--quiet")
        report = json.loads(report_path.read_text())
        report["phi"] += 1
        report_path.write_text(json.dumps(report))
        assert run("verify", "--instance", toy_instance, "--report", report_path) == 1
        assert "PhiMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["insertion_times", "sets"])
    def test_tampered_phi_bar_fails_verification(
        self, toy_instance, tmp_path, capsys, form
    ):
        report_path = tmp_path / "report.json"
        run("solve", "--instance", toy_instance, "--out", report_path, "--quiet")
        report = json.loads(report_path.read_text())
        if form == "sets":
            inst = load_instance(toy_instance)
            chain = chain_from_obj(report["chain"], inst.item_ids, inst.horizon)
            report["chain"] = {"sets": [sorted(s) for s in chain.sets()]}
        report_path.write_text(json.dumps(report))
        assert run("verify", "--instance", toy_instance, "--report", report_path,
                   "--quiet") == 0
        report["phi_bar"] += 999
        report_path.write_text(json.dumps(report))
        assert run("verify", "--instance", toy_instance, "--report", report_path) == 1
        assert "PhiBarMismatch" in capsys.readouterr().err

    def test_verified_report_prints_the_exact_success_line(
        self, toy_instance, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        run("solve", "--instance", toy_instance, "--out", report_path, "--quiet")
        phi = json.loads(report_path.read_text())["phi"]
        assert run("verify", "--instance", toy_instance, "--report", report_path) == 0
        captured = capsys.readouterr()
        assert captured.out == f"report verified: phi={phi}, chain feasible\n"
        assert captured.err == ""

    def test_every_mismatch_is_printed_in_order(self, toy_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run("solve", "--instance", toy_instance, "--out", report_path, "--quiet")
        report = json.loads(report_path.read_text())
        inst = load_instance(toy_instance)
        everything_at_1 = Chain(inst.horizon, {i: 1 for i in inst.item_ids})
        assert not is_feasible(inst, everything_at_1)
        phi = profit_phi(inst, everything_at_1)
        phi_bar = profit_phi_bar(inst.profits_by_id, inst.deltas, everything_at_1)
        report["chain"] = {"insertion_times": [1] * len(inst)}
        report["phi"], report["phi_bar"] = phi + 1, phi_bar + 2
        report_path.write_text(json.dumps(report))
        assert run("verify", "--instance", toy_instance, "--report", report_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "Infeasible: some period exceeds its capacity",
            f"PhiMismatch: recomputed {phi} != claimed {phi + 1}",
            f"PhiBarMismatch: recomputed {phi_bar} != claimed {phi_bar + 2}",
        ]

    def test_non_nested_chain_fails_verification(self, toy_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run("solve", "--instance", toy_instance, "--out", report_path, "--quiet")
        report = json.loads(report_path.read_text())
        report["chain"] = {"sets": [[1, 2], [2]]}
        report_path.write_text(json.dumps(report))
        assert run("verify", "--instance", toy_instance, "--report", report_path) == 1
        assert "NotNested" in capsys.readouterr().err

    def test_aon_violating_oracle_exits_2(self, tmp_path):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        inst = tmp_path / "vc.json"
        run("reduce-vc", "--graph", graph, "--k", 1, "--out", inst, "--quiet")
        assert run("solve", "--instance", inst, "--out", tmp_path / "r.json",
                   "--quiet") == 2

    def test_oracle_violation_at_the_recheck_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "pair.json"
        inst.write_text(json.dumps(RECHECK_ONLY_VIOLATION))
        report_path = tmp_path / "r.json"
        assert run("solve", "--instance", inst, "--out", report_path) == 2
        assert capsys.readouterr().err.startswith("oracle-contract violation:")
        assert not report_path.exists()

    def test_verify_rejects_the_modular_value_on_that_chain(self, tmp_path, capsys):
        inst = tmp_path / "pair.json"
        inst.write_text(json.dumps(RECHECK_ONLY_VIOLATION))
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(
            {"phi": 3, "phi_bar": 3, "chain": {"insertion_times": [1, 1]}}
        ))
        assert run("verify", "--instance", inst, "--report", report_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            "PhiMismatch: recomputed 2 != claimed 3"
        ]

    @pytest.mark.parametrize("solver", ["exact", "heuristic"])
    def test_recheck_failure_exits_5_with_one_line(
        self, toy_instance, tmp_path, capsys, monkeypatch, solver
    ):
        pipeline = importlib.import_module("iknap.modularize")
        solve = pipeline._run_ik_solver

        def misreports(*args):
            result = solve(*args)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(pipeline, "_run_ik_solver", misreports)
        report_path = tmp_path / "r.json"
        assert run("solve", "--instance", toy_instance, "--solver", solver,
                   "--out", report_path) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"internal solver failure: solver {solver!r} failed its recheck: ")
        assert err.count("\n") == 1 and "PhiBarMismatch" in err
        assert not report_path.exists()

    def test_an_unlisted_error_in_a_solve_keeps_its_traceback(
        self, toy_instance, tmp_path, monkeypatch
    ):
        def buggy(*args, **kwargs):
            raise ValueError("a bug inside the solve")

        monkeypatch.setattr(importlib.import_module("iknap.cli"), "solve_ik_aon", buggy)
        with pytest.raises(ValueError, match="a bug inside the solve"):
            run("solve", "--instance", toy_instance, "--out", tmp_path / "r.json")

    def test_oversized_exact_exits_3(self, tmp_path):
        inst = tmp_path / "big.json"
        run("generate", "--family", "modular", "--n", 25, "-T", 2,
            "--seed", 1, "--out", inst, "--quiet")
        assert run("solve", "--instance", inst, "--solver", "exact",
                   "--out", tmp_path / "r.json", "--quiet") == 3

    def test_exact_solves_past_the_recursion_limit(self, tmp_path):
        # 1,200 unit items that all fit: a search 1,200 deep, past Python's
        # default recursion limit.  Written directly, since the search of a
        # generated 1,200-item instance takes tens of seconds.
        inst = tmp_path / "deep.json"
        n = 1200
        inst.write_text(json.dumps({
            "n": n, "T": 1, "weights": [1] * n, "profits": [1] * n,
            "capacities": [n], "deltas": [1], "oracle": {"kind": "modular"},
        }))
        limits = ("--limits", "max_n_exact=5000")
        for solver in ("exact", "auto"):
            report_path = tmp_path / f"{solver}.json"
            assert run("solve", "--instance", inst, "--solver", solver, *limits,
                       "--out", report_path, "--quiet") == 0
            report = json.loads(report_path.read_text())
            assert report["solver"] == "exact" and report["phi"] == n
        assert run("verify", "--instance", inst, "--report", tmp_path / "exact.json") == 0

    def test_limits_flag_lowers_the_bar(self, toy_instance, tmp_path):
        assert run("solve", "--instance", toy_instance, "--solver", "exact",
                   "--limits", "max_n_exact=2", "--out", tmp_path / "r.json",
                   "--quiet") == 3

    def test_auto_falls_back_to_the_heuristic_past_the_limits(self, toy_instance, tmp_path):
        report_path = tmp_path / "r.json"
        assert run("solve", "--instance", toy_instance, "--limits", "max_n_exact=2",
                   "--out", report_path, "--quiet") == 0
        assert json.loads(report_path.read_text())["solver"] == "heuristic"

    def test_unknown_limits_key_is_a_usage_error(self, toy_instance, tmp_path):
        with pytest.raises(SystemExit):
            run("solve", "--instance", toy_instance, "--limits", "bogus=1",
                "--out", tmp_path / "r.json")

    @pytest.mark.parametrize("limits", ["local_search_budget=-5", "max_n_exact=-1"])
    def test_negative_limit_is_a_usage_error(self, toy_instance, tmp_path, capsys, limits):
        with pytest.raises(SystemExit):
            run("solve", "--instance", toy_instance, "--limits", limits,
                "--out", tmp_path / "r.json")
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_8", "+2", "\u0663"])
    def test_loose_integer_limit_is_a_usage_error(self, toy_instance, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instance", toy_instance, "--limits", f"max_n_exact={value}",
                "--out", tmp_path / "r.json")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"limits key 'max_n_exact' must be an integer, got {value!r}\n"
        )


def fractional_horizon(instance):
    instance["T"] = 2.5  # int() would read this as T = 2


def negative_weight(instance):
    instance["weights"][0] = -1


def missing_instance_key(instance):
    del instance["deltas"]


def oracle_replaced_by(value):
    def edit(instance):
        instance["oracle"] = value
    return edit


def oracle_ground_misses_item_1(instance):
    # Item 1 is in the toy instance's optimal chain, so verify prices it too.
    for cls in instance["oracle"]["classes"]:
        for group in cls["matroid"]["groups"]:
            if 1 in group["members"]:
                group["members"].remove(1)


def fractional_class_profit(instance):
    instance["oracle"]["classes"][0]["profit"] = 4.7  # int() would read this as 4


def fractional_uniform_rank_cap(instance):
    # the class of items 4 and 5 becomes a uniform matroid with a float rank
    instance["oracle"]["classes"][0]["matroid"] = {
        "kind": "uniform", "ground": [4, 5], "rank_cap": 1.5
    }


def partition_cap_of(value):
    def edit(instance):
        instance["oracle"]["classes"][2]["matroid"]["groups"][0]["cap"] = value
    return edit


def fractional_graphic_endpoint(instance):
    instance["oracle"]["classes"][0]["matroid"] = {
        "kind": "graphic",
        "edges": [{"item": 4, "u": 0.5, "v": 1}, {"item": 5, "u": 1, "v": 2}],
    }


def coverage_oracle_with(items, vertices):
    def edit(instance):
        instance["oracle"] = {
            "kind": "coverage",
            "edges": [[v, v + 100] for v in range(7)],
            "items": items,
            "vertices": vertices,
        }
    return edit


def insertion_time_out_of_range(report):
    report["chain"]["insertion_times"][0] = 3  # the toy instance has T = 2


def fractional_insertion_time(report):
    report["chain"]["insertion_times"][0] = 1.5


def insertion_times_wrong_length(report):
    report["chain"]["insertion_times"].append(None)


def missing_report_key(report):
    del report["phi_bar"]


def sets_for_wrong_horizon(report):
    report["chain"] = {"sets": [[1]]}


def sets_with_unknown_item(report):
    report["chain"] = {"sets": [[], [99]]}


def chain_as_sets_with_item_1_as(report, value):
    """The report's own chain in the "sets" form, with item 1 written as value."""
    times = report["chain"]["insertion_times"]
    assert times[0] is not None  # item 1 is in the toy instance's optimal chain
    report["chain"] = {"sets": [
        [value if i == 1 else i for i, s in enumerate(times, 1) if s is not None and s <= t]
        for t in (1, 2)
    ]}


def sets_with_boolean_item(report):
    chain_as_sets_with_item_1_as(report, True)


def sets_with_fractional_item(report):
    chain_as_sets_with_item_1_as(report, 1.0)


def fractional_phi(report):
    report["phi"] = float(report["phi"])  # == compares this equal to the true phi


def fractional_phi_bar(report):
    report["phi_bar"] = float(report["phi_bar"])


def chain_and_phi_missing(report):
    del report["chain"], report["phi"]


def chain_and_phi_malformed(report):
    insertion_times_wrong_length(report)
    fractional_phi(report)


def boolean_phi(report):
    report["phi"] = True


class TestMalformedInputExits4:
    @pytest.fixture
    def report_path(self, toy_instance, tmp_path):
        path = tmp_path / "report.json"
        assert run("solve", "--instance", toy_instance, "--out", path, "--quiet") == 0
        return path

    def assert_exit_4(self, capsys, *argv):
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (negative_weight, "NegativeWeight"),
            (missing_instance_key, "missing key 'deltas'"),
            (fractional_horizon, "T must be an integer, got 2.5"),
            (oracle_ground_misses_item_1, "outside oracle ground"),
            *[(oracle_replaced_by(value), "oracle descriptor must be an object")
              for value in (5, "x", None, [1])],
            (fractional_class_profit, "class profit must be an integer, got 4.7"),
            (fractional_uniform_rank_cap, "uniform matroid cap must be an integer, got 1.5"),
            (partition_cap_of(1.5), "partition matroid cap must be an integer, got 1.5"),
            (partition_cap_of(True), "partition matroid cap must be an integer, got True"),
            (fractional_graphic_endpoint, "graphic vertex must be an integer, got 0.5"),
            (coverage_oracle_with([1, 2, 3, 4, 5, 6, 7], [0.5, 1, 2, 3, 4, 5, 6]),
             "coverage vertex must be an integer, got 0.5"),
            (coverage_oracle_with([1.5, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6]),
             "coverage item id must be an integer, got 1.5"),
            (coverage_oracle_with([1, 2, 3, 4, 5, 6, 7, 7], [0, 1, 2, 3, 4, 5, 6, 7]),
             "coverage item ids must be distinct"),
            (coverage_oracle_with([1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 7]),
             "coverage has 7 items but 8 vertices"),
        ],
        ids=["negative_weight", "missing_instance_key", "fractional_horizon",
             "oracle_ground_misses_item", "oracle_int", "oracle_string", "oracle_null",
             "oracle_list", "fractional_class_profit", "fractional_uniform_rank_cap",
             "fractional_partition_cap", "bool_partition_cap",
             "fractional_graphic_endpoint", "fractional_coverage_vertex",
             "fractional_coverage_item", "repeated_coverage_item",
             "extra_coverage_vertex"],
    )
    def test_instance(self, toy_instance, report_path, tmp_path, capsys, edit, message):
        edit_json(toy_instance, edit)
        solve = ["solve", "--out", tmp_path / "r.json"]
        verify = ["verify", "--report", report_path]
        for argv in (solve, verify):
            err = self.assert_exit_4(capsys, *argv, "--instance", toy_instance)
            assert message in err

    @pytest.mark.parametrize(
        "edit",
        [insertion_time_out_of_range, fractional_insertion_time,
         insertion_times_wrong_length, missing_report_key,
         sets_for_wrong_horizon, sets_with_unknown_item, sets_with_boolean_item,
         sets_with_fractional_item, fractional_phi, fractional_phi_bar, boolean_phi],
        ids=lambda f: f.__name__,
    )
    def test_report(self, toy_instance, report_path, capsys, edit):
        edit_json(report_path, edit)
        self.assert_exit_4(capsys, "verify", "--instance", toy_instance,
                           "--report", report_path)

    @pytest.mark.parametrize("case", ["solve-instance", "verify-instance", "verify-report"])
    def test_deeply_nested_file(self, toy_instance, report_path, tmp_path, capsys, case):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        argv = {
            "solve-instance": ["solve", "--instance", deep],
            "verify-instance": ["verify", "--instance", deep, "--report", report_path],
            "verify-report": ["verify", "--instance", toy_instance, "--report", deep],
        }[case]
        err = self.assert_exit_4(capsys, *argv)
        assert err == f"malformed input: {deep}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (chain_and_phi_missing, "missing key 'chain'"),
            (chain_and_phi_malformed, "insertion_times has 8 entries for 7 items"),
        ],
        ids=["chain_and_phi_missing", "chain_and_phi_malformed"],
    )
    def test_report_is_read_chain_first_then_phi(
        self, toy_instance, report_path, capsys, edit, message
    ):
        edit_json(report_path, edit)
        err = self.assert_exit_4(capsys, "verify", "--instance", toy_instance,
                                 "--report", report_path)
        assert err == f"malformed input: {message}\n"


@pytest.fixture(scope="module")
def solved_toy(tmp_path_factory):
    """The toy instance file and the object of its solve report."""
    path = tmp_path_factory.mktemp("toy") / "toy.json"
    report = path.with_name("report.json")
    assert run("generate", "--family", "partition-classes", "--n", 7, "-T", 2,
               "--seed", 12, "--out", path, "--quiet") == 0
    assert run("solve", "--instance", path, "--out", report, "--quiet") == 0
    return path, json.loads(report.read_text())


def run_captured(*argv):
    """Exit code and standard error of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


#: Values of a type no field of a report or instance file takes; short text
#: keys, so a drawn object never holds "kind", "sets" or "insertion_times".
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.lists(
        st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2)),
        min_size=1,
        max_size=3,
    ),
)
NON_OBJECTS = st.one_of(
    st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3)
)
EXTRA_VALUES = st.one_of(st.none(), st.integers(), st.text(max_size=3))


@st.composite
def damaged(draw, good, damages, optional=frozenset()):
    """good with at least one key damaged, or no object at all.

    damages maps each key to the damages it may take: "missing", or "type"
    for a value of a wrong type.  Keys in optional may also go missing and
    extra keys may come in, without undoing the damage.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(NON_OBJECTS)
    obj = dict(good)
    chosen = draw(st.sets(st.sampled_from(sorted(damages)), min_size=1))
    for key in sorted(chosen):
        if draw(st.sampled_from(damages[key])) == "missing":
            del obj[key]
        else:
            obj[key] = draw(WRONG_TYPES)
    for key in sorted(optional - chosen):
        if draw(st.booleans()):
            del obj[key]
    obj.update(draw(st.dictionaries(
        st.text(max_size=6).filter(lambda key: key not in good), EXTRA_VALUES, max_size=2
    )))
    return obj


REPORT_KEYS = {"phi", "phi_bar", "oracle_calls", "kept_items", "chain", "solver", "elapsed_ms"}
INSTANCE_KEYS = {"n", "T", "weights", "profits", "capacities", "deltas", "oracle"}


class TestDamagedFiles:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_verify_exits_1_or_4_without_a_traceback(self, solved_toy, data):
        instance, good = solved_toy
        # verify reads phi, phi_bar and chain, and checks kept_items' type:
        # kept_items may be missing, as may the keys it does not read.
        report = data.draw(damaged(
            good,
            damages={
                "phi": ["missing", "type"],
                "phi_bar": ["missing", "type"],
                "chain": ["missing", "type"],
                "kept_items": ["type"],
            },
            optional=REPORT_KEYS - {"phi", "phi_bar", "chain"},
        ))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            path.write_text(json.dumps(report))
            code, err = run_captured("verify", "--instance", instance, "--report", path)
        assert code in (1, 4), (report, err)
        assert "Traceback" not in err
        assert code == 1 or (err.startswith("malformed input: ") and err.count("\n") == 1)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bench_gives_one_error_row_per_solver_for_each_damaged_file(self, solved_toy, data):
        instance, _ = solved_toy
        good = json.loads(instance.read_text())
        files = data.draw(st.lists(
            damaged(good, dict.fromkeys(INSTANCE_KEYS, ["missing", "type"])),
            min_size=1,
            max_size=3,
        ))
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp) / "instances"
            folder.mkdir()
            (folder / "good.json").write_text(json.dumps(good))
            for k, obj in enumerate(files):
                (folder / f"damaged{k}.json").write_text(json.dumps(obj))
            out = Path(tmp) / "bench.csv"
            code, err = run_captured("bench", "--instances", folder,
                                     "--solvers", "exact,heuristic", "--out", out)
            rows = [(r["instance"], r["solver"], r["status"]) for r in csv.DictReader(out.open())]
        names = [f"damaged{k}.json" for k in range(len(files))] + ["good.json"]
        assert code == 0 and err == ""
        assert [(name, solver) for name, solver, _ in rows] == [
            (name, solver) for name in names for solver in ("exact", "heuristic")
        ]
        assert [status.startswith("error:") for _, _, status in rows] == (
            [True] * 2 * len(files) + [False] * 2
        )


#: Tokens int() rejects (no decimal digit, or a float), plus Unicode digits
#: it accepts; every count they give is at most 12, so no header asks
#: SubcubicGraph for a huge degree table.
BAD_TOKENS = st.one_of(
    st.text(
        st.characters(blacklist_categories=("Nd", "Zs", "Zl", "Zp", "Cc", "Cs")),
        min_size=1,
        max_size=4,
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.5", "2e0", "0x3", "\u0663", "\uff11", "\u00b9", "1_2"]),
)
#: --k and -T values, mostly integers, so that most files get past argparse.
VC_K = st.sampled_from([*range(1, 15), 0, -1, -2, "x", "1.5", "", "\u0663"])
VC_HORIZON = st.sampled_from([*range(1, 13), 0, -1, -2, "x", "2.0"])
VC_DAMAGES = (
    "self_loop", "parallel", "degree_4", "negative_id", "out_of_range", "wrong_n",
    "wrong_m", "negative_count", "truncate", "token", "bytes",
)


@st.composite
def damaged_edge_lists(draw):
    """An edge-list file for reduce-vc, and the damages drawn into it (none: valid)."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    degree = [0] * n
    edges = []
    for u, v in draw(st.permutations(pairs))[: draw(st.integers(0, 12))]:
        if degree[u] < 3 and degree[v] < 3:
            edges.append([u, v])
            degree[u] += 1
            degree[v] += 1
    header = [n, len(edges)]
    damages = draw(st.lists(st.sampled_from(VC_DAMAGES), max_size=3))
    for damage in damages:
        if damage == "self_loop" and n:
            v = draw(st.integers(0, n - 1))
            edges.append([v, v])
            header[1] += 1
        elif damage == "parallel" and edges:
            u, v = draw(st.sampled_from(edges))
            edges.append([v, u])
            header[1] += 1
        elif damage == "degree_4" and n >= 5:
            center = draw(st.integers(0, n - 1))
            edges += [[center, v] for v in range(n) if v != center][:4]
            header[1] += 4
        elif damage in ("negative_id", "out_of_range") and edges:
            edge = draw(st.sampled_from(edges))
            low = -12 if damage == "negative_id" else n
            edge[draw(st.integers(0, 1))] = draw(st.integers(low, low + 11))
        elif damage in ("wrong_n", "wrong_m"):
            header[damage == "wrong_m"] = draw(st.integers(0, 12))
        elif damage == "negative_count":
            header[draw(st.integers(0, 1))] = draw(st.integers(-12, -1))
    tokens = [str(x) for x in header + [x for edge in edges for x in edge]]
    if "truncate" in damages:
        tokens = tokens[: draw(st.integers(0, len(tokens)))]
    if "token" in damages and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(BAD_TOKENS)
    data = draw(st.sampled_from([" ", "\n", "\t"])).join(tokens).encode("utf-8")
    if "bytes" in damages:
        at = draw(st.integers(0, len(data)))
        undecodable = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]))
        data = data[:at] + undecodable + data[at:]
    return data, damages


class TestReduceVc:
    def test_writes_instance_and_summary(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        out = tmp_path / "vc.json"
        assert run("reduce-vc", "--graph", graph, "--k", 2, "--out", out) == 0
        assert "|V|=3" in capsys.readouterr().out
        inst = load_instance(out)
        assert inst.capacities == (2,)

    def test_horizon_below_1_is_a_usage_error(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3_EDGES)
        out = tmp_path / "vc.json"
        with pytest.raises(SystemExit) as exc:
            run("reduce-vc", "--graph", graph, "--k", 1, "-T", 0, "--out", out)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "graph_text, k, message",
        [
            ("3 3\n0 1\n1 x\n0 2\n", 1, "g.txt: token must be an integer, got 'x'"),
            ("3 1\n0 1_2\n", 1, "g.txt: token must be an integer, got '1_2'"),
            ("3 1\n0 +2\n", 1, "g.txt: token must be an integer, got '+2'"),
            ("\u0663 1\n0 1\n", 1, "g.txt: token must be an integer, got '\u0663'"),
            ("5 4\n0 1\n0 2\n0 3\n0 4\n", 1, "have degree > 3"),
            (K3_EDGES, 4, "k=4 outside 1..3"),
            (K3_EDGES, 0, "k=0 outside 1..3"),
            ("-3 0\n", 1, "negative count in 'n m' header -3 0"),
            ("2 -1\n", 1, "negative count in 'n m' header 2 -1"),
            ("3\n", 1, "g.txt: missing 'n m' header"),
        ],
        ids=["reduce-vc-non_integer_token", "reduce-vc-underscore_token",
             "reduce-vc-plus_sign_token", "reduce-vc-non_ascii_digit_token",
             "reduce-vc-degree_4", "reduce-vc-k_above_n", "reduce-vc-k_zero",
             "reduce-vc-negative_n", "reduce-vc-negative_m", "reduce-vc-one_token"],
    )
    def test_bad_graph_or_k_exits_4(self, tmp_path, capsys, graph_text, k, message):
        graph, out = tmp_path / "g.txt", tmp_path / "vc.json"
        graph.write_text(graph_text)
        assert run("reduce-vc", "--graph", graph, "--k", k, "--out", out, "--quiet") == 4
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_vertex_count_above_the_cap_exits_4_before_any_allocation(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_graph(*args):
            raise AssertionError("SubcubicGraph was built")

        monkeypatch.setattr(importlib.import_module("iknap.hardness"), "SubcubicGraph", no_graph)
        graph, out = tmp_path / "g.txt", tmp_path / "vc.json"
        graph.write_text("100000000000 0\n")
        assert run("reduce-vc", "--graph", graph, "--k", 1, "--out", out, "--quiet") == 4
        assert capsys.readouterr().err == (
            f"malformed input: {graph}: vertex count 100000000000 in 'n m' header "
            "above 1,000,000\n"
        )
        assert not out.exists()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=damaged_edge_lists(), k=VC_K, horizon=VC_HORIZON)
    def test_damaged_graph_files_exit_0_2_or_4_without_a_traceback(self, case, k, horizon):
        data, damages = case
        with tempfile.TemporaryDirectory() as tmp:
            graph, out = Path(tmp) / "g.txt", Path(tmp) / "vc.json"
            graph.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = run("reduce-vc", "--graph", graph, "--k", k, "-T", horizon,
                               "--out", out)
                except SystemExit as exc:  # argparse rejects --k or -T
                    code = exc.code
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 0:
                assert err == ""
                assert validate_instance(load_instance(out)) == []
            else:
                assert not out.exists()
            if code == 2:
                assert err.startswith("usage: iknap reduce-vc ")
                assert err.splitlines()[-1].startswith("iknap reduce-vc: error: argument ")
            elif code == 4:
                assert err.startswith("malformed input: ") and err.count("\n") == 1
            else:
                assert code == 0, (data, k, horizon, err)
        if not damages and k in range(1, int(data.split()[0]) + 1) and horizon in range(1, 13):
            assert code == 0, (data, k, horizon, err)


class TestIntegerFlags:
    """Integer flags are read as strictly as graph tokens and --limits values."""

    @pytest.mark.parametrize(
        "argv, flag, value, strict",
        [
            (["generate", "--family", "modular", "--n"], "--n", "1_2", "12"),
            (["generate", "--family", "modular", "-T"], "-T/--horizon", "+2", "2"),
            (["generate", "--family", "modular", "--seed"], "--seed", "\u0663", "3"),
            (["reduce-vc", "--graph", "{graph}", "--k"], "--k", "+1", "1"),
            (["reduce-vc", "--graph", "{graph}", "--k", "1", "-T"], "-T/--horizon", " 2", "2"),
            (["solve", "--instance", "{instance}", "--seed"], "--seed", "1_0", "10"),
            (["bench", "--instances", "{corpus}", "--seed"], "--seed", "+7", "7"),
        ],
        ids=["generate-n", "generate-T", "generate-seed", "reduce-vc-k", "reduce-vc-T",
             "solve-seed", "bench-seed"],
    )
    def test_loose_integer_is_a_usage_error(self, tmp_path, capsys, argv, flag, value, strict):
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert run("generate", "--family", "modular", "--n", 4, "-T", 2,
                   "--out", corpus / "a.json", "--quiet") == 0
        paths = {"graph": tmp_path / "k3.txt", "instance": corpus / "a.json", "corpus": corpus}
        argv = [a.format(**paths) for a in argv]
        out = ["--out", tmp_path / "out", "--quiet"]
        with pytest.raises(SystemExit) as exc:
            run(*argv, value, *out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: iknap {argv[0]} ")
        assert err.endswith(f"argument {flag}: value must be an integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()
        assert run(*argv, strict, *out) == 0


class TestBench:
    def test_rows_per_instance_and_solver(self, tmp_path):
        instances = tmp_path / "instances"
        instances.mkdir()
        for seed in range(3):
            run("generate", "--family", "uniform-classes", "--n", 6, "-T", 2,
                "--seed", seed, "--out", instances / f"i{seed}.json", "--quiet")
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances,
                   "--solvers", "exact,heuristic", "--out", out, "--quiet") == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        assert [r["instance"] for r in rows] == sorted(r["instance"] for r in rows)
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["ratio_to_brute"]) <= 1.0 + 1e-9
        exact_ratios = [float(r["ratio_to_brute"]) for r in rows if r["solver"] == "exact"]
        assert all(abs(x - 1.0) < 1e-9 for x in exact_ratios)

    def test_empty_directory_gives_header_only(self, tmp_path):
        instances = tmp_path / "none"
        instances.mkdir()
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances, "--out", out, "--quiet") == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance,solver,value")

    def test_missing_directory_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", tmp_path / "nosuchdir", "--out", out,
                   "--quiet") == 1
        assert capsys.readouterr().err.startswith("io error: ")
        assert not out.exists()

    def test_malformed_file_gives_error_rows_and_the_run_goes_on(self, tmp_path):
        instances = tmp_path / "instances"
        instances.mkdir()
        run("generate", "--family", "modular", "--n", 5, "-T", 2,
            "--seed", 2, "--out", instances / "good.json", "--quiet")
        (instances / "bad.json").write_text('{"n": 2}')
        (instances / "torn.json").write_text('{"n": ')
        (instances / "deep.json").write_text(DEEP_JSON)
        # T=2 with one capacity: validated before the brute-force reference
        # runs, so the status does not depend on the brute budget.
        short = json.loads((instances / "good.json").read_text())
        short["capacities"] = short["capacities"][:1]
        (instances / "short.json").write_text(json.dumps(short))
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances,
                   "--solvers", "exact,heuristic", "--out", out, "--quiet") == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["instance"], r["solver"], r["status"]) for r in rows] == [
            ("bad.json", "exact", "error:KeyError"),
            ("bad.json", "heuristic", "error:KeyError"),
            ("deep.json", "exact", "error:ValueError"),
            ("deep.json", "heuristic", "error:ValueError"),
            ("good.json", "exact", "ok"),
            ("good.json", "heuristic", "ok"),
            ("short.json", "exact", "error:InvalidInstance"),
            ("short.json", "heuristic", "error:InvalidInstance"),
            ("torn.json", "exact", "error:JSONDecodeError"),
            ("torn.json", "heuristic", "error:JSONDecodeError"),
        ]
        (instances / "good.json").unlink()
        assert run("bench", "--instances", instances, "--out", out, "--quiet") == 1

    def test_solve_error_fails_only_its_row(self, tmp_path):
        instances = tmp_path / "instances"
        instances.mkdir()
        run("generate", "--family", "modular", "--n", 5, "-T", 2,
            "--seed", 2, "--out", instances / "good.json", "--quiet")
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances, "--solvers", "exact,heuristic",
                   "--limits", "max_n_exact=1", "--out", out, "--quiet") == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["solver"], r["status"]) for r in rows] == [
            ("exact", "error:LimitsExceeded"),
            ("heuristic", "ok"),
        ]
        assert rows[0]["value"] == rows[0]["ratio_to_brute"] == ""
        assert rows[1]["ratio_to_brute"] != ""

    def test_zero_brute_optimum_gives_ratio_one(self, tmp_path):
        instances = tmp_path / "instances"
        instances.mkdir()
        path = instances / "flat.json"
        run("generate", "--family", "modular", "--n", 5, "-T", 2,
            "--seed", 2, "--out", path, "--quiet")
        edit_json(path, lambda instance: instance.update(deltas=[0, 0]))
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances, "--solvers", "exact,heuristic",
                   "--out", out, "--quiet") == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["status"], r["value"], r["ratio_to_brute"]) for r in rows] == [
            ("ok", "0", "1.000000"),
            ("ok", "0", "1.000000"),
        ]

    @pytest.mark.parametrize(
        "solvers", ["exact,bogus", "", " , "], ids=["unknown", "empty", "blank"]
    )
    def test_unknown_or_no_solver_is_a_usage_error(self, tmp_path, capsys, solvers):
        instances = tmp_path / "instances"
        instances.mkdir()
        run("generate", "--family", "modular", "--n", 5, "-T", 2,
            "--seed", 2, "--out", instances / "good.json", "--quiet")
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            run("bench", "--instances", instances, "--solvers", solvers,
                "--out", out, "--quiet")
        assert exc.value.code == 2
        assert "--solvers" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_brute_leaves_ratio_empty(self, tmp_path):
        instances = tmp_path / "instances"
        instances.mkdir()
        run("generate", "--family", "modular", "--n", 5, "-T", 1,
            "--seed", 2, "--out", instances / "small.json", "--quiet")
        run("generate", "--family", "modular", "--n", 26, "-T", 1,
            "--seed", 2, "--out", instances / "zbig.json", "--quiet")
        out = tmp_path / "bench.csv"
        assert run("bench", "--instances", instances, "--solvers", "heuristic",
                   "--out", out, "--quiet") == 0
        rows = {r["instance"]: r for r in csv.DictReader(out.open())}
        assert rows["small.json"]["ratio_to_brute"] != ""
        assert rows["zbig.json"]["ratio_to_brute"] == ""
        assert rows["zbig.json"]["status"] == "ok"


class TestReportFormat:
    def test_report_has_exactly_the_contract_keys(self, toy_instance, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("solve", "--instance", toy_instance, "--out", report_path,
                   "--quiet") == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {
            "phi", "phi_bar", "oracle_calls", "kept_items",
            "chain", "solver", "elapsed_ms",
        }
        times = report["chain"]["insertion_times"]
        inst = load_instance(toy_instance)
        assert len(times) == len(inst)
