"""CLI contract: golden-file determinism, exit codes, report stability.

Everything algorithmic is tested elsewhere; these tests treat the CLI as a
black box over files.
"""

import csv
import json

import pytest

from iknap.cli import main
from iknap.serialize import chain_from_obj, load_instance
from iknap import validate_instance


def run(*argv):
    return main([str(a) for a in argv])


def edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


K3_EDGES = "3 3\n0 1\n1 2\n0 2\n"


class TestGenerate:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("generate", "--family", "uniform-classes", "--n", 7, "-T", 2,
                   "--seed", 9, "--out", a, "--quiet") == 0
        assert run("generate", "--family", "uniform-classes", "--n", 7, "-T", 2,
                   "--seed", 9, "--out", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_oversized_exact_exits_3(self, tmp_path):
        inst = tmp_path / "big.json"
        run("generate", "--family", "modular", "--n", 25, "-T", 2,
            "--seed", 1, "--out", inst, "--quiet")
        assert run("solve", "--instance", inst, "--solver", "exact",
                   "--out", tmp_path / "r.json", "--quiet") == 3

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
            ("3 3\n0 1\n1 x\n0 2\n", 1, "invalid literal for int()"),
            ("5 4\n0 1\n0 2\n0 3\n0 4\n", 1, "have degree > 3"),
            (K3_EDGES, 4, "k=4 outside 1..3"),
            (K3_EDGES, 0, "k=0 outside 1..3"),
        ],
        ids=["reduce-vc-non_integer_token", "reduce-vc-degree_4", "reduce-vc-k_above_n",
             "reduce-vc-k_zero"],
    )
    def test_bad_graph_or_k_exits_4(self, tmp_path, capsys, graph_text, k, message):
        graph, out = tmp_path / "g.txt", tmp_path / "vc.json"
        graph.write_text(graph_text)
        assert run("reduce-vc", "--graph", graph, "--k", k, "--out", out, "--quiet") == 4
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


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
            ("good.json", "exact", "ok"),
            ("good.json", "heuristic", "ok"),
            ("short.json", "exact", "error:InvalidInstance"),
            ("short.json", "heuristic", "error:InvalidInstance"),
            ("torn.json", "exact", "error:JSONDecodeError"),
            ("torn.json", "heuristic", "error:JSONDecodeError"),
        ]
        (instances / "good.json").unlink()
        assert run("bench", "--instances", instances, "--out", out, "--quiet") == 1

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
