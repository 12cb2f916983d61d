"""JSON codecs: instance files, chain encodings, canonical dumps."""

import contextlib
import copy
import enum
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iknap import (
    BudgetExceeded,
    Chain,
    Instance,
    Item,
    LimitsExceeded,
    OracleViolation,
    build_reduction,
    chain_from_obj,
    chain_to_obj,
    generate_subcubic,
    instance_from_obj,
    instance_to_obj,
    modular_oracle,
    report_to_obj,
    solve_ik_aon,
    validate_instance,
)
from iknap import serialize
from iknap.cli import main
from iknap.generators import FAMILIES
from iknap.serialize import dumps_canonical


def rank_sum(matroid):
    return {"kind": "matroid_rank_sum", "classes": [{"profit": 2, "matroid": matroid}]}


UNIFORM = rank_sum({"kind": "uniform", "ground": [1, 2, 3], "rank_cap": 2})
PARTITION = rank_sum({"kind": "partition", "groups": [{"members": [1, 2], "cap": 1},
                                                      {"members": [3], "cap": 1}]})
GRAPHIC = rank_sum({"kind": "graphic", "edges": [{"item": 1, "u": 0, "v": 1},
                                                 {"item": 2, "u": 1, "v": 2},
                                                 {"item": 3, "u": 0, "v": 2}]})
COVERAGE = {"kind": "coverage", "edges": [[0, 1], [2, 3], [4, 5]],
            "items": [1, 2, 3], "vertices": [0, 2, 4]}
MODULAR = {"kind": "modular"}


def three_item_instance(oracle):
    return {"n": 3, "T": 1, "weights": [1, 1, 1], "profits": [2, 2, 2],
            "capacities": [3], "deltas": [1], "oracle": copy.deepcopy(oracle)}


def edit_oracle(obj, path, raw):
    *parents, last = path
    target = obj["oracle"]
    for key in parents:
        target = target[key]
    target[last] = raw


class TestInstanceCodec:
    def test_round_trip_every_family(self):
        rng = random.Random(2)
        for fam in FAMILIES:
            inst = FAMILIES[fam](7, 3, rng)
            obj = instance_to_obj(inst)
            assert set(obj) == {
                "n", "T", "weights", "profits", "capacities", "deltas", "oracle"
            }
            rebuilt = instance_from_obj(obj)
            assert instance_to_obj(rebuilt) == obj
            for _ in range(20):
                s = {i for i in inst.item_ids if rng.random() < 0.5}
                assert rebuilt.oracle.evaluate(s) == inst.oracle.evaluate(s)

    @pytest.mark.parametrize("field", ["weights", "profits"])
    @pytest.mark.parametrize("raw", [2.7, True, "3"], ids=["float", "bool", "string"])
    def test_item_fields_pass_through_for_validation(self, field, raw):
        obj = instance_to_obj(FAMILIES["modular"](3, 2, random.Random(5)))
        obj[field][0] = raw
        inst = instance_from_obj(obj)
        assert getattr(inst.items[0], field[:-1]) is raw
        assert any(v.startswith("NonIntegerField") for v in validate_instance(inst))

    @pytest.mark.parametrize("field", ["n", "T"])
    @pytest.mark.parametrize("raw", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_size_rejected(self, field, raw):
        obj = instance_to_obj(FAMILIES["modular"](3, 2, random.Random(5)))
        obj[field] = raw
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            instance_from_obj(obj)

    @pytest.mark.parametrize(
        "oracle, path, raw",
        [
            (UNIFORM, ("classes", 0, "profit"), 4.7),
            (UNIFORM, ("classes", 0, "profit"), True),
            (UNIFORM, ("classes", 0, "matroid", "rank_cap"), 1.5),
            (UNIFORM, ("classes", 0, "matroid", "rank_cap"), True),
            (UNIFORM, ("classes", 0, "matroid", "ground", 0), 1.0),
            (PARTITION, ("classes", 0, "matroid", "groups", 0, "cap"), 1.5),
            (PARTITION, ("classes", 0, "matroid", "groups", 0, "cap"), True),
            (PARTITION, ("classes", 0, "matroid", "groups", 1, "members", 0), 3.0),
            (GRAPHIC, ("classes", 0, "matroid", "edges", 0, "u"), 0.5),
            (GRAPHIC, ("classes", 0, "matroid", "edges", 0, "v"), True),
            (GRAPHIC, ("classes", 0, "matroid", "edges", 0, "item"), 1.0),
            (COVERAGE, ("items", 0), 1.5),
            (COVERAGE, ("vertices", 0), 0.5),
            (COVERAGE, ("edges", 0, 1), 1.5),
        ],
        ids=[
            "class_profit_fraction", "class_profit_bool", "rank_cap_fraction",
            "rank_cap_bool", "ground_float", "partition_cap_fraction",
            "partition_cap_bool", "group_member_float", "graphic_u_fraction",
            "graphic_v_bool", "graphic_item_float", "coverage_item_fraction",
            "coverage_vertex_fraction", "coverage_edge_fraction",
        ],
    )
    def test_non_integer_descriptor_number_rejected(self, oracle, path, raw):
        obj = three_item_instance(oracle)
        instance_from_obj(copy.deepcopy(obj))  # the unedited descriptor decodes
        edit_oracle(obj, path, raw)
        with pytest.raises(ValueError, match="must be an integer"):
            instance_from_obj(obj)

    @pytest.mark.parametrize(
        "oracle, edits, message",
        [
            (
                GRAPHIC,
                [(("edges", 0, "v"), 0.5), (("edges", 1, "item"), 1.5)],
                "graphic vertex must be an integer, got 0.5",
            ),
            (
                UNIFORM,
                [(("rank_cap",), 1.5), (("ground", 0), 1.0)],
                "uniform matroid cap must be an integer, got 1.5",
            ),
            (
                PARTITION,
                [(("groups", 0, "cap"), 1.5), (("groups", 0, "members", 1), 2.0)],
                "matroid item id must be an integer, got 2.0",
            ),
        ],
        ids=["graphic_vertex_before_next_edge", "uniform_cap_before_ground", "members_before_cap"],
    )
    def test_first_bad_descriptor_number_is_named(self, oracle, edits, message):
        obj = three_item_instance(oracle)
        for path, raw in edits:
            edit_oracle(obj, ("classes", 0, "matroid") + path, raw)
        with pytest.raises(ValueError, match=re.escape(message)):
            instance_from_obj(obj)

    @pytest.mark.parametrize(
        "items, vertices, message",
        [
            ([1, 2, 3, 3], [0, 2, 4, 5], "coverage item ids must be distinct"),
            ([1, 2, 3], [0, 2, 4, 5], "3 items but 4 vertices"),
            ([1, 2, 3], [0, 2], "3 items but 2 vertices"),
        ],
        ids=["repeated_item", "extra_vertex", "missing_vertex"],
    )
    def test_coverage_items_and_vertices_must_pair_up(self, items, vertices, message):
        obj = three_item_instance(COVERAGE)
        obj["oracle"].update(items=items, vertices=vertices)
        with pytest.raises(ValueError, match=message):
            instance_from_obj(obj)

    @pytest.mark.parametrize(
        "oracle",
        [UNIFORM, PARTITION, GRAPHIC, COVERAGE, MODULAR],
        ids=["uniform", "partition", "graphic", "coverage", "modular"],
    )
    def test_literal_descriptor_decodes_to_itself(self, oracle):
        # Pins the file format: a decoded oracle re-encodes to the very same descriptor.
        obj = three_item_instance(oracle)
        assert instance_from_obj(obj).oracle.descriptor == obj["oracle"]

    @pytest.mark.parametrize(
        "oracle",
        [UNIFORM, PARTITION, GRAPHIC, COVERAGE, MODULAR],
        ids=["uniform", "partition", "graphic", "coverage", "modular"],
    )
    def test_only_a_modular_descriptor_reads_the_profits(self, oracle, monkeypatch):
        # Decoding hands the oracle lazy (id, profit) pairs, not a table it built.
        read = []
        rebuild = serialize.oracle_from_descriptor

        def spy(descriptor, profits):
            assert not isinstance(profits, dict)
            return rebuild(descriptor, map(lambda pair: read.append(pair) or pair, profits))

        monkeypatch.setattr(serialize, "oracle_from_descriptor", spy)
        inst = instance_from_obj(three_item_instance(oracle))
        assert read == ([(1, 2), (2, 2), (3, 2)] if oracle is MODULAR else [])
        assert inst.oracle.descriptor == oracle

    def test_non_contiguous_ids_rejected(self):
        inst = Instance([Item(3, 1, 1)], 1, (2,), (1,), modular_oracle({3: 1}))
        with pytest.raises(ValueError):
            instance_to_obj(inst)

    def test_canonical_dump_is_stable(self):
        rng = random.Random(3)
        inst = FAMILIES["graphic-classes"](6, 2, rng)
        text = dumps_canonical(instance_to_obj(inst))
        assert text == dumps_canonical(json.loads(text))
        assert text.endswith("\n")


def json_reference(obj) -> str:
    """What dumps_canonical must write, byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Small(enum.IntEnum):
    ONE = 1


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**40) | st.integers(max_value=-(10**40)),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf"), Small.ONE]),
    st.text(),
    st.sampled_from(
        ['"', "\\", "\n\t\x00\x1f\x7f", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", "\u2028"]
    ),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=6),
    ),
    max_leaves=50,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(JSON_TREES)
def test_canonical_dump_is_json_indent_2(obj):
    assert dumps_canonical(obj) == json_reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{2: [1, {}], 1: "a"}, {None: 0}, {1.5: [], -0.0: {}, float("nan"): 1},
     {True: (1,), False: [[]]}, [{10**40: None, Small.ONE: []}]],
    ids=["int", "none", "float", "bool", "nested"],
)
def test_canonical_dump_writes_non_string_keys_as_json_does(obj):
    assert dumps_canonical(obj) == json_reference(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": {1, 2}}, [object()]], ids=["key", "set", "object"])
def test_canonical_dump_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json_reference(obj)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        dumps_canonical(obj)


@pytest.mark.parametrize("n", [1, 7, 60, 400])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_canonical_dump_of_instance_files_and_reports(family, n):
    inst = FAMILIES[family](n, 3, random.Random(n))
    report = solve_ik_aon(inst, solver="heuristic")
    for obj in (instance_to_obj(inst), report_to_obj(report, inst.item_ids)):
        assert dumps_canonical(obj) == json_reference(obj)


class TestChainCodec:
    def test_insertion_times_align_with_items(self):
        chain = Chain(3, {1: 2, 3: 1})
        obj = chain_to_obj(chain, [1, 2, 3])
        assert obj == {"insertion_times": [2, None, 1]}
        assert chain_from_obj(obj, [1, 2, 3], 3) == chain

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_from_obj({"insertion_times": [1]}, [1, 2], 1)

    @pytest.mark.parametrize("raw", [2.7, 2.0, True, "2"], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_insertion_time_rejected(self, raw):
        with pytest.raises(ValueError, match="insertion time must be an integer"):
            chain_from_obj({"insertion_times": [None, raw]}, [1, 2], 3)

    def test_sets_form_passes_through_for_verification(self):
        parsed = chain_from_obj({"sets": [[1, 2], [2]]}, [1, 2], 2)
        assert parsed == [{1, 2}, {2}]

    @pytest.mark.parametrize("sets", [[[1]], [[1], [3]]], ids=["short", "unknown-id"])
    def test_sets_form_rejects_wrong_horizon_and_unknown_ids(self, sets):
        with pytest.raises(ValueError):
            chain_from_obj({"sets": sets}, [1, 2], 2)


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.sampled_from([10**30, -(10**30)]),
)


def field_paths(obj, prefix=()):
    """The path to every dict value and list element below obj."""
    if isinstance(obj, dict):
        entries = obj.items()
    elif isinstance(obj, list):
        entries = enumerate(obj)
    else:
        return
    for key, value in entries:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@st.composite
def damaged_instance_objs(draw):
    """(n, file): a generated instance file of n items, one field junked or deleted."""
    family = draw(st.sampled_from(sorted(FAMILIES) + ["vc-reduction"]))
    n, horizon, seed = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(0, 99))
    if family == "vc-reduction":
        k = draw(st.integers(1, n))
        inst = build_reduction(generate_subcubic(n, seed=seed), k, horizon)
    else:
        inst = FAMILIES[family](n, horizon, random.Random(seed))
    obj = json.loads(dumps_canonical(instance_to_obj(inst)))
    *parents, last = draw(st.sampled_from(list(field_paths(obj))))
    target = obj
    for key in parents:
        target = target[key]
    if draw(st.booleans()):
        del target[last]
    else:
        target[last] = draw(JUNK)
    return len(inst), obj


@settings(max_examples=400, deadline=None, derandomize=True)
@given(damaged_instance_objs())
def test_damaged_instance_raises_only_documented_errors(damaged):
    _, obj = damaged
    try:
        solve_ik_aon(instance_from_obj(obj))
    except (KeyError, TypeError, ValueError, OracleViolation, LimitsExceeded, BudgetExceeded):
        pass


@settings(max_examples=400, deadline=None, derandomize=True)
@given(damaged_instance_objs())
def test_damaged_instance_file_gets_a_documented_exit_code(damaged):
    n, obj = damaged
    # A report that inserts every item in period 1, so verify prices them all.
    report = {"phi": 0, "phi_bar": 0, "chain": {"insertion_times": [1] * n}}
    with tempfile.TemporaryDirectory() as tmp:
        instance, report_path = Path(tmp, "instance.json"), Path(tmp, "report.json")
        instance.write_text(json.dumps(obj))
        report_path.write_text(json.dumps(report))
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["solve", "--instance", str(instance),
                         "--out", str(Path(tmp, "r.json")), "--quiet"]) in (0, 2, 3, 4)
            assert main(["verify", "--instance", str(instance),
                         "--report", str(report_path), "--quiet"]) in (0, 1, 4)
