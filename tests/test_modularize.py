"""The reduction pipeline: modularize, solve end to end, verify."""

import dataclasses
import hashlib
import importlib
import json
import random
import sys
import threading
from itertools import groupby
from operator import itemgetter

import pytest

from iknap import (
    AggregationOracle,
    BadFamily,
    Chain,
    InfeasibleInternal,
    Instance,
    InvalidInstance,
    Item,
    LimitsExceeded,
    MatroidSpec,
    OracleViolation,
    SolveLimits,
    SolveResult,
    SolverFailure,
    brute_force_chains,
    chain_gammas,
    greedy_matroid_chain,
    is_feasible,
    is_independent,
    iter_feasible_chains,
    matroid_rank,
    matroid_rank_sum_oracle,
    min_weight_basis,
    modular_oracle,
    modularize,
    oracle_from_descriptor,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    profit_phi_bar,
    solve_exact,
    solve_heuristic,
    solve_ik_aon,
    verify_solution,
)
from iknap.errors import UnknownItemId
from iknap.generators import (
    FAMILIES,
    make_family_instance,
    make_matroid_rank_instance,
    make_modular_instance,
    make_uniform_classes_instance,
)
from iknap.modularize import SOLVERS
from iknap.oracles import _matroid_from_obj
from iknap.serialize import dumps_canonical, instance_from_obj, instance_to_obj, report_to_obj
from helpers import RECHECK_ONLY_VIOLATION

# iknap.modularize, the module: the package attribute of that name is the function.
pipeline = importlib.import_module("iknap.modularize")


class TestModularize:
    def test_modular_keeps_everything(self):
        rng = random.Random(1)
        inst = make_modular_instance(6, 2, rng)
        mod = modularize(inst)
        assert mod.kept_ids == inst.item_ids
        assert mod.ik.item_ids == inst.item_ids

    def test_cap_one_class_keeps_lightest(self):
        oracle = matroid_rank_sum_oracle([(10, MatroidSpec.uniform([1, 2, 3], 1))])
        items = [Item(1, 2, 10), Item(2, 3, 10), Item(3, 4, 10)]
        inst = Instance(items, 1, (9,), (1,), oracle)
        mod = modularize(inst)
        assert mod.kept_ids == (1,)

    def test_kept_set_is_independent_and_per_class_maximal(self):
        rng = random.Random(3)
        for _ in range(40):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 10), rng.randint(1, 3), rng)
            reduced, _ = preprocess_singletons(inst)
            mod = modularize(reduced)
            kept = frozenset(mod.kept_ids)
            profit_sum = sum(reduced.profit_of(i) for i in kept)
            assert reduced.oracle.evaluate(kept) == profit_sum
            for _, klass in profit_partition(reduced):
                basis = klass & kept
                for outside in klass - basis:
                    assert not is_independent(reduced, basis | {outside})

    def test_oracle_budget_is_one_call_per_retained_item(self):
        rng = random.Random(5)
        for _ in range(30):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 9), rng.randint(1, 3), rng)
            reduced, _ = preprocess_singletons(inst)
            before = reduced.oracle.call_count
            modularize(reduced)
            assert reduced.oracle.call_count - before == len(reduced)


def decoded(inst):
    return instance_from_obj(json.loads(dumps_canonical(instance_to_obj(inst))))


class TestModularizedOracle:
    """The kept items' oracle: a new one with its own counter, summing the kept items' profits."""

    @pytest.mark.parametrize("build", [lambda inst: inst, decoded], ids=["built", "decoded"])
    def test_a_modular_input_gets_a_new_oracle_and_counter(self, build):
        inst = build(make_modular_instance(9, 3, random.Random(6)))
        mod = modularize(inst)
        oracle = mod.ik.oracle
        assert mod.kept_ids == inst.item_ids
        assert oracle is not inst.oracle
        assert oracle.call_count == 0
        before = inst.oracle.call_count
        assert [oracle.evaluate({i}) for i in mod.kept_ids] == [it.profit for it in inst.items]
        assert oracle.evaluate(mod.kept_ids) == sum(it.profit for it in inst.items)
        assert oracle.call_count == len(inst) + 1
        assert inst.oracle.call_count == before

    def test_a_table_entry_the_singletons_dropped_is_not_lent(self):
        items = [Item(1, 2, 3), Item(2, 1, 4), Item(3, 2, 5)]
        inst = Instance(items, 1, (4,), (1,), modular_oracle({1: 3, 2: 0, 3: 5}))
        reduced, dropped = preprocess_singletons(inst)
        assert dropped == (2,)
        mod = modularize(reduced)
        assert mod.kept_ids == (1, 3)
        assert mod.ik.oracle.evaluate({1, 3}) == 8
        with pytest.raises(UnknownItemId):
            mod.ik.oracle.evaluate({2})

    def test_threads_making_the_first_evaluate_together_agree(self):
        items = [Item(i, 1 + i % 7, 1 + i % 5) for i in range(1, 2001)]
        total = sum(it.profit for it in items)
        inst = Instance(items, 1, (1,), (1,), modular_oracle({it.id: it.profit for it in items}))
        for _ in range(20):
            oracle = modularize(inst).ik.oracle
            start = threading.Barrier(4, timeout=60)
            sums, errors = [], []

            def worker():
                try:
                    start.wait()
                    sums.append(oracle.evaluate(range(2000, 0, -1)))
                except Exception as exc:  # reported below, not lost in the thread
                    errors.append(exc)

            workers = [threading.Thread(target=worker) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, so a race would show
            try:
                for th in workers:
                    th.start()
                for th in workers:
                    th.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in workers)
            assert errors == []
            assert sums == [total] * 4
            assert oracle.call_count == 4

    @pytest.mark.parametrize("solver", ["exact", "heuristic"])
    @pytest.mark.parametrize("family", ["modular", "graphic-classes"])
    def test_exact_and_heuristic_solves_evaluate_no_oracle(self, family, solver, monkeypatch):
        # The pipeline's oracle traffic is bulk calls on the input oracle only.
        kept_oracles, evaluated = [], []
        modular_over = pipeline._modular_over

        def recording_modular_over(kept):
            kept_oracles.append(modular_over(kept))
            return kept_oracles[-1]

        def evaluate(oracle, items):
            evaluated.append(oracle)
            raise AssertionError("evaluate() called")

        monkeypatch.setattr(pipeline, "_modular_over", recording_modular_over)
        monkeypatch.setattr(AggregationOracle, "evaluate", evaluate)
        for seed in range(5):
            inst = make_family_instance(family, 10, 3, random.Random(seed))
            report = solve_ik_aon(inst, solver=solver, seed=seed)
            assert report.oracle_calls > 0
        assert evaluated == []
        assert len(kept_oracles) == 5
        assert [oracle.call_count for oracle in kept_oracles] == [0] * 5

    def test_a_user_oracle_described_as_modular_is_replaced_by_the_profit_sum(self):
        # Profits as values of single items, anything else on larger sets:
        # the greedy, one item per class, asks only single items.
        def fn(s):
            return {1: 2, 2: 3, 3: 5}[next(iter(s))] if len(s) == 1 else 7 * len(s)

        user = AggregationOracle(fn, {"kind": "modular"})
        items = [Item(1, 1, 2), Item(2, 1, 3), Item(3, 1, 5)]
        mod = modularize(Instance(items, 1, (3,), (1,), user))
        assert mod.kept_ids == (1, 2, 3)
        assert mod.ik.oracle is not user
        assert mod.ik.oracle.evaluate({1, 2, 3}) == 10
        assert mod.ik.oracle.evaluate({2, 3}) == 8
        assert user.evaluate({1, 2, 3}) == 21

    @pytest.mark.parametrize("build", [lambda inst: inst, decoded], ids=["built", "decoded"])
    def test_brute_force_evaluations_are_not_reported(self, build):
        inst = build(make_modular_instance(7, 3, random.Random(8)))
        report = solve_ik_aon(inst, solver="brute")
        layers = report.chain.layers()
        recheck = 1 + sum(map(bool, layers[1:]))
        assert report.oracle_calls == 2 * len(inst) + recheck <= 2 * len(inst) + inst.horizon


class EvaluateOnly:
    """An oracle wrapper with only descriptor, call_count and evaluate(), like a tracing proxy."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.descriptor = oracle.descriptor
        self.asked: list[frozenset] = []

    @property
    def call_count(self) -> int:
        return self._oracle.call_count

    def evaluate(self, items) -> int:
        self.asked.append(frozenset(items))
        return self._oracle.evaluate(items)


def with_oracle(inst, oracle):
    return Instance(inst.items, inst.horizon, inst.capacities, inst.deltas, oracle)


class TestEvaluateFallback:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("solver", ["exact", "heuristic"])
    def test_same_report_and_calls_as_the_incremental_path(self, family, solver):
        for seed in range(6):
            inst = make_family_instance(family, (8, 30)[seed % 2], 3, random.Random(seed))
            if solver == "exact" and len(inst) > 18:
                continue
            fresh = oracle_from_descriptor(inst.oracle.descriptor, inst.profits_by_id)
            fast = solve_ik_aon(inst, solver=solver, seed=seed)
            slow = solve_ik_aon(with_oracle(inst, EvaluateOnly(fresh)), solver=solver, seed=seed)
            assert dataclasses.replace(slow, elapsed_ms=0) == dataclasses.replace(
                fast, elapsed_ms=0
            )
            assert fresh.call_count == inst.oracle.call_count

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fallback_evaluates_singletons_then_basis_plus_item(self, family):
        for seed in range(4):
            inst = make_family_instance(family, 12, 2, random.Random(seed))
            proxy = EvaluateOnly(inst.oracle)
            reduced, dropped = preprocess_singletons(with_oracle(inst, proxy))
            mod = modularize(reduced)
            expected = [frozenset((i,)) for i in inst.item_ids]
            kept = set(mod.kept_ids)
            for _, klass in profit_partition(reduced):
                grown: set[int] = set()
                for i in sorted(klass, key=lambda i: (reduced.weight_of(i), i)):
                    expected.append(frozenset(grown | {i}))
                    if i in kept:
                        grown.add(i)
            assert proxy.asked[: len(expected)] == expected
            assert len(proxy.asked) == 2 * len(inst) - len(dropped)


def _renamed_matroid(obj, new_id):
    if obj["kind"] == "uniform":
        return {**obj, "ground": [new_id[i] for i in obj["ground"]]}
    if obj["kind"] == "partition":
        groups = [{**g, "members": [new_id[i] for i in g["members"]]} for g in obj["groups"]]
        return {**obj, "groups": groups}
    return {**obj, "edges": [{**e, "item": new_id[e["item"]]} for e in obj["edges"]]}


def renamed_and_shuffled(inst, rng):
    """inst with scattered, partly negative ids, its items shuffled, its oracle rebuilt."""
    new_id = dict(zip(inst.item_ids, rng.sample(range(-3 * len(inst), 3 * len(inst)), len(inst))))
    items = [Item(new_id[i], w, p) for i, w, p in inst.items]
    rng.shuffle(items)
    descriptor = inst.oracle.descriptor
    if descriptor["kind"] == "matroid_rank_sum":
        classes = [
            {**c, "matroid": _renamed_matroid(c["matroid"], new_id)}
            for c in descriptor["classes"]
        ]
        descriptor = {**descriptor, "classes": classes}
    oracle = oracle_from_descriptor(descriptor, {it.id: it.profit for it in items})
    return Instance(items, inst.horizon, inst.capacities, inst.deltas, oracle)


class TestPerClassDefinition:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_modularize_is_min_weight_basis_over_profit_partition(self, family):
        for seed in range(5):
            rng = random.Random(seed)
            inst = renamed_and_shuffled(make_family_instance(family, 40, 2, rng), rng)
            reduced, _ = preprocess_singletons(inst)
            ref = with_oracle(
                reduced, oracle_from_descriptor(reduced.oracle.descriptor, reduced.profits_by_id)
            )
            before = ref.oracle.call_count
            bases = tuple(min_weight_basis(ref, ids) for _, ids in profit_partition(ref))
            ref_calls = ref.oracle.call_count - before
            kept = tuple(sorted(i for basis in bases for i, _, _ in basis))
            before = reduced.oracle.call_count
            mod = modularize(reduced)
            assert reduced.oracle.call_count - before == ref_calls == len(reduced)
            assert bases_of(mod.ik.items) == bases
            assert mod.kept_ids == kept
            assert mod.ik.items == tuple(reduced.item(i) for i in kept)

    def test_gain_above_profit_raises_the_same_violation(self):
        # Classes {1, 2} at profit 1 and {-3, 7} at profit 5; the pair {-3, 7}
        # is worth 100 more than its profit sum.
        profits = {1: 1, 2: 1, -3: 5, 7: 5}

        def fn(s):
            return sum(profits[i] for i in s) + (100 if {-3, 7} <= s else 0)

        items = [Item(7, 2, 5), Item(2, 1, 1), Item(-3, 2, 5), Item(1, 1, 1)]
        inst = Instance(items, 1, (10,), (1,), AggregationOracle(fn, {"kind": "pair-bonus"}))
        message = (
            "gamma(S) = 110 > p(S) = 10 for S=[-3, 7]; "
            "oracle is outside the all-or-nothing class"
        )
        for reduce in (modularize, lambda inst: min_weight_basis(inst, {7, -3})):
            with pytest.raises(OracleViolation) as exc:
                reduce(inst)
            assert str(exc.value) == message


def bases_of(items):
    """Kept items regrouped into their classes' bases: by profit, each in greedy order.

    Sorting by (profit, weight, id) puts each class's kept items in the
    order min_weight_basis returns them, so classes with a kept item give
    exactly their bases.
    """
    order = sorted(items, key=itemgetter(2, 1, 0))
    return tuple(tuple(run) for _, run in groupby(order, itemgetter(2)))


def reduction_outcome(inst, preprocess=True):
    """What the reduction gives, or the error it raises, with the calls it made."""
    try:
        reduced, dropped = preprocess_singletons(inst) if preprocess else (inst, ())
        mod = modularize(reduced)
    except (UnknownItemId, OracleViolation) as exc:
        return type(exc), str(exc), inst.oracle.call_count
    return dropped, bases_of(mod.ik.items), mod.kept_ids, mod.ik.items, inst.oracle.call_count


def both_paths(items, make_oracle, preprocess=True):
    """The reduction's outcome through the bulk calls and through evaluate() alone."""
    inst = Instance(items, 1, [100], [1], make_oracle())
    bulk = reduction_outcome(inst, preprocess)
    slow = reduction_outcome(with_oracle(inst, EvaluateOnly(make_oracle())), preprocess)
    assert bulk == slow
    return bulk


def rank_sum(*classes):
    return lambda: matroid_rank_sum_oracle(classes)


def class_items(make_oracle, weights=(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)):
    """One item per ground id, at its class profit, with weights repeating by id."""
    pairs = sorted(
        (i, c["profit"])
        for c in make_oracle().descriptor["classes"]
        for i in ids_of(c["matroid"])
    )
    return [Item(i, weights[k % len(weights)], p) for k, (i, p) in enumerate(pairs)]


def ids_of(matroid):
    if matroid["kind"] == "uniform":
        return matroid["ground"]
    if matroid["kind"] == "partition":
        return [i for g in matroid["groups"] for i in g["members"]]
    return [e["item"] for e in matroid["edges"]]


#: Hand-built rank sums: a cap-0 uniform class, cap-0 partition groups (one
#: class with no other group), and graphic classes that reuse vertex ids,
#: with self-loops and parallel edges.
HAND_BUILT = {
    "uniform-cap-0": rank_sum(
        (2, MatroidSpec.uniform([1, 2, 3], 2)),
        (5, MatroidSpec.uniform([4, 5], 0)),
        (7, MatroidSpec.uniform([6], 1)),
    ),
    "partition-cap-0": rank_sum(
        (3, MatroidSpec.partition([([1, 2, 3], 1), ([4, 5], 0), ([6], 1)])),
        (4, MatroidSpec.partition([([7, 8, 9], 0)])),
        (8, MatroidSpec.partition([([10, 11], 2), ([12, 13, 14], 1)])),
    ),
    "graphic-reused-vertices": rank_sum(
        (2, MatroidSpec.graphic([(1, 0, 1), (2, 0, 1), (3, 1, 1), (4, 1, 2), (5, 0, 2)])),
        (6, MatroidSpec.graphic(
            [(6, 0, 1), (7, 1, 2), (8, 0, 2), (9, 2, 2), (10, 0, 1), (11, 3, 0)]
        )),
    ),
    "scattered-negative-ids": rank_sum(
        (1, MatroidSpec.graphic([(-40, -1, -2), (7, -2, -3), (-3, -3, -1), (900, -5, -5)])),
        (4, MatroidSpec.partition([([-7, 15], 1), ([-100], 0)])),
        (9, MatroidSpec.uniform([-2, 33, -61], 2)),
    ),
}


class TestBulkAgainstEvaluate:
    """The bulk calls give the evaluate() path's bases, kept and dropped items,
    call counts and error texts."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_families(self, family):
        for seed in range(8):
            rng = random.Random(seed)
            inst = make_family_instance(family, (12, 40)[seed % 2], 2, rng)
            if seed >= 4:
                inst = renamed_and_shuffled(inst, rng)
            descriptor, profits = inst.oracle.descriptor, inst.profits_by_id
            both_paths(inst.items, lambda: oracle_from_descriptor(descriptor, profits))

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        make = HAND_BUILT[name]
        items = class_items(make)
        rng = random.Random(3)
        for _ in range(10):
            dropped, bases, kept, _, calls = both_paths(items, make)
            assert calls == 2 * len(items) - len(dropped)
            reduced = Instance([it for it in items if it.id not in dropped], 1, [100], [1], make())
            assert bases == tuple(
                min_weight_basis(reduced, ids) for _, ids in profit_partition(reduced)
            )
            rng.shuffle(items)

    def test_hand_built_bases(self):
        make = HAND_BUILT["graphic-reused-vertices"]
        dropped, bases, kept, _, _ = both_paths(class_items(make), make)
        # Weights 3 1 4 1 5 | 9 2 6 5 3 3 for items 1-5 | 6-11; self-loops 3
        # and 9 are dropped, and parallel edges 1 and 6 close cycles.
        assert dropped == (3, 9)
        assert [(sorted(map(itemgetter(0), b)), sum(map(itemgetter(1), b))) for b in bases] == [
            ([2, 4], 2), ([7, 10, 11], 8),
        ]
        assert kept == (2, 4, 7, 10, 11)

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_item_outside_the_ground(self, preprocess):
        items = [Item(1, 1, 2), Item(2, 1, 2), Item(9, 1, 2)]
        for make in (
            rank_sum((2, MatroidSpec.uniform([1, 2], 1))),
            lambda: modular_oracle({1: 2, 2: 2}),
        ):
            error, text, calls = both_paths(items, make, preprocess)
            assert error is UnknownItemId and "outside oracle ground" in text
            assert calls == 3

    def test_singleton_off_its_class_profit(self):
        items = [Item(1, 1, 5), Item(2, 1, 3)]
        error, text, calls = both_paths(items, rank_sum((5, MatroidSpec.uniform([1, 2], 2))))
        assert (error, text, calls) == (
            OracleViolation, "gamma({2}) = 5, expected 0 or p_2 = 3", 2
        )

    @pytest.mark.parametrize(
        "make",
        [rank_sum((3, MatroidSpec.graphic([(1, 0, 1)])), (5, MatroidSpec.uniform([2], 1))),
         lambda: modular_oracle({1: 3, 2: 5})],
        ids=["rank-sum", "modular"],
    )
    def test_gain_above_the_profit_without_preprocessing(self, make):
        # One profit-3 run: item 1 joins B, then item 2 gains its class's 5.
        items = [Item(1, 1, 3), Item(2, 2, 3)]
        error, text, calls = both_paths(items, make, preprocess=False)
        assert error is OracleViolation
        assert text == (
            "gamma(S) = 8 > p(S) = 6 for S=[1, 2]; oracle is outside the all-or-nothing class"
        )
        assert calls == 2

    @pytest.mark.parametrize(
        "make, kept",
        [
            # Item 3 sits above its class profit (gain 2 < 5), and the
            # profit-5 run mixes both classes.
            (rank_sum((2, MatroidSpec.uniform([1, 2, 3], 2)), (5, MatroidSpec.uniform([4, 5], 1))),
             [[1, 2], [4]]),
            # Item 3's table value 4 falls short of its profit 5.
            (lambda: modular_oracle({1: 2, 2: 2, 3: 4, 4: 5, 5: 5}), [[1, 2], [4, 5]]),
        ],
        ids=["rank-sum", "modular"],
    )
    def test_runs_off_their_class_profit_keep_their_answers(self, make, kept):
        items = [Item(1, 1, 2), Item(2, 2, 2), Item(3, 0, 5), Item(4, 1, 5), Item(5, 2, 5)]
        dropped, bases, kept_ids, _, calls = both_paths(items, make, preprocess=False)
        assert [sorted(map(itemgetter(0), b)) for b in bases] == kept
        assert kept_ids == tuple(sorted(sum(kept, []))) and dropped == () and calls == 5

    def test_min_weight_basis_over_items_off_their_class_profit(self):
        # One class at profit 2 with cap 2; item 2 carries 5, so its gain 2
        # falls short of its profit and it stays out.
        make = rank_sum((2, MatroidSpec.uniform([1, 2, 3], 2)))
        items = [Item(1, 0, 2), Item(2, 1, 5), Item(3, 2, 2)]
        outcomes = []
        for oracle in (make(), EvaluateOnly(make())):
            inst = Instance(items, 1, [9], [1], oracle)
            outcomes.append((min_weight_basis(inst, [3, 2, 1]), oracle.call_count))
        assert outcomes[0] == outcomes[1] == ((Item(1, 0, 2), Item(3, 2, 2)), 3)

    def test_min_weight_basis_is_in_greedy_order_whatever_the_class_order(self):
        # Cap 4 over five items: weights 0 1 1 3 3 for ids 4 2 3 1 5, so the
        # tie at 3 keeps 1 and leaves 5 out, and the greedy order is not the
        # id order.
        make = rank_sum((2, MatroidSpec.uniform([1, 2, 3, 4, 5], 4)))
        items = [Item(1, 3, 2), Item(2, 1, 2), Item(3, 1, 2), Item(4, 0, 2), Item(5, 3, 2)]
        basis = (Item(4, 0, 2), Item(2, 1, 2), Item(3, 1, 2), Item(1, 3, 2))
        rng = random.Random(5)
        ids = [1, 2, 3, 4, 5]
        for _ in range(10):
            rng.shuffle(ids)
            for oracle in (make(), EvaluateOnly(make())):
                inst = Instance(items, 1, [9], [1], oracle)
                assert (min_weight_basis(inst, ids), oracle.call_count) == (basis, 5)


def random_layers(ground, horizon, rng):
    """Layers of a random chain over ground: spread out, all at t=1, none, or late."""
    shape = rng.choice(["spread", "spread", "all-at-1", "nothing", "late"])
    ids = rng.sample(sorted(ground), rng.randint(0, len(ground)))
    if shape == "nothing":
        ids = []
    first = horizon if shape == "late" else 1
    last = 1 if shape == "all-at-1" else horizon
    layers = [[] for _ in range(horizon)]
    for i in ids:
        layers[rng.randint(first, last) - 1].append(i)
    return layers


def chain_outcome(oracle, layers):
    """chain_gammas()'s values, or the error it raises, with the calls it made."""
    before = oracle.call_count
    try:
        values = chain_gammas(oracle, layers)
    except UnknownItemId as exc:
        values = (UnknownItemId, str(exc))
    return values, oracle.call_count - before


def rank_sum_ground(descriptor):
    return {i for c in descriptor["classes"] for i in ids_of(c["matroid"])}


def rank_sums(descriptor, layers):
    """sum of p * matroid_rank over the classes, for each S_t, from the descriptor."""
    specs = [(c["profit"], _matroid_from_obj(c["matroid"])) for c in descriptor["classes"]]
    members: set[int] = set()
    out = []
    for layer in layers:
        members.update(layer)
        out.append(sum(p * matroid_rank(spec, members & spec.ground) for p, spec in specs))
    return out


class TestChainGammas:
    """chain_gammas() answered in bulk gives the evaluate() path's values, call
    counts and errors, and the rank sums of the chain's sets."""

    def check(self, make_oracle, ground, rng, horizons=(1, 2, 3, 5)):
        descriptor = make_oracle().descriptor
        for _ in range(12):
            layers = random_layers(ground, rng.choice(horizons), rng)
            bulk = chain_outcome(make_oracle(), layers)
            proxy = EvaluateOnly(make_oracle())
            assert bulk == chain_outcome(proxy, layers)
            values, calls = bulk
            assert calls == 1 + sum(map(bool, layers[1:])) == len(proxy.asked)
            if descriptor["kind"] == "matroid_rank_sum":
                assert values == rank_sums(descriptor, layers)
            # An id outside the ground: the same error, after the same calls.
            outside = max(ground, default=0) + 1000
            rng.choice(layers).append(outside)
            values, calls = chain_outcome(make_oracle(), layers)
            assert values[0] is UnknownItemId and "outside oracle ground" in values[1]
            assert (values, calls) == chain_outcome(EvaluateOnly(make_oracle()), layers)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_families(self, family):
        for seed in range(6):
            rng = random.Random(seed)
            inst = make_family_instance(family, (6, 40)[seed % 2], 2, rng)
            descriptor, profits = inst.oracle.descriptor, inst.profits_by_id
            ground = set(profits) if family == "modular" else rank_sum_ground(descriptor)
            self.check(lambda: oracle_from_descriptor(descriptor, profits), ground, rng)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        make = HAND_BUILT[name]
        self.check(make, rank_sum_ground(make().descriptor), random.Random(5))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_profit_phi_and_recheck_with_zero_deltas(self, family):
        rng = random.Random(11)
        for _ in range(6):
            horizon = rng.randint(1, 4)
            inst = make_family_instance(family, 12, horizon, rng)
            deltas = [rng.choice([0, 0, 1, 3]) for _ in range(horizon)]
            inst = Instance(inst.items, horizon, [10**6] * horizon, deltas, inst.oracle)
            layers = random_layers(inst.item_ids, horizon, rng)
            chain = Chain(horizon, {i: t for t, layer in enumerate(layers, 1) for i in layer})
            fresh = oracle_from_descriptor(inst.oracle.descriptor, inst.profits_by_id)
            slow = with_oracle(inst, EvaluateOnly(fresh))
            before = inst.oracle.call_count
            phi = profit_phi(inst, chain)
            assert phi == profit_phi(slow, chain) == sum(
                d * inst.oracle.evaluate(s) for d, s in zip(deltas, chain.sets())
            )
            phi_bar = profit_phi_bar(inst.profits_by_id, deltas, chain)
            assert verify_solution(inst, chain, phi, phi_bar) == verify_solution(
                slow, chain, phi, phi_bar
            ) == []
            calls = 1 + sum(map(bool, layers[1:]))
            assert fresh.call_count == len(slow.oracle.asked) == 2 * calls
            assert inst.oracle.call_count - before == 2 * calls + horizon


class TestIncrementalScale:
    @pytest.mark.parametrize("family", ["graphic-classes", "partition-classes"])
    def test_reduction_makes_no_evaluate_call_at_n_20000(self, family, monkeypatch):
        inst = make_family_instance(family, 20_000, 3, random.Random(4))

        def no_evaluate(self, items):
            raise AssertionError("the reduction called evaluate()")

        monkeypatch.setattr(AggregationOracle, "evaluate", no_evaluate)
        reduced, dropped = preprocess_singletons(inst)
        modularize(reduced)
        assert inst.oracle.call_count == 2 * len(inst) - len(dropped)


@pytest.mark.parametrize("family", ["vc-reduction", "nonsense"])
def test_unknown_family_names_only_the_random_families(family):
    with pytest.raises(BadFamily) as exc:
        make_family_instance(family, 3, 1, random.Random(0))
    assert str(exc.value).endswith(f"known: {sorted(FAMILIES)}")


PINNED_REPORTS = [
    # family, solver, and the first 12 hex digits of the SHA-256 of the
    # canonical report less elapsed_ms; graphic and modular drop no item,
    # partition and uniform drop two.
    ("graphic-classes", "exact", "7f8d2a5b58bb"),
    ("graphic-classes", "heuristic", "b94ea0632100"),
    ("modular", "exact", "2075651c3a3e"),
    ("modular", "heuristic", "baa8f510ee2b"),
    ("partition-classes", "exact", "a407731179c5"),
    ("partition-classes", "heuristic", "5bf626ac42fd"),
    ("uniform-classes", "exact", "6110b327100d"),
    ("uniform-classes", "heuristic", "8e32a1675813"),
]


class TestSolveIkAon:
    @pytest.mark.parametrize("family, solver, expected", PINNED_REPORTS)
    def test_report_is_pinned(self, family, solver, expected):
        inst = make_family_instance(family, 12, 3, random.Random(f"{family}/report"))
        obj = report_to_obj(solve_ik_aon(inst, solver, seed=7), inst.item_ids)
        del obj["elapsed_ms"]
        assert hashlib.sha256(dumps_canonical(obj).encode()).hexdigest()[:12] == expected

    def test_matroid_rank_instances_match_greedy_chain(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = make_matroid_rank_instance(rng.randint(1, 8), rng.randint(1, 3), rng)
            report = solve_ik_aon(inst, solver="exact")
            greedy = greedy_matroid_chain(inst)
            assert report.phi == profit_phi(inst, greedy)
            value, _ = brute_force_chains(inst)
            assert report.phi == value

    def test_modular_pipeline_equals_direct_solve(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = make_modular_instance(rng.randint(0, 9), rng.randint(1, 3), rng)
            report = solve_ik_aon(inst, solver="exact")
            mod = modularize(inst)
            direct = solve_exact(mod.ik)
            assert report.phi == direct.value

    def test_exhaustive_optimality_small_instances(self):
        rng = random.Random(13)
        for _ in range(60):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 7), rng.randint(1, 3), rng)
            report = solve_ik_aon(inst, solver="exact")
            value, witness = brute_force_chains(inst)
            assert report.phi == value
            assert is_feasible(inst, report.chain)
            assert is_feasible(inst, witness)

    def test_phi_equals_phi_bar_on_every_modularized_chain(self):
        rng = random.Random(17)
        for _ in range(15):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 6), rng.randint(1, 3), rng)
            reduced, _ = preprocess_singletons(inst)
            mod = modularize(reduced)
            for chain in iter_feasible_chains(mod.ik):
                phi = profit_phi(reduced, chain)
                phi_bar = profit_phi_bar(reduced.profits_by_id, reduced.deltas, chain)
                assert phi == phi_bar

    def test_solver_selection(self):
        rng = random.Random(19)
        small = make_modular_instance(6, 2, rng)
        assert solve_ik_aon(small).solver == "exact"
        large = make_modular_instance(20, 2, rng)
        assert solve_ik_aon(large).solver == "heuristic"
        assert solve_ik_aon(small, solver="brute").phi == solve_ik_aon(small).phi
        heur = solve_ik_aon(small, solver="heuristic")
        assert heur.phi <= solve_ik_aon(small).phi

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_auto_is_exact_within_both_limits_and_heuristic_past_either(self, family):
        inst = make_family_instance(family, 12, 3, random.Random(15))
        ik = modularize(preprocess_singletons(inst)[0]).ik
        fit = SolveLimits(max_n_exact=len(ik), max_t_exact=ik.horizon)
        exact, heuristic = solve_exact(ik, fit), solve_heuristic(ik, seed=5, limits=fit)
        assert exact.chain != heuristic.chain  # so the chain tells the solvers apart
        report = solve_ik_aon(inst, "auto", fit, seed=5)
        assert report.solver == "exact" and report.chain == exact.chain
        for past in (dataclasses.replace(fit, max_n_exact=len(ik) - 1),
                     dataclasses.replace(fit, max_t_exact=ik.horizon - 1)):
            report = solve_ik_aon(inst, "auto", past, seed=5)
            assert report.solver == "heuristic"
            assert report.chain == solve_heuristic(ik, seed=5, limits=past).chain

    def test_explicit_exact_on_oversized_instance_fails(self):
        rng = random.Random(23)
        inst = make_modular_instance(25, 2, rng)
        with pytest.raises(LimitsExceeded):
            solve_ik_aon(inst, solver="exact")

    def test_invalid_instance_rejected(self):
        inst = Instance([Item(1, 1, 0)], 1, (3,), (1,), modular_oracle({1: 1}))
        with pytest.raises(InvalidInstance):
            solve_ik_aon(inst)

    def test_report_fields(self):
        rng = random.Random(29)
        inst = make_uniform_classes_instance(7, 2, rng)
        report = solve_ik_aon(inst)
        assert report.phi == report.phi_bar
        assert set(report.kept_items) <= set(inst.item_ids)
        assert report.chain.final_set <= set(report.kept_items)
        # preprocessing costs one call per item, modularization one per survivor
        assert report.oracle_calls >= len(inst) + len(report.kept_items)
        assert report.elapsed_ms >= 0

    def test_buggy_solver_is_caught(self, monkeypatch):
        rng = random.Random(31)
        inst = make_modular_instance(4, 2, rng)

        def broken(name, ik, limits, seed):
            overfull = Chain(ik.horizon, {i: 1 for i in ik.item_ids})
            return SolveResult(
                chain=overfull, value=10**9, optimal=True, nodes=0, solver=name
            )

        monkeypatch.setattr(pipeline, "_run_ik_solver", broken)
        with pytest.raises(InfeasibleInternal):
            solve_ik_aon(inst)

    def test_unknown_solver_name_is_an_internal_failure(self):
        ik = make_modular_instance(3, 1, random.Random(31))
        with pytest.raises(SolverFailure, match="unknown solver 'bogus'"):
            pipeline._run_ik_solver("bogus", ik, SolveLimits(), 0)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_misreported_value_is_an_internal_failure(self, monkeypatch, solver):
        inst = make_modular_instance(6, 2, random.Random(31))
        run = pipeline._run_ik_solver

        def misreports(name, ik, limits, seed):
            result = run(name, ik, limits, seed)
            assert is_feasible(inst, result.chain)  # only the value is wrong
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(pipeline, "_run_ik_solver", misreports)
        with pytest.raises(InfeasibleInternal):
            solve_ik_aon(inst, solver)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_contract_broken_only_on_the_chain_is_an_oracle_violation(self, solver):
        inst = instance_from_obj(RECHECK_ONLY_VIOLATION)
        assert preprocess_singletons(inst)[1] == ()  # every singleton equals its profit
        with pytest.raises(OracleViolation):
            solve_ik_aon(inst, solver)

    def test_recheck_failures_name_the_solver_and_the_mismatch_lines(self, monkeypatch):
        inst = instance_from_obj(RECHECK_ONLY_VIOLATION)
        with pytest.raises(OracleViolation) as exc:
            solve_ik_aon(inst, "exact")
        assert str(exc.value) == (
            "solver 'exact' failed its recheck: PhiMismatch: recomputed 2 != claimed 3; "
            "the oracle violates the all-or-nothing contract"
        )
        inst = make_modular_instance(6, 2, random.Random(31))
        value = solve_ik_aon(inst, "exact").phi
        run = pipeline._run_ik_solver
        monkeypatch.setattr(
            pipeline,
            "_run_ik_solver",
            lambda *args: dataclasses.replace(run(*args), value=value + 1),
        )
        with pytest.raises(InfeasibleInternal) as exc:
            solve_ik_aon(inst, "exact")
        assert str(exc.value) == (
            "solver 'exact' failed its recheck: "
            f"PhiMismatch: recomputed {value} != claimed {value + 1}; "
            f"PhiBarMismatch: recomputed {value} != claimed {value + 1}"
        )


class TestVerifySolution:
    def test_solver_output_verifies(self):
        rng = random.Random(37)
        for _ in range(10):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 8), rng.randint(1, 3), rng)
            report = solve_ik_aon(inst)
            assert verify_solution(inst, report.chain, report.phi, report.phi_bar) == []

    def test_forged_value_detected(self):
        rng = random.Random(41)
        inst = make_modular_instance(5, 2, rng)
        report = solve_ik_aon(inst)
        mismatches = verify_solution(inst, report.chain, report.phi + 1, report.phi_bar)
        assert mismatches == [f"PhiMismatch: recomputed {report.phi} != claimed {report.phi + 1}"]

    def test_forged_modular_value_detected(self):
        rng = random.Random(41)
        inst = make_modular_instance(5, 2, rng)
        report = solve_ik_aon(inst)
        mismatches = verify_solution(inst, report.chain, report.phi, report.phi_bar + 2)
        assert mismatches == [
            f"PhiBarMismatch: recomputed {report.phi_bar} != claimed {report.phi_bar + 2}"
        ]

    def test_non_nested_sets_reported(self):
        rng = random.Random(43)
        inst = make_modular_instance(3, 2, rng)
        mismatches = verify_solution(inst, [{1, 2}, {2}], 0, 0)
        assert len(mismatches) == 1 and mismatches[0].startswith("NotNested: ")

    def test_infeasible_chain_reported(self):
        inst = Instance(
            [Item(1, 5, 2)], 1, (1,), (1,), modular_oracle({1: 2})
        )
        assert verify_solution(inst, Chain(1, {1: 1}), 2, 2) == [
            "Infeasible: some period exceeds its capacity"
        ]
