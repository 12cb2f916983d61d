"""Instance model: validation, feasibility, profits, partition, preprocessing."""

import enum
import random
import sys
import threading
from itertools import product

import pytest

from iknap import (
    AggregationOracle,
    Chain,
    Instance,
    Item,
    MatroidSpec,
    OracleViolation,
    UnknownItemId,
    brute_force_chains,
    is_feasible,
    matroid_rank_sum_oracle,
    modular_oracle,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    profit_phi_bar,
    validate_instance,
    verify_solution,
)
from iknap.generators import make_modular_instance


def modular_instance(weights, profits, caps, deltas):
    items = [Item(i + 1, w, p) for i, (w, p) in enumerate(zip(weights, profits))]
    # int(): modular_oracle rejects a bool profit, which validation must report.
    oracle = modular_oracle({it.id: int(it.profit) for it in items})
    return Instance(items, len(caps), caps, deltas, oracle)


class TestValidation:
    def test_well_formed_instance_passes(self):
        inst = modular_instance([1, 2], [3, 4], [3, 5], [1, 1])
        assert validate_instance(inst) == []

    def test_decreasing_capacities_rejected(self):
        inst = modular_instance([1, 2], [3, 4], [5, 3], [1, 1])
        assert any(v.startswith("NonMonotoneCapacities") for v in validate_instance(inst))

    def test_zero_profit_rejected(self):
        inst = modular_instance([1], [0], [5], [1])
        assert any(v.startswith("NonPositiveProfit") for v in validate_instance(inst))

    def test_empty_horizon_rejected(self):
        inst = Instance([Item(1, 1, 1)], 0, (), (), modular_oracle({1: 1}))
        assert any(v.startswith("EmptyHorizon") for v in validate_instance(inst))

    def test_negative_delta_and_duplicate_id_rejected(self):
        items = [Item(1, 1, 2), Item(1, 2, 3)]
        inst = Instance(items, 1, (4,), (-1,), modular_oracle({1: 2}))
        report = validate_instance(inst)
        assert any(v.startswith("NegativeDelta") for v in report)
        assert any(v.startswith("DuplicateItemId") for v in report)

    @pytest.mark.parametrize("field", range(4), ids=["weight", "profit", "capacity", "delta"])
    def test_booleans_are_not_integers(self, field):
        fields = [[1], [3], [5], [1]]  # weights, profits, capacities, deltas
        fields[field][0] = True
        inst = modular_instance(*fields)
        assert any(v.startswith("NonIntegerField") for v in validate_instance(inst))

    @pytest.mark.parametrize(
        "horizon, caps", [(2.5, (1, 2)), (2.0, (1, 2)), (True, (1,))], ids=["2.5", "2.0", "True"]
    )
    def test_non_integer_horizon_is_kept_and_reported(self, horizon, caps):
        inst = Instance([Item(1, 1, 1)], horizon, caps, (1,) * len(caps), modular_oracle({1: 1}))
        assert inst.horizon is horizon
        assert validate_instance(inst) == [f"NonIntegerField: T={horizon!r} must be int"]

    @pytest.mark.parametrize("field", range(4), ids=["weight", "profit", "capacity", "delta"])
    def test_int_subclass_is_an_integer(self, field):
        class One(enum.IntEnum):
            ONE = 1

        fields = [[1], [3], [5], [1]]  # weights, profits, capacities, deltas
        fields[field][0] = One.ONE
        assert validate_instance(modular_instance(*fields)) == []

    @pytest.mark.parametrize("field", range(4), ids=["weight", "profit", "capacity", "delta"])
    @pytest.mark.parametrize("raw", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_non_int_is_named_as_non_integer(self, field, raw):
        fields = [[1], [3], [5], [1]]
        fields[field][0] = raw
        expected = [
            "NonIntegerField: item 1 weight/profit must be int",
            "NonIntegerField: item 1 weight/profit must be int",
            "NonIntegerField: W_1 must be int",
            "NonIntegerField: delta_1 must be int",
        ][field]
        assert validate_instance(modular_instance(*fields)) == [expected]

    def test_zero_capacity_prefix_allowed(self):
        inst = modular_instance([1, 2], [3, 4], [0, 5], [1, 1])
        assert validate_instance(inst) == []


class TestItem:
    def test_item_is_an_immutable_hashable_record(self):
        item = Item(1, 2, 3)
        with pytest.raises(AttributeError):
            item.weight = 5
        assert item == Item(id=1, weight=2, profit=3)
        assert hash(item) == hash(Item(1, 2, 3))
        assert item != Item(1, 2, 4)
        assert repr(item) == "Item(id=1, weight=2, profit=3)"

    def test_item_equals_the_plain_tuple_of_its_fields(self):
        assert Item(1, 2, 3) == (1, 2, 3)


class TestChain:
    def test_round_trip_exhaustive(self):
        # every insertion-time vector on 8 items over 3 periods survives
        # the set-view round trip unchanged
        n, horizon = 8, 3
        for vector in product(range(horizon + 1), repeat=n):
            times = {i + 1: t for i, t in enumerate(vector) if t > 0}
            chain = Chain(horizon, times)
            assert Chain.from_sets(chain.sets()) == chain

    def test_from_sets_rejects_non_nested(self):
        with pytest.raises(ValueError, match="nested"):
            Chain.from_sets([{1, 2}, {2}])

    def test_set_view(self):
        chain = Chain(3, {1: 2, 2: 2, 3: 3})
        assert chain.sets() == [frozenset(), frozenset({1, 2}), frozenset({1, 2, 3})]
        assert chain.insertion_time(3) == 3
        assert chain.insertion_time(9) is None

    def test_bad_insertion_time(self):
        with pytest.raises(ValueError):
            Chain(2, {1: 3})

    @pytest.mark.parametrize("t", [0, 4])
    def test_set_at_outside_the_horizon(self, t):
        chain = Chain(3, {1: 2})
        with pytest.raises(ValueError) as exc:
            chain.set_at(t)
        assert str(exc.value) == f"period {t} outside 1..3"
        assert [chain.set_at(u) for u in (1, 2, 3)] == chain.sets()

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_horizon(self, horizon):
        with pytest.raises(ValueError, match="chain horizon must be an integer"):
            Chain(horizon, {1: 1})

    def test_int_subclass_insertion_time(self):
        class P(enum.IntEnum):
            ONE = 1

        assert Chain(1, {1: P.ONE}).insertion_time(1) == 1
        with pytest.raises(ValueError, match="insertion time must be an integer"):
            Chain(1, {1: True})

    @pytest.mark.parametrize("time", [2.0, 1.5, True, "2"], ids=["float", "fraction", "bool", "string"])
    def test_non_integer_insertion_time(self, time):
        with pytest.raises(ValueError, match="insertion time must be an integer"):
            Chain(3, {1: time})


class TestFeasibility:
    def test_empty_chain_feasible(self):
        inst = modular_instance([5, 5], [1, 1], [0, 1], [1, 1])
        assert is_feasible(inst, Chain.empty(2))

    def test_overfull_period_infeasible(self):
        inst = modular_instance([2, 3], [1, 1], [2, 4], [1, 1])
        assert not is_feasible(inst, Chain(2, {1: 1, 2: 2}))

    def test_unknown_item_raises(self):
        inst = modular_instance([2], [1], [2], [1])
        with pytest.raises(UnknownItemId):
            is_feasible(inst, Chain(1, {7: 1}))

    def test_item_lookup_by_unknown_id_raises(self):
        inst = modular_instance([2, 3], [1, 4], [5], [1])
        with pytest.raises(UnknownItemId) as exc:
            inst.item(7)
        assert str(exc.value) == "item id 7 not in instance"
        assert inst.item(2) == Item(2, 3, 4)

    @pytest.mark.parametrize(
        "first_read, expected",
        [
            (lambda inst: inst.item(2), Item(2, 3, 4)),
            (lambda inst: inst.weight_of(1), 2),
            (lambda inst: verify_solution(inst, Chain(1, {2: 1}), 4, 4), []),
            (lambda inst: verify_solution(inst, Chain(1, {1: 1, 2: 1}), 5, 5),
             ["Infeasible: some period exceeds its capacity"]),
        ],
    )
    def test_id_map_is_built_by_its_first_read(self, first_read, expected):
        inst = modular_instance([2, 3], [1, 4], [4], [1])
        assert first_read(inst) == expected
        assert inst.item(1) == Item(1, 2, 1)

    @pytest.mark.parametrize(
        "first_read",
        [lambda inst: inst.item(7), lambda inst: verify_solution(inst, Chain(1, {7: 1}), 0, 0)],
    )
    def test_unknown_id_on_the_first_read_raises(self, first_read):
        inst = modular_instance([2, 3], [1, 4], [5], [1])
        with pytest.raises(UnknownItemId):
            first_read(inst)
        assert inst.item(2) == Item(2, 3, 4)

    def test_threads_making_the_first_read_together_agree(self):
        items = [Item(i, i % 7, 1 + i % 5) for i in range(1, 2001)]
        for _ in range(20):
            inst = Instance(items, 1, (1,), (1,), modular_oracle({it.id: it.profit for it in items}))
            start = threading.Barrier(4, timeout=60)
            results, errors = [], []

            def worker():
                try:
                    start.wait()
                    results.append([inst.item(it.id) for it in reversed(items)])
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
            assert results == [items[::-1]] * 4

    @pytest.mark.parametrize("check, right", [(is_feasible, True), (profit_phi, 2)])
    @pytest.mark.parametrize("horizon", [1, 3])
    def test_wrong_horizon_chain_raises(self, check, right, horizon):
        inst = modular_instance([2, 3], [1, 4], [5, 5], [1, 1])
        with pytest.raises(ValueError) as exc:
            check(inst, Chain(horizon, {1: 1}))
        assert str(exc.value) == f"chain horizon {horizon} != instance horizon 2"
        assert check(inst, Chain(2, {1: 1})) == right

    def test_matches_direct_summation(self):
        rng = random.Random(5)
        for _ in range(200):
            inst = make_modular_instance(rng.randint(1, 8), rng.randint(1, 3), rng)
            times = {
                i: rng.randint(1, inst.horizon)
                for i in inst.item_ids
                if rng.random() < 0.5
            }
            chain = Chain(inst.horizon, times)
            expected = all(
                sum(inst.weight_of(i) for i in chain.set_at(t)) <= inst.capacities[t - 1]
                for t in range(1, inst.horizon + 1)
            )
            assert is_feasible(inst, chain) == expected

    def test_monotone_under_capacity_increase(self):
        rng = random.Random(6)
        for _ in range(100):
            inst = make_modular_instance(rng.randint(1, 8), rng.randint(1, 3), rng)
            times = {
                i: rng.randint(1, inst.horizon)
                for i in inst.item_ids
                if rng.random() < 0.4
            }
            chain = Chain(inst.horizon, times)
            if not is_feasible(inst, chain):
                continue
            bumped = []
            prev = 0
            for w in inst.capacities:
                prev = max(prev, w + rng.randint(0, 4))
                bumped.append(prev)
            wider = Instance(inst.items, inst.horizon, bumped, inst.deltas, inst.oracle)
            assert is_feasible(wider, chain)


class TestProfits:
    def test_empty_chain_worth_zero(self):
        inst = modular_instance([1, 1], [4, 7], [5, 5], [1, 2])
        assert profit_phi(inst, Chain.empty(2)) == 0
        assert profit_phi_bar(inst.profits_by_id, inst.deltas, Chain.empty(2)) == 0

    def test_hand_expanded_value(self):
        # 1*gamma({1}) + 2*gamma({1,2}) = 1*4 + 2*11 = 26
        inst = modular_instance([1, 1], [4, 7], [5, 5], [1, 2])
        chain = Chain(2, {1: 1, 2: 2})
        assert profit_phi(inst, chain) == 26
        assert profit_phi_bar(inst.profits_by_id, inst.deltas, chain) == 26

    def test_zero_coefficients_annihilate(self):
        inst = modular_instance([1, 1], [4, 7], [5, 5], [0, 0])
        assert profit_phi(inst, Chain(2, {1: 1, 2: 1})) == 0

    def test_late_insertion_suffix_sum(self):
        # single item p=5 inserted at t=2 of 3: 5 * (1 + 1) = 10
        assert profit_phi_bar({1: 5}, [1, 1, 1], Chain(3, {1: 2})) == 10

    def test_consecutive_duplicate_sets_reuse_oracle_value(self):
        inst = modular_instance([1, 1], [4, 7], [5, 5, 5], [1, 1, 1])
        chain = Chain(3, {1: 1, 2: 3})  # S_1 == S_2
        before = inst.oracle.call_count
        value = profit_phi(inst, chain)
        assert value == 4 + 4 + 11
        assert inst.oracle.call_count - before == 2

    def test_phi_stable_under_reevaluation(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = make_modular_instance(rng.randint(1, 7), rng.randint(1, 3), rng)
            times = {
                i: rng.randint(1, inst.horizon)
                for i in inst.item_ids
                if rng.random() < 0.5
            }
            chain = Chain(inst.horizon, times)
            first = profit_phi(inst, chain)
            assert profit_phi(inst, chain) == first
            naive = sum(
                inst.deltas[t - 1] * inst.oracle.evaluate(chain.set_at(t))
                for t in range(1, inst.horizon + 1)
            )
            assert first == naive

    def test_phi_bar_unknown_item(self):
        with pytest.raises(UnknownItemId) as exc:
            profit_phi_bar({1: 5}, [1], Chain(1, {2: 1}))
        assert str(exc.value) == "chain references unknown item id 2"

    @pytest.mark.parametrize("horizon", [1, 3])
    def test_phi_bar_wrong_horizon_chain_raises(self, horizon):
        with pytest.raises(ValueError) as exc:
            profit_phi_bar({1: 5}, [1, 2], Chain(horizon, {1: 1}))
        assert str(exc.value) == f"chain horizon {horizon} != len(deltas)=2"
        assert profit_phi_bar({1: 5}, [1, 2], Chain(2, {1: 1})) == 15


class TestProfitClasses:
    def test_grouping_by_equality(self):
        inst = modular_instance([1, 1, 1], [5, 5, 9], [3, 3], [1, 1])
        part = profit_partition(inst)
        assert tuple(p for p, _ in part) == (5, 9)
        assert part[0][1] == frozenset({1, 2})
        assert part[1][1] == frozenset({3})

    def test_distinct_profits_give_singletons(self):
        inst = modular_instance([1, 1, 1], [2, 7, 4], [3, 3], [1, 1])
        part = profit_partition(inst)
        assert len(part) == 3
        assert all(len(members) == 1 for _, members in part)

    def test_classes_partition_ground_set(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 12)
            profits = [rng.randint(1, 4) for _ in range(n)]
            inst = modular_instance([1] * n, profits, [n], [1])
            part = profit_partition(inst)
            union = set()
            for _, members in part:
                assert members, "classes must be nonempty"
                assert not union & members, "classes must be disjoint"
                union |= members
            assert union == set(inst.item_ids)
            assert [p for p, _ in part] == sorted(set(profits))


class TestPreprocessSingletons:
    def test_modular_drops_nothing_and_returns_the_instance_itself(self):
        inst = modular_instance([1, 2], [3, 4], [3, 3], [1, 1])
        before = inst.oracle.call_count
        reduced, dropped = preprocess_singletons(inst)
        assert dropped == ()
        assert reduced is inst
        assert inst.oracle.call_count - before == len(inst)

    def test_zero_marginal_item_dropped_and_optimum_unchanged(self):
        # class {3} sits behind a cap-0 matroid: gamma({3}) = 0
        items = [Item(1, 1, 2), Item(2, 2, 2), Item(3, 1, 5)]
        oracle = matroid_rank_sum_oracle(
            [
                (2, MatroidSpec.uniform([1, 2], 2)),
                (5, MatroidSpec.uniform([3], 0)),
            ]
        )
        inst = Instance(items, 1, (3,), (1,), oracle)
        reduced, dropped = preprocess_singletons(inst)
        assert dropped == (3,)
        assert reduced.item_ids == (1, 2)
        full_opt, _ = brute_force_chains(inst)
        reduced_opt, _ = brute_force_chains(reduced)
        assert full_opt == reduced_opt

    def test_partial_singleton_value_is_contract_violation(self):
        oracle = AggregationOracle(lambda s: 3 * len(s), {"kind": "broken"})
        inst = Instance([Item(1, 1, 5)], 1, (2,), (1,), oracle)
        with pytest.raises(OracleViolation):
            preprocess_singletons(inst)
