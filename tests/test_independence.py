"""Independence tests: verdicts, cycles, bases, exchange, chain restriction."""

import random

import pytest

from iknap import (
    AggregationOracle,
    Chain,
    ChainNotIndependent,
    Item,
    MatroidSpec,
    NotDependent,
    OracleViolation,
    brute_force_chains,
    check_matroid_exchange,
    find_cycle,
    greedy_matroid_chain,
    is_independent,
    matroid_rank,
    matroid_rank_sum_oracle,
    min_weight_basis,
    modular_oracle,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    restrict_chain_to_basis,
)
from iknap.generators import (
    make_graphic_classes_instance,
    make_matroid_rank_instance,
    make_partition_classes_instance,
    make_uniform_classes_instance,
)
from iknap.oracles import EXCHANGE_EXHAUSTIVE_LIMIT
from helpers import (
    exchange_breaking_oracle,
    maximal_independent_subsets,
    random_independent_chain,
    single_class_instance,
    subsets,
)


def uniform_class(n, cap, profit=5, weights=None):
    oracle = matroid_rank_sum_oracle(
        [(profit, MatroidSpec.uniform(range(1, n + 1), cap))]
    )
    return single_class_instance(oracle, n, profit=profit, weights=weights)


CLASS_FAMILIES = {
    "uniform": make_uniform_classes_instance,
    "partition": make_partition_classes_instance,
    "graphic": make_graphic_classes_instance,
}


def random_class_instance(rng, size, kind=None):
    """A retained single-profit-class instance of the requested size."""
    kind = kind or rng.choice(list(CLASS_FAMILIES))
    while True:
        inst = CLASS_FAMILIES[kind](size, 1, rng)
        reduced, _ = preprocess_singletons(inst)
        classes = [m for _, m in profit_partition(reduced) if len(m) == size]
        if classes:
            return reduced, classes[0]


class TestIsIndependent:
    def test_modular_everything_independent(self):
        inst = single_class_instance(modular_oracle({1: 2, 2: 2, 3: 2}), 3, profit=2)
        assert all(is_independent(inst, s) for s in subsets([1, 2, 3]))

    def test_capped_rank_is_dependent(self):
        inst = uniform_class(2, 1)
        assert is_independent(inst, {1})
        assert not is_independent(inst, {1, 2})

    def test_matches_per_class_rank_prediction(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 6)
            inst, _ = random_class_instance(rng, rng.randint(1, n))
            specs = [
                (c["profit"], c["matroid"])
                for c in inst.oracle.descriptor["classes"]
            ]
            from iknap.oracles import _matroid_from_obj

            for s in subsets(inst.item_ids):
                expected = all(
                    matroid_rank(spec, s & spec.ground) == len(s & spec.ground)
                    for _, raw in specs
                    for spec in [_matroid_from_obj(raw)]
                )
                assert is_independent(inst, s) == expected

    def test_gamma_above_profit_sum_is_oracle_error(self):
        oracle = AggregationOracle(lambda s: 10 * len(s), {"kind": "broken"})
        inst = single_class_instance(oracle, 2, profit=1)
        with pytest.raises(OracleViolation):
            is_independent(inst, {1, 2})

    def test_one_oracle_call_per_call_repeated_sets_included(self):
        inst = uniform_class(3, 2)
        before = inst.oracle.call_count
        for _ in range(5):
            is_independent(inst, {1, 2})
            is_independent(inst, {1, 3})
        assert inst.oracle.call_count - before == 10


class TestFindCycle:
    def test_two_item_cycle(self):
        inst = uniform_class(2, 1)
        assert find_cycle(inst, {1, 2}) == frozenset({1, 2})

    def test_keeps_smallest_ids(self):
        # of {1,2,3} under a cap-1 matroid, 3 is discarded first
        inst = uniform_class(3, 1)
        assert find_cycle(inst, {1, 2, 3}) == frozenset({1, 2})

    def test_independent_input_rejected(self):
        inst = uniform_class(3, 3)
        with pytest.raises(NotDependent):
            find_cycle(inst, {1, 2})

    def test_cycle_definition_and_profit_equality(self):
        rng = random.Random(17)
        found = 0
        while found < 40:
            size = rng.randint(2, 6)
            inst, _ = random_class_instance(rng, size)
            if not inst.item_ids:
                continue
            s = frozenset(
                i for i in inst.item_ids if rng.random() < 0.7
            )
            if not s or is_independent(inst, s):
                continue
            cycle = find_cycle(inst, s)
            found += 1
            assert cycle and cycle <= s
            assert not is_independent(inst, cycle)
            g_cycle = inst.oracle.evaluate(cycle)
            for i in cycle:
                assert is_independent(inst, cycle - {i})
                # dropping any element of a cycle does not change gamma
                assert inst.oracle.evaluate(cycle - {i}) == g_cycle

    def test_cycles_in_mixed_sets_are_single_profit(self):
        rng = random.Random(19)
        found = 0
        while found < 25:
            inst = make_uniform_classes_instance(rng.randint(3, 7), 1, rng)
            reduced, _ = preprocess_singletons(inst)
            if len(reduced) < 2:
                continue
            s = frozenset(i for i in reduced.item_ids if rng.random() < 0.8)
            if not s or is_independent(reduced, s):
                continue
            cycle = find_cycle(reduced, s)
            found += 1
            profits = {reduced.profit_of(i) for i in cycle}
            assert len(profits) == 1


class TestMonotonicityAndSlices:
    def test_subsets_of_independent_sets_are_independent(self):
        rng = random.Random(23)
        for _ in range(20):
            inst, _ = random_class_instance(rng, rng.randint(1, 6))
            for s in subsets(inst.item_ids):
                if is_independent(inst, s):
                    assert all(is_independent(inst, s - {i}) for i in s)

    def test_independence_decomposes_across_classes(self):
        rng = random.Random(29)
        for _ in range(20):
            fam = rng.choice(list(CLASS_FAMILIES))
            inst = CLASS_FAMILIES[fam](rng.randint(2, 8), 1, rng)
            reduced, _ = preprocess_singletons(inst)
            part = profit_partition(reduced)
            for s in subsets(reduced.item_ids):
                whole = is_independent(reduced, s)
                slices = all(is_independent(reduced, s & members) for _, members in part)
                assert whole == slices


class TestMinWeightBasis:
    def test_cap_one_takes_lightest(self):
        inst = uniform_class(3, 1, weights=[2, 3, 4])
        assert min_weight_basis(inst, [1, 2, 3]) == (Item(1, 2, 5),)

    def test_partition_example(self):
        oracle = matroid_rank_sum_oracle(
            [(5, MatroidSpec.partition([([1, 2], 1), ([3], 1)]))]
        )
        inst = single_class_instance(oracle, 3, profit=5, weights=[3, 1, 2])
        assert min_weight_basis(inst, [1, 2, 3]) == (Item(2, 1, 5), Item(3, 2, 5))

    def test_greedy_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(60):
            size = rng.randint(1, 7)
            inst, members = random_class_instance(rng, size)
            basis = min_weight_basis(inst, members)
            maximal = maximal_independent_subsets(inst, members)
            best = min(inst.total_weight(s) for s in maximal)
            assert frozenset(it.id for it in basis) in maximal
            assert sum(it.weight for it in basis) == best

    def test_one_oracle_call_per_class_item(self):
        rng = random.Random(37)
        inst, members = random_class_instance(rng, 6)
        before = inst.oracle.call_count
        min_weight_basis(inst, members)
        assert inst.oracle.call_count - before == len(members)


class TestMatroidExchange:
    def test_uniform_class_passes(self):
        inst = uniform_class(5, 2)
        assert check_matroid_exchange(inst, range(1, 6)) is None

    def test_builtin_families_pass_exhaustively(self):
        rng = random.Random(41)
        for kind in CLASS_FAMILIES:
            for _ in range(8):
                inst, members = random_class_instance(rng, rng.randint(1, 6), kind)
                assert check_matroid_exchange(inst, members) is None

    def test_equal_cardinality_of_maximal_sets(self):
        rng = random.Random(43)
        for _ in range(25):
            inst, members = random_class_instance(rng, rng.randint(1, 6))
            for a in subsets(members):
                sizes = {len(s) for s in maximal_independent_subsets(inst, a)}
                assert len(sizes) == 1

    def test_non_aon_oracle_breaks_exchange(self):
        inst = single_class_instance(exchange_breaking_oracle(), 3, profit=1)
        witness = check_matroid_exchange(inst, [1, 2, 3])
        assert witness is not None
        s, s2, a = witness
        assert len(s) < len(s2) and a == s | s2
        assert not any(is_independent(inst, s | {j}) for j in s2 - s)

    def test_exhaustive_verdict_is_the_matroid_definition(self):
        # A downward-closed family over unit-profit items, priced by the
        # largest member inside S: S is independent exactly when it is in
        # the family, which is a matroid exactly when every A's maximal
        # independent subsets have one size.
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 6)
            ground = range(1, n + 1)
            tops = [
                frozenset(i for i in ground if rng.random() < 0.6)
                for _ in range(rng.randint(1, 4))
            ]
            oracle = AggregationOracle(
                lambda s, tops=tops: max(len(s & top) for top in tops),
                {"kind": "downward-closed"},
            )
            inst = single_class_instance(oracle, n, profit=1)
            before = oracle.call_count
            witness = check_matroid_exchange(inst, ground)
            assert oracle.call_count - before == 1 << n
            one_size = all(
                len({len(s) for s in maximal_independent_subsets(inst, a)}) == 1
                for a in subsets(ground)
            )
            assert (witness is None) == one_size, tops
            verdicts[one_size] += 1
            if witness is not None:
                s, s2, a = witness
                assert len(s) < len(s2) and a == s | s2
                assert is_independent(inst, s) and is_independent(inst, s2)
                assert not any(is_independent(inst, s | {j}) for j in s2 - s)
        assert min(verdicts.values()) >= 60, verdicts

    def test_sampled_matroid_class_passes(self):
        inst = uniform_class(10, 4)
        assert 10 > EXCHANGE_EXHAUSTIVE_LIMIT
        assert check_matroid_exchange(inst, range(1, 11)) is None

    def test_sampled_non_matroid_class_breaks_exchange(self):
        # Independent: at most one item, or any subset of {1..5}.  Then {j}
        # for j > 5 cannot grow from {1, 2}, though that pair is larger.
        low = frozenset(range(1, 6))
        oracle = AggregationOracle(
            lambda s: max(len(s & low), min(len(s), 1)), {"kind": "adversarial-exchange"}
        )
        inst = single_class_instance(oracle, 10, profit=1)
        witness = check_matroid_exchange(inst, range(1, 11))
        assert witness is not None
        s, s2, a = witness
        assert len(s) < len(s2) and a == s | s2
        assert is_independent(inst, s) and is_independent(inst, s2)
        assert not any(is_independent(inst, s | {j}) for j in s2 - s)


class TestRestrictChainToBasis:
    def test_fixed_point(self):
        inst = uniform_class(3, 2, weights=[1, 2, 5])
        basis = min_weight_basis(inst, [1, 2, 3])
        chain = Chain.from_sets([{1}, {1, 2}])
        assert restrict_chain_to_basis(inst, [1, 2, 3], basis, chain) == chain

    def test_reroutes_through_lightest_items(self):
        inst = uniform_class(3, 2, weights=[1, 2, 5])
        basis = min_weight_basis(inst, [1, 2, 3])
        assert [it.id for it in basis] == [1, 2]
        chain = Chain.from_sets([{3}, {2, 3}])
        restricted = restrict_chain_to_basis(inst, [1, 2, 3], basis, chain)
        assert restricted.sets() == [frozenset({1}), frozenset({1, 2})]

    def test_chain_outside_the_class_rejected(self):
        inst = uniform_class(3, 2)
        basis = min_weight_basis(inst, [1, 2])
        with pytest.raises(ValueError, match="chain leaves the profit class"):
            restrict_chain_to_basis(inst, [1, 2], basis, Chain.from_sets([{3}]))

    def test_dependent_chain_rejected(self):
        inst = uniform_class(3, 1)
        basis = min_weight_basis(inst, [1, 2, 3])
        with pytest.raises(ChainNotIndependent):
            restrict_chain_to_basis(inst, [1, 2, 3], basis, Chain.from_sets([{1, 2}]))

    def test_postconditions_on_random_chains(self):
        rng = random.Random(47)
        for _ in range(60):
            inst, members = random_class_instance(rng, rng.randint(1, 6))
            basis = min_weight_basis(inst, members)
            horizon = rng.randint(1, 3)
            chain = random_independent_chain(inst, members, horizon, rng)
            restricted = restrict_chain_to_basis(inst, members, basis, chain)
            for old, new in zip(chain.sets(), restricted.sets()):
                assert inst.oracle.evaluate(new) == inst.oracle.evaluate(old)
                assert inst.total_weight(new) <= inst.total_weight(old)
            assert restricted.final_set <= {it.id for it in basis}


class TestGreedyMatroidChain:
    def test_matches_brute_force_optimum(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = make_matroid_rank_instance(rng.randint(1, 7), rng.randint(1, 3), rng)
            chain = greedy_matroid_chain(inst)
            value, _ = brute_force_chains(inst)
            assert profit_phi(inst, chain) == value
