"""Modular-instance solvers: exact branch-and-bound, heuristic, brute force."""

import random

import pytest

from iknap import (
    BudgetExceeded,
    Chain,
    Instance,
    Item,
    LimitsExceeded,
    MatroidSpec,
    SolveLimits,
    brute_force_chains,
    iter_feasible_chains,
    matroid_rank_sum_oracle,
    modular_oracle,
    profit_phi_bar,
    solve_exact,
    solve_heuristic,
    suffix_coefficients,
)


def modular(items, horizon, caps, deltas):
    oracle = modular_oracle({it.id: it.profit for it in items})
    return Instance(items, horizon, caps, deltas, oracle)


def ik(pw_pairs, caps, deltas):
    items = [Item(i + 1, w, p) for i, (p, w) in enumerate(pw_pairs)]
    return modular(items, len(caps), caps, deltas)


def random_ik(rng, n_max=10, t_max=3):
    n = rng.randint(0, n_max)
    horizon = rng.randint(1, t_max)
    items = [
        Item(i + 1, rng.randint(0, 9), rng.randint(1, 9)) for i in range(n)
    ]
    total = sum(it.weight for it in items)
    top = rng.randint(0, max(total, 1))
    caps = sorted(rng.randint(0, top) for _ in range(horizon - 1)) + [top]
    deltas = [rng.randint(0, 3) for _ in range(horizon)]
    return modular(items, horizon, caps, deltas)


class TestSuffixCoefficients:
    def test_simple(self):
        assert suffix_coefficients((1, 2)) == (3, 2, 0)

    def test_non_increasing_and_zero_tail(self):
        rng = random.Random(2)
        for _ in range(50):
            deltas = [rng.randint(0, 5) for _ in range(rng.randint(1, 6))]
            d = suffix_coefficients(deltas)
            assert d[-1] == 0
            assert all(d[i] >= d[i + 1] for i in range(len(d) - 1))
            assert all(d[i] == sum(deltas[i:]) for i in range(len(deltas)))


class TestSolveExact:
    def test_single_period_knapsack(self):
        # items (p,w): (6,3),(5,2),(4,2), W=4 -> best is {2,3} worth 9
        inst = ik([(6, 3), (5, 2), (4, 2)], [4], [1])
        result = solve_exact(inst)
        assert result.value == 9
        assert result.chain.final_set == {2, 3}
        value, _ = brute_force_chains(inst)
        assert value == 9

    def test_no_items(self):
        result = solve_exact(ik([], [5, 6], [1, 1]))
        assert result.value == 0
        assert result.chain == Chain.empty(2)

    def test_two_period_insertion_order(self):
        # both items fit only one at a time early; value 10*2 + 9*1 = 29
        inst = ik([(10, 2), (9, 2)], [2, 4], [1, 1])
        result = solve_exact(inst)
        assert result.value == 29
        assert result.chain.times == {1: 1, 2: 2}
        value, _ = brute_force_chains(inst)
        assert value == 29

    def test_all_zero_deltas_returns_empty_chain(self):
        result = solve_exact(ik([(5, 1)], [3], [0]))
        assert result.value == 0
        assert result.chain == Chain.empty(1)

    def test_limits(self):
        items = [(1, 1)] * 19
        with pytest.raises(LimitsExceeded):
            solve_exact(ik(items, [5], [1]))
        with pytest.raises(LimitsExceeded):
            solve_exact(ik([(1, 1)], [5] * 7, [1] * 7))
        assert solve_exact(ik(items, [5], [1]), SolveLimits(max_n_exact=19)).value == 5

    def test_matches_brute_force_on_random_suite(self):
        rng = random.Random(97)
        for _ in range(500):
            inst = random_ik(rng)
            result = solve_exact(inst)
            value, _ = brute_force_chains(inst)
            assert result.value == value
            assert is_feasible_ik(inst, result.chain)
            assert profit_phi_bar(inst.profits_by_id, inst.deltas, result.chain) == result.value


def is_feasible_ik(inst: Instance, chain: Chain) -> bool:
    """Feasibility recheck by direct summation, independent of solver code."""
    for t in range(1, inst.horizon + 1):
        total = sum(
            it.weight
            for it in inst.items
            if chain.insertion_time(it.id) is not None
            and chain.insertion_time(it.id) <= t
        )
        if total > inst.capacities[t - 1]:
            return False
    return True


class TestSolveHeuristic:
    def test_exact_on_easy_instance(self):
        inst = ik([(6, 2), (5, 2), (4, 2)], [4], [1])
        assert solve_heuristic(inst).value == solve_exact(inst).value

    def test_empty_instance(self):
        assert solve_heuristic(ik([], [3], [1])).value == 0

    def test_never_exceeds_exact_and_always_feasible(self):
        rng = random.Random(101)
        ratios = []
        for _ in range(150):
            inst = random_ik(rng, n_max=14)
            heur = solve_heuristic(inst, seed=rng.randint(0, 99))
            exact = solve_exact(inst)
            assert is_feasible_ik(inst, heur.chain)
            assert heur.value <= exact.value
            assert (
                profit_phi_bar(inst.profits_by_id, inst.deltas, heur.chain)
                == heur.value
            )
            if exact.value:
                ratios.append(heur.value / exact.value)
        assert ratios
        print(
            f"\nheuristic/exact ratio over {len(ratios)} instances: "
            f"min={min(ratios):.3f} mean={sum(ratios) / len(ratios):.3f}"
        )

    def test_deterministic_per_seed(self):
        rng = random.Random(103)
        inst = random_ik(rng, n_max=12)
        a = solve_heuristic(inst, seed=5)
        b = solve_heuristic(inst, seed=5)
        assert a.chain == b.chain and a.value == b.value


class TestBruteForce:
    def test_no_items(self):
        value, chain = brute_force_chains(ik([], [3], [1]))
        assert value == 0 and chain == Chain.empty(1)

    def test_hand_expanded_knapsack(self):
        value, chain = brute_force_chains(ik([(6, 3), (5, 2), (4, 2)], [4], [1]))
        assert value == 9
        assert chain.final_set == {2, 3}

    def test_aggregation_caps_duplicate_profits(self):
        # two p=5 items behind a cap-1 matroid: the pair is worth 5, not 10
        oracle = matroid_rank_sum_oracle([(5, MatroidSpec.uniform([1, 2], 1))])
        inst = Instance([Item(1, 1, 5), Item(2, 1, 5)], 1, (2,), (1,), oracle)
        value, _ = brute_force_chains(inst)
        assert value == 5

    def test_budget_precheck(self):
        inst = ik([(1, 1)] * 10, [5], [1])
        with pytest.raises(BudgetExceeded):
            brute_force_chains(inst, max_states=512)

    def test_lexicographically_smallest_optimum(self):
        # identical items, room for one: the smaller id wins the tie
        value, chain = brute_force_chains(ik([(5, 1), (5, 1)], [1], [1]))
        assert value == 5
        assert chain.times == {1: 1}

    def test_phi_bar_rewrite_matches_per_period_sum(self):
        rng = random.Random(107)
        for _ in range(30):
            inst = random_ik(rng, n_max=5, t_max=3)
            for chain in iter_feasible_chains(inst):
                direct = sum(
                    inst.deltas[t - 1]
                    * sum(inst._by_id[i].profit for i in chain.set_at(t))
                    for t in range(1, inst.horizon + 1)
                )
                assert (
                    profit_phi_bar(inst.profits_by_id, inst.deltas, chain) == direct
                )

    def test_delaying_insertion_never_helps(self):
        rng = random.Random(109)
        for _ in range(60):
            inst = random_ik(rng, n_max=7)
            times = {
                it.id: rng.randint(1, inst.horizon)
                for it in inst.items
                if rng.random() < 0.5
            }
            chain = Chain(inst.horizon, times)
            base = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
            for i, t in times.items():
                delayed = dict(times)
                if t == inst.horizon:
                    del delayed[i]
                else:
                    delayed[i] = t + 1
                worse = profit_phi_bar(
                    inst.profits_by_id, inst.deltas, Chain(inst.horizon, delayed)
                )
                assert worse <= base


class TestIterFeasibleChains:
    def test_enumerates_exactly_the_feasible_vectors(self):
        inst = ik([(3, 2), (2, 1)], [2, 3], [1, 1])
        chains = list(iter_feasible_chains(inst))
        assert len(set(chains)) == len(chains)
        # independent recount: all 9 vectors, filtered by direct weight check
        from itertools import product

        expected = 0
        for t1, t2 in product(range(3), repeat=2):
            times = {}
            if t1 < 2:
                times[1] = t1 + 1
            if t2 < 2:
                times[2] = t2 + 1
            chain = Chain(2, times)
            if is_feasible_ik(inst, chain):
                expected += 1
                assert chain in chains
        assert len(chains) == expected
