"""Modular-instance solvers: exact branch-and-bound, heuristic, brute force."""

import random
import tracemalloc
from fractions import Fraction

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
    modularize,
    preprocess_singletons,
    profit_phi_bar,
    solve_exact,
    solve_heuristic,
    suffix_coefficients,
)
from iknap.generators import FAMILIES, make_family_instance


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


def dominance_edge_ik(rng, case):
    """Small instance whose (w, p) pairs repeat, with one edge case forced in.

    Each case is one a wrong dominance rule would lose an optimum on: equal
    items that could block each other, weight-0 items, zero deltas (all
    zero orders items by id, not by profit) and items heavier than W_T.
    """
    n = rng.randint(2, 7)
    horizon = rng.randint(1, 3 if n > 5 else 4)
    pool = [(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
    pairs = [rng.choice(pool) if rng.random() < 0.7 else (rng.randint(0, 6), rng.randint(1, 6))
             for _ in range(n)]
    top = rng.randint(1, max(sum(w for w, _ in pairs), 1))
    caps = sorted(rng.randint(0, top) for _ in range(horizon - 1)) + [top]
    deltas = [rng.randint(1, 3) for _ in range(horizon)]
    if case == "weightless":
        for k in rng.sample(range(n), rng.randint(1, n)):
            pairs[k] = (0, pairs[k][1])
    elif case == "some_zero_deltas":
        for t in rng.sample(range(horizon), rng.randint(1, horizon)):
            deltas[t] = 0
    elif case == "all_zero_deltas":
        deltas = [0] * horizon
    elif case == "too_heavy":
        k = rng.randrange(n)
        pairs[k] = (top + rng.randint(1, 3), pairs[k][1])
    items = [Item(i + 1, w, p) for i, (w, p) in enumerate(pairs)]
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

    @pytest.mark.parametrize(
        "case", ["duplicates", "weightless", "some_zero_deltas", "all_zero_deltas", "too_heavy"]
    )
    def test_dominance_keeps_the_optimum(self, case):
        rng = random.Random(f"dominance-{case}")
        for _ in range(150):
            inst = dominance_edge_ik(rng, case)
            result = solve_exact(inst)
            assert result.value == brute_force_chains(inst)[0], inst
            assert is_feasible_ik(inst, result.chain)
            assert profit_phi_bar(inst.profits_by_id, inst.deltas, result.chain) == result.value


def subset_dp_optimum(inst: Instance) -> int:
    """Best chain value of a modular instance by a DP over item subsets.

    f_t(S) = delta_t * p(S) + the best f_{t+1} over supersets of S, with
    f_t = -1 on the sets that do not fit W_t and f_{T+1} = 0; the optimum
    is the best f_1 over all sets, that is over the supersets of the empty
    set.  Shares nothing with the branch-and-bound but the instance.
    """
    items = list(inst.items)
    size = 1 << len(items)
    weight, profit = [0] * size, [0] * size
    for mask in range(1, size):
        low = mask & -mask
        it = items[low.bit_length() - 1]
        weight[mask] = weight[mask ^ low] + it.weight
        profit[mask] = profit[mask ^ low] + it.profit
    best_superset = [0] * size
    for cap, d in zip(reversed(inst.capacities), reversed(inst.deltas)):
        f = [d * p + after if w <= cap else -1
             for p, w, after in zip(profit, weight, best_superset)]
        for b in range(len(items)):  # f[S] = max(f[S], f[S + b]) for every S without b
            half = 1 << b
            for lo in range(0, size, 2 * half):
                f[lo:lo + half] = map(max, f[lo:lo + half], f[lo + half:lo + 2 * half])
        best_superset = f
    return best_superset[0]


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


def reference_greedy(inst: Instance) -> Chain:
    """Density greedy written independently: Fraction keys, weight-0 items first."""
    d1 = suffix_coefficients(inst.deltas)[0]
    order = sorted(
        inst.items,
        key=lambda it: (it.weight > 0, -Fraction(it.profit * d1, it.weight or 1), it.id),
    )
    resid = list(inst.capacities)
    times = {}
    for it in order:
        for t in range(inst.horizon):
            if all(r >= it.weight for r in resid[t:]):
                for s in range(t, inst.horizon):
                    resid[s] -= it.weight
                times[it.id] = t + 1
                break
    return Chain(inst.horizon, times)


class TestSolveExactBeyondBruteForce:
    def test_subset_dp_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            inst = random_ik(rng, n_max=7)
            assert subset_dp_optimum(inst) == brute_force_chains(inst)[0]

    def test_matches_subset_dp_on_modularized_families(self):
        # 10-13 kept items and T 3-5 are past brute force's reach; every other
        # case also gets a weight-0 item, an item heavier than W_T and a zero delta.
        rng = random.Random(11)
        seen = {"weightless": 0, "too_heavy": 0, "zero_delta": 0}
        for k in range(24):
            family = sorted(FAMILIES)[k % 4]
            reduced = None
            while reduced is None or not 10 <= len(reduced) <= 13:
                inst = FAMILIES[family](rng.randint(10, 30), 3 + k % 3, rng)
                reduced = modularize(preprocess_singletons(inst)[0]).ik
            items, caps, deltas = list(reduced.items), reduced.capacities, list(reduced.deltas)
            if k % 2:
                a, b = rng.sample(range(len(items)), 2)
                items[a] = Item(items[a].id, 0, items[a].profit)
                items[b] = Item(items[b].id, caps[-1] + rng.randint(1, 9), items[b].profit)
                deltas[rng.randrange(len(deltas))] = 0
            inst = modular(items, len(caps), caps, deltas)
            seen["weightless"] += any(it.weight == 0 for it in items)
            seen["too_heavy"] += any(it.weight > caps[-1] for it in items)
            seen["zero_delta"] += 0 in deltas
            result = solve_exact(inst)
            assert result.value == subset_dp_optimum(inst)
            assert is_feasible_ik(inst, result.chain)
            assert profit_phi_bar(inst.profits_by_id, deltas, result.chain) == result.value
        assert min(seen.values()) >= 8, seen

    def test_heavy_tail_instance_stays_small(self):
        # Modular n=18, T=6, seed 108 took 3.2 M nodes before the dominance
        # rule and 32,067 after it; nodes are deterministic, so this pins
        # the search size, not a time.  467 is the subset-DP optimum.
        inst = make_family_instance("modular", 18, 6, random.Random(108))
        reduced = modularize(preprocess_singletons(inst)[0]).ik
        assert len(reduced.items) == 18
        result = solve_exact(reduced)
        assert result.value == 467
        assert result.nodes <= 40_000


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

    def test_zero_budget_is_the_exact_density_greedy(self):
        # Small weights and profits make equal densities common; every third
        # instance has all-zero deltas, where only weight and id order items.
        rng = random.Random(211)
        for k in range(300):
            inst = random_ik(rng, n_max=25, t_max=4)
            if k % 3 == 0:
                inst = modular(inst.items, inst.horizon, inst.capacities, (0,) * inst.horizon)
            result = solve_heuristic(inst, seed=k, limits=SolveLimits(local_search_budget=0))
            assert result.chain == reference_greedy(inst)
            assert result.nodes == 0
            assert result.value == profit_phi_bar(inst.profits_by_id, inst.deltas, result.chain)

    def test_local_search_never_worse_than_greedy(self):
        rng = random.Random(223)
        greedy_only = SolveLimits(local_search_budget=0)
        for k in range(200):
            inst = random_ik(rng, n_max=30, t_max=4)
            searched = solve_heuristic(inst, seed=k)
            assert searched.value >= solve_heuristic(inst, seed=k, limits=greedy_only).value
            assert searched.nodes <= SolveLimits().local_search_budget

    def test_large_instance_memory_stays_linear(self):
        # A round must not materialize its O(n^2) move space: at n=3000 a
        # list of all shift/insert/swap moves takes over 100 MB.
        rng = random.Random(227)
        items = [Item(i + 1, rng.randint(1, 60), rng.randint(1, 60)) for i in range(3000)]
        total = sum(it.weight for it in items)
        inst = modular(items, 4, [total // 8, total // 5, total // 3, total // 2], [1, 2, 1, 3])
        tracemalloc.start()
        try:
            result = solve_heuristic(inst, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.nodes <= SolveLimits().local_search_budget
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

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


class TestSolveLimits:
    def test_ints_and_integer_strings_are_accepted(self):
        limits = SolveLimits.from_mapping({"max_n_exact": "12", "local_search_budget": 0})
        assert (limits.max_n_exact, limits.local_search_budget) == (12, 0)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2.5"], ids=repr)
    def test_floats_and_booleans_are_rejected(self, value):
        with pytest.raises(ValueError):
            SolveLimits.from_mapping({"max_n_exact": value})
