"""Modular-instance solvers: exact branch-and-bound, heuristic, brute force."""

import hashlib
import inspect
import random
import sys
import tracemalloc
from bisect import bisect_right
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
from iknap import solvers
from iknap.generators import FAMILIES, make_family_instance
from iknap.solvers import knapsack_steps, some_move_gains


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


# Runs a test with the step lists exact and with them merged to 3 steps, so
# the merge runs on nearly every list.  At 2 steps, a merge that wrongly
# kept the heavier weight of each two neighbours still passed these tests.
exact_and_merged_steps = pytest.mark.parametrize(
    "steps", [solvers.STEPS, 3], ids=["exact_steps", "merged_steps"]
)


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

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # Unit items that all fit: the first path inserts each, so the search
        # is m deep, far past a recursion limit only 50 frames above the
        # caller's.
        unlimited = SolveLimits(max_n_exact=10**6)
        depth = len(inspect.stack(0))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            values = [
                solve_exact(ik([(1, 1)] * m, [m], [1]), unlimited).value
                for m in range(100, 601, 100)
            ]
        finally:
            sys.setrecursionlimit(old)
        assert values == list(range(100, 601, 100))

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
    @exact_and_merged_steps
    def test_dominance_keeps_the_optimum(self, case, steps, monkeypatch):
        monkeypatch.setattr(solvers, "STEPS", steps)
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


def pinned_exact_instance(family, n, horizon, edge):
    """A modularized family instance; edge gives it weight-0 items and a zero delta."""
    rng = random.Random(f"exact/{family}/{n}/{horizon}/{edge}")
    inst = make_family_instance(family, n, horizon, rng)
    reduced = modularize(preprocess_singletons(inst)[0]).ik
    items, deltas = list(reduced.items), list(reduced.deltas)
    if edge:
        for k in rng.sample(range(len(items)), min(2, len(items))):
            items[k] = Item(items[k].id, 0, items[k].profit)
        deltas[rng.randrange(horizon)] = 0
    return modular(items, horizon, reduced.capacities, deltas)


PINNED_EXACT = [
    # family, n, T, edge, and (value, chain digest) from solve_exact
    ("graphic-classes", 8, 2, False, (64, "c43ed5bbf987")),
    ("graphic-classes", 8, 2, True, (90, "89333a049289")),
    ("graphic-classes", 12, 4, False, (221, "2139a6c4e676")),
    ("graphic-classes", 12, 4, True, (176, "015fa72108d9")),
    ("graphic-classes", 15, 5, False, (312, "32212ea0d2af")),
    ("graphic-classes", 15, 5, True, (128, "8170a788e5fa")),
    ("graphic-classes", 18, 6, False, (390, "39d0f00ac615")),
    ("graphic-classes", 18, 6, True, (438, "6f262bcd7b55")),
    ("modular", 8, 2, False, (90, "25e164d78747")),
    ("modular", 8, 2, True, (0, "f65e9c5d16ff")),
    ("modular", 12, 4, False, (356, "64e027b4abc9")),
    ("modular", 12, 4, True, (102, "a0c849d8405a")),
    ("modular", 15, 5, False, (490, "71e21dd3740f")),
    ("modular", 15, 5, True, (447, "6c38b6acc1b5")),
    ("modular", 18, 6, False, (582, "5acf051545e7")),
    ("modular", 18, 6, True, (434, "dd49b58a9187")),
    ("partition-classes", 8, 2, False, (4, "72a166c8584a")),
    ("partition-classes", 8, 2, True, (24, "12010c4e9933")),
    ("partition-classes", 12, 4, False, (104, "4d41dbe0fd5c")),
    ("partition-classes", 12, 4, True, (266, "40fe39427a0f")),
    ("partition-classes", 15, 5, False, (156, "e2d247091184")),
    ("partition-classes", 15, 5, True, (770, "f6838b07a547")),
    ("partition-classes", 18, 6, False, (480, "44cc9d613350")),
    ("partition-classes", 18, 6, True, (322, "e8adb046f26b")),
    ("uniform-classes", 8, 2, False, (108, "a1ab7cc4f96a")),
    ("uniform-classes", 8, 2, True, (9, "e08c610eeb5f")),
    ("uniform-classes", 12, 4, False, (309, "b98750176b70")),
    ("uniform-classes", 12, 4, True, (152, "c63626c4e167")),
    ("uniform-classes", 15, 5, False, (7, "a2e9c2fd7372")),
    ("uniform-classes", 15, 5, True, (498, "e69abd14b852")),
    ("uniform-classes", 18, 6, False, (270, "2c9497b8353b")),
    ("uniform-classes", 18, 6, True, (835, "8051968db8d8")),
]


def partition_n30():
    # 22 kept items; 6.3 M nodes with the fractional knapsack floors, 1,266
    # with the 0/1 knapsack steps.
    inst = make_family_instance("partition-classes", 30, 8, random.Random(2))
    reduced = modularize(preprocess_singletons(inst)[0]).ik
    return reduced, SolveLimits(max_n_exact=30, max_t_exact=8), 1470, 3_000


def strongly_correlated():
    # Profits 0-10 above large weights: the fractional floors sit far above
    # the 0/1 optimum, 6.8 M nodes against 15,450 with the knapsack steps.
    rng = random.Random(18)
    ws = [rng.randint(10**5, 10**6) for _ in range(18)]
    pairs = [(w + rng.randint(0, 10), w) for w in ws]
    total = sum(ws)
    return ik(pairs, [total // 4, total // 3, total // 2], [1, 1, 1]), None, 9_469_578, 40_000


def powers_of_two():
    # Every subset sum differs and every subset is as dense as the next, so
    # every subset within the capacity is a step: over 10^5 of them, merged
    # down to at most STEPS at the default limits.  104 nodes.
    pairs = [(2**i, 2**i) for i in range(18)]
    total = 2**18 - 1
    return ik(pairs, [total // 3, total // 2, 2 * total // 3], [1, 1, 1]), None, 349_523, 250


KNAPSACK_BOUND_CASES = {
    "partition_n30": partition_n30,
    "strongly_correlated": strongly_correlated,
    "powers_of_two": powers_of_two,
}


def subset_knapsack(ws, ps, cap):
    """best[r]: the largest profit of a subset weighing at most r, by enumeration."""
    best = [0] * (cap + 1)
    for mask in range(1 << len(ws)):
        chosen = [b for b in range(len(ws)) if mask >> b & 1]
        w = sum(ws[b] for b in chosen)
        p = sum(ps[b] for b in chosen)
        for r in range(w, cap + 1):
            best[r] = max(best[r], p)
    return best


class TestKnapsackSteps:
    @pytest.mark.parametrize("steps", [solvers.STEPS, 2, 1])
    def test_steps_bound_every_suffix_and_are_exact_below_the_cap(self, steps, monkeypatch):
        capped = steps < solvers.STEPS  # lists of up to 2^8 pairs fit the default
        monkeypatch.setattr(solvers, "STEPS", steps)
        rng = random.Random(f"steps-{steps}")
        seen = {"weightless": 0, "too_heavy": 0, "repeated": 0, "profit_above_cap": 0}
        raised = 0
        for _ in range(200):
            cap = rng.randint(0, 25)
            pool = [(rng.randint(0, 30), rng.randint(1, 60)) for _ in range(2)]
            pairs = [rng.choice(pool) if rng.random() < 0.3 else
                     (rng.choice([0, rng.randint(0, 30)]), rng.randint(1, 60))
                     for _ in range(rng.randint(0, 8))]
            ws, ps = [w for w, _ in pairs], [p for _, p in pairs]
            seen["weightless"] += 0 in ws
            seen["too_heavy"] += any(w > cap for w in ws)
            seen["repeated"] += len(set(pairs)) < len(pairs)
            seen["profit_above_cap"] += any(p > cap for p in ps)
            rows = knapsack_steps(ws, ps, cap)
            assert len(rows) == len(ws) + 1
            for k, (sw, sp) in enumerate(rows):
                assert len(sw) == len(sp) <= steps and sw[0] == 0
                assert all(a < b for a, b in zip(sw, sw[1:]))
                assert all(a < b for a, b in zip(sp, sp[1:]))
                exact = subset_knapsack(ws[k:], ps[k:], cap)
                got = [sp[bisect_right(sw, r) - 1] for r in range(cap + 1)]
                assert all(g >= e for g, e in zip(got, exact)), (ws, ps, cap, k)
                raised += got != exact
        assert min(seen.values()) >= 20, seen
        assert (raised > 0) == capped  # the merge ran exactly when capped


class TestSolveExactBeyondBruteForce:
    def test_subset_dp_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            inst = random_ik(rng, n_max=7)
            assert subset_dp_optimum(inst) == brute_force_chains(inst)[0]

    @exact_and_merged_steps
    def test_matches_subset_dp_on_modularized_families(self, steps, monkeypatch):
        monkeypatch.setattr(solvers, "STEPS", steps)
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
        # rule, 32,067 after it, 15,227 with the fractional knapsack floors
        # at the suffix-minimum residual and 87 with the 0/1 knapsack steps;
        # nodes are deterministic, so this pins the search size, not a time.
        # 467 is the subset-DP optimum.
        inst = make_family_instance("modular", 18, 6, random.Random(108))
        reduced = modularize(preprocess_singletons(inst)[0]).ik
        assert len(reduced.items) == 18
        result = solve_exact(reduced)
        assert result.value == 467
        assert result.nodes <= 200

    def test_raised_limits_instance_stays_small(self):
        # Modular n=26, T=8, seed 1 took 263,954 nodes while the per-period
        # knapsacks filled each period to its own residual, 15,357 with them
        # filled to the least residual from that period on, and 8,130 with
        # the 0/1 knapsack steps at that residual.
        inst = make_family_instance("modular", 26, 8, random.Random(1))
        reduced = modularize(preprocess_singletons(inst)[0]).ik
        result = solve_exact(reduced, SolveLimits(max_n_exact=26, max_t_exact=8))
        assert result.value == 920
        assert result.nodes <= 20_000

    @pytest.mark.parametrize("case", sorted(KNAPSACK_BOUND_CASES))
    def test_knapsack_bound_instance_stays_small(self, case):
        # Each ceiling is about 2.5x the nodes the 0/1 knapsack steps take.
        inst, limits, value, ceiling = KNAPSACK_BOUND_CASES[case]()
        result = solve_exact(inst, limits)
        assert result.value == value
        assert result.nodes <= ceiling

    @pytest.mark.parametrize("family, n, horizon, edge, expected", PINNED_EXACT)
    def test_output_is_pinned(self, family, n, horizon, edge, expected):
        # Recorded with a second, earliest-period bound in place; a valid
        # bound prunes no better leaf, so the first optimum found stays.
        result = solve_exact(pinned_exact_instance(family, n, horizon, edge))
        assert (result.value, chain_digest(result.chain)) == expected


SEARCH_STATE_CASES = [
    "mixed", "weight_0_items", "all_zero_deltas", "one_period",
    "nothing_inserted", "everything_inserted", "duplicate_pairs",
]


def random_search_state(rng, case):
    """A feasible local-search state: (items, time_of, outside, caps, deltas).

    Periods are 0-based.  Insertion times are drawn first and capacities
    then leave 0-3 units of slack, so tight states are common.
    """
    horizon = 1 if case == "one_period" else rng.randint(2, 4)
    n = rng.randint(1, 7)
    zero_share = 0.4 if case == "weight_0_items" else 0.0
    top = 2 if case == "duplicate_pairs" else 6  # 1..2 repeats (weight, profit) pairs
    items = {
        i: Item(i, 0 if rng.random() < zero_share else rng.randint(1, top), rng.randint(1, top))
        for i in range(1, n + 1)
    }
    time_of = {}
    for i in items:
        if case == "everything_inserted" or (case != "nothing_inserted" and rng.random() < 0.6):
            time_of[i] = rng.randrange(horizon)
    caps, cap = [], 0
    for t in range(horizon):
        load = sum(items[i].weight for i, s in time_of.items() if s <= t)
        cap = max(cap, load + rng.choice([0, 0, 1, 2, 3]))
        caps.append(cap)
    deltas = [0] * horizon if case == "all_zero_deltas" else [rng.randint(0, 2) for _ in caps]
    outside = sorted(items.keys() - time_of.keys())
    return items, time_of, outside, caps, deltas


def brute_force_move_gains(items, time_of, outside, caps, deltas):
    """Whether some move gains, by building every moved state in full.

    A shift puts an inserted item at any other period, an insert puts an
    outside item at any period, a swap replaces an inserted item by an
    outside one at any period.  A move gains when the new state is
    feasible and worth strictly more.
    """
    horizon = len(caps)

    def value(times):
        return sum(items[i].profit * sum(deltas[s:]) for i, s in times.items())

    def feasible(times):
        return all(
            sum(items[i].weight for i, s in times.items() if s <= t) <= caps[t]
            for t in range(horizon)
        )

    moved = []
    for t in range(horizon):
        for a in time_of:
            moved.append({**time_of, a: t})
        for b in outside:
            moved.append({**time_of, b: t})
            for a in time_of:
                swapped = {**time_of, b: t}
                del swapped[a]
                moved.append(swapped)
    base = value(time_of)
    return any(feasible(times) and value(times) > base for times in moved)


PINNED_OUTPUTS = [
    # family, n, T, and (value, nodes, chain digest) at budgets 0, 50 and 2000
    ("graphic-classes", 7, 1,
     ((90, 0, "e81deaa8e648"), (90, 12, "e81deaa8e648"), (90, 12, "e81deaa8e648"))),
    ("graphic-classes", 7, 3,
     ((222, 0, "b59a0ba3f9bf"), (222, 23, "b59a0ba3f9bf"), (222, 23, "b59a0ba3f9bf"))),
    ("graphic-classes", 7, 6,
     ((198, 0, "fc93bcdc095c"), (198, 37, "fc93bcdc095c"), (198, 37, "fc93bcdc095c"))),
    ("graphic-classes", 60, 1,
     ((398, 0, "a3efdd3e4215"), (398, 50, "a3efdd3e4215"), (398, 874, "a3efdd3e4215"))),
    ("graphic-classes", 60, 3,
     ((1340, 0, "ad1ac57e4853"), (1344, 50, "932ade4de520"), (1344, 869, "932ade4de520"))),
    ("graphic-classes", 60, 6,
     ((1550, 0, "23a30c207f1a"), (1550, 50, "23a30c207f1a"), (1550, 984, "23a30c207f1a"))),
    ("graphic-classes", 400, 1,
     ((3480, 0, "aa9e43e98e66"), (3480, 50, "aa9e43e98e66"), (3480, 2000, "aa9e43e98e66"))),
    ("graphic-classes", 400, 3,
     ((7776, 0, "733dfeed0745"), (7776, 50, "733dfeed0745"), (7776, 2000, "733dfeed0745"))),
    ("graphic-classes", 400, 6,
     ((8198, 0, "322b0d9beb4c"), (8204, 50, "36381ee9f9fb"), (8206, 2000, "88155588c6ac"))),
    ("modular", 7, 1,
     ((36, 0, "cbd9802cc36c"), (36, 15, "cbd9802cc36c"), (36, 15, "cbd9802cc36c"))),
    ("modular", 7, 3,
     ((118, 0, "4f19c554ec86"), (118, 22, "4f19c554ec86"), (118, 22, "4f19c554ec86"))),
    ("modular", 7, 6,
     ((101, 0, "5625f2d40fc6"), (101, 37, "5625f2d40fc6"), (101, 37, "5625f2d40fc6"))),
    ("modular", 60, 1,
     ((275, 0, "d1300eed8afb"), (275, 50, "d1300eed8afb"), (276, 974, "a097a06eaa87"))),
    ("modular", 60, 3,
     ((248, 0, "f9d40d6d30bd"), (248, 50, "f9d40d6d30bd"), (248, 880, "f9d40d6d30bd"))),
    ("modular", 60, 6,
     ((2184, 0, "40aa5752137f"), (2184, 50, "40aa5752137f"), (2186, 1629, "2a3b39e991b4"))),
    ("modular", 400, 1,
     ((3594, 0, "d3c30c73d641"), (3594, 50, "d3c30c73d641"), (3594, 2000, "d3c30c73d641"))),
    ("modular", 400, 3,
     ((7336, 0, "d9fcc4d07534"), (7336, 50, "d9fcc4d07534"), (7336, 2000, "d9fcc4d07534"))),
    ("modular", 400, 6,
     ((7961, 0, "17f8ad294373"), (7961, 50, "17f8ad294373"), (7961, 2000, "17f8ad294373"))),
    ("modular", 800, 4,  # the heuristic-large benchmark's shape
     ((12176, 0, "1f495016b8fa"), (12176, 50, "1f495016b8fa"), (12176, 2000, "1f495016b8fa"))),
    ("partition-classes", 7, 1,
     ((57, 0, "3d1db1dae960"), (57, 12, "3d1db1dae960"), (57, 12, "3d1db1dae960"))),
    ("partition-classes", 7, 3,
     ((28, 0, "f3d8cea29e21"), (28, 22, "f3d8cea29e21"), (28, 22, "f3d8cea29e21"))),
    ("partition-classes", 7, 6,
     ((52, 0, "79aba31e3e31"), (52, 37, "79aba31e3e31"), (52, 37, "79aba31e3e31"))),
    ("partition-classes", 60, 1,
     ((528, 0, "8427d1a927e4"), (528, 50, "8427d1a927e4"), (528, 588, "8427d1a927e4"))),
    ("partition-classes", 60, 3,
     ((759, 0, "108f5f1390dc"), (759, 50, "108f5f1390dc"), (759, 750, "108f5f1390dc"))),
    ("partition-classes", 60, 6,
     ((2072, 0, "c15090ff81fb"), (2072, 50, "c15090ff81fb"), (2072, 940, "c15090ff81fb"))),
    ("partition-classes", 400, 1,
     ((7200, 0, "e760416c9fae"), (7200, 50, "e760416c9fae"), (7200, 2000, "e760416c9fae"))),
    ("partition-classes", 400, 3,
     ((13945, 0, "5558e2d0e5e7"), (13945, 50, "5558e2d0e5e7"), (13945, 2000, "5558e2d0e5e7"))),
    ("partition-classes", 400, 6,
     ((8858, 0, "d59e4fb19c7a"), (8858, 50, "d59e4fb19c7a"), (8858, 2000, "d59e4fb19c7a"))),
    ("uniform-classes", 7, 1,
     ((48, 0, "486b00d57c07"), (48, 15, "486b00d57c07"), (48, 15, "486b00d57c07"))),
    ("uniform-classes", 7, 3,
     ((36, 0, "f5cf7aa16ea8"), (36, 23, "f5cf7aa16ea8"), (36, 23, "f5cf7aa16ea8"))),
    ("uniform-classes", 7, 6,
     ((245, 0, "c18bcd56ed81"), (251, 50, "2b4d792315f3"), (251, 57, "2b4d792315f3"))),
    ("uniform-classes", 60, 1,
     ((429, 0, "0d1e9a975c33"), (429, 50, "0d1e9a975c33"), (429, 858, "0d1e9a975c33"))),
    ("uniform-classes", 60, 3,
     ((2074, 0, "79d1c1209bcc"), (2074, 50, "79d1c1209bcc"), (2080, 986, "ae41c548ada8"))),
    ("uniform-classes", 60, 6,
     ((2652, 0, "96ec1770c00a"), (2652, 50, "96ec1770c00a"), (2652, 940, "96ec1770c00a"))),
    ("uniform-classes", 400, 1,
     ((0, 0, "ef2884d20f78"), (0, 50, "ef2884d20f78"), (0, 2000, "ef2884d20f78"))),
    ("uniform-classes", 400, 3,
     ((10011, 0, "02e51982835f"), (10014, 50, "0476b8395deb"), (10014, 2000, "0476b8395deb"))),
    ("uniform-classes", 400, 6,
     ((7170, 0, "c7c5deeaf0c2"), (7172, 50, "8434b693f20a"), (7172, 2000, "8434b693f20a"))),
]


def chain_digest(chain):
    """First 12 hex digits of the SHA-256 of the chain's repr (items by id)."""
    return hashlib.sha256(repr(chain).encode()).hexdigest()[:12]


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

    def test_density_key_is_exact_near_1e20(self):
        # (w, w - 1) and (w + 1, w) have densities 1/(w*(w + 1)) apart: a float
        # p/w ties them near 10^20 and falls back to the id, which puts the
        # sparser item first whenever its id is smaller.
        w = 10**20
        tight = modular([Item(1, w, w - 1), Item(2, w + 1, w)], 1, [w + 1], [3])
        greedy_only = SolveLimits(local_search_budget=0)
        assert solve_heuristic(tight, limits=greedy_only).chain == Chain(1, {2: 1})
        rng = random.Random(229)
        for k in range(200):
            items = []
            for _ in range(rng.randint(1, 5)):
                w = 10**20 + rng.randrange(10**9)
                # Densities d - 1/w and d - 1/(w + 1) or d - 2/(w + 1): apart
                # by about 1/w^2 or 1/w, both below a float's resolution at d.
                d = rng.randrange(1, 10**6)
                items += [(w, w * d - 1), (w + 1, (w + 1) * d - 1 - rng.randint(0, 1)),
                          (0, rng.randint(1, 10**20))]
            rng.shuffle(items)
            horizon = rng.randint(1, 3)
            top = rng.randrange(sum(w for w, _ in items) + 1)
            caps = sorted(rng.randint(0, top) for _ in range(horizon - 1)) + [top]
            deltas = [0] * horizon if k % 4 == 0 else [rng.randint(0, 3) for _ in caps]
            inst = modular(
                [Item(i, w, p) for i, (w, p) in enumerate(items, 1)], horizon, caps, deltas
            )
            result = solve_heuristic(inst, seed=k, limits=greedy_only)
            assert result.chain == reference_greedy(inst)

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

    @pytest.mark.parametrize("case", SEARCH_STATE_CASES)
    def test_some_move_gains_matches_brute_force(self, case):
        rng = random.Random(f"some_move_gains/{case}")
        outcomes = set()
        for _ in range(300):
            items, time_of, outside, caps, deltas = random_search_state(rng, case)
            resid = [
                cap - sum(items[i].weight for i, s in time_of.items() if s <= t)
                for t, cap in enumerate(caps)
            ]
            at = [[] for _ in caps]
            for i, t in time_of.items():
                at[t].append(items[i][1:])
            pairs_outside = [items[i][1:] for i in outside]
            claimed = some_move_gains(at, pairs_outside, resid, suffix_coefficients(deltas))
            expected = brute_force_move_gains(items, time_of, outside, caps, deltas)
            assert claimed == expected, (items, time_of, caps, deltas)
            outcomes.add(expected)
        assert outcomes == ({False} if case == "all_zero_deltas" else {False, True})

    @pytest.mark.parametrize("family, n, horizon, expected", PINNED_OUTPUTS)
    def test_output_is_pinned(self, family, n, horizon, expected):
        # Values recorded when every round was drawn in full; ending a round
        # that provably cannot gain must leave chain, value and nodes as they were.
        inst = make_family_instance(family, n, horizon, random.Random(f"{family}/{n}/{horizon}"))
        got = []
        for budget in (0, 50, 2000):
            result = solve_heuristic(
                inst, seed=n + horizon, limits=SolveLimits(local_search_budget=budget)
            )
            got.append((result.value, result.nodes, chain_digest(result.chain)))
        assert tuple(got) == expected

    def test_swap_frees_room_for_a_shift(self):
        # The greedy (4, 5 and 6 at period 1, 3 at 2) leaves no room for a
        # shift or an insert.  Swapping 6 out for 1 at period 3 frees 3 units
        # at period 1, and shifting 3 from 2 to 1 then gains 12.
        items = [Item(1, 9, 12), Item(3, 8, 12), Item(4, 0, 5), Item(5, 3, 9), Item(6, 3, 5)]
        inst = modular(items, 3, (11, 17, 20), (1, 1, 3))
        greedy = solve_heuristic(inst, seed=1245, limits=SolveLimits(local_search_budget=0))
        assert (greedy.chain, greedy.value) == (Chain(3, {3: 2, 4: 1, 5: 1, 6: 1}), 143)
        result = solve_heuristic(inst, seed=1245)
        assert result.chain == Chain(3, {1: 3, 3: 1, 4: 1, 5: 1})
        assert (result.value, result.nodes) == (166, 24)
        assert result.value == solve_exact(inst).value

    def test_round_without_a_gain_is_counted_not_drawn(self, monkeypatch):
        draws = []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        # The greedy takes items 1 and 2; no insert of item 3 fits and no
        # swap gains, so the one round has 3 moves and none is drawn.
        result = solve_heuristic(ik([(6, 2), (5, 2), (4, 2)], [4], [1]))
        assert (result.value, result.nodes, draws) == (11, 3, [])


class TestItemOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_items_give_the_same_chain(self, seed):
        # Weights 0..3 and profits 1..3 make weight-0 items and equal densities
        # common; ids are scattered and partly negative.
        rng = random.Random(seed)
        n = 12 if seed % 2 else 40
        ids = rng.sample(range(-50, 50), n)
        items = [Item(i, rng.randint(0, 3), rng.randint(1, 3)) for i in ids]
        horizon = rng.randint(1, 3)
        caps = sorted(rng.randint(0, 2 * n) for _ in range(horizon))
        deltas = [rng.randint(0, 2) for _ in range(horizon)] if seed % 3 else [0] * horizon
        solves = [lambda inst: solve_heuristic(inst, seed=seed)]
        if n <= SolveLimits().max_n_exact:
            solves.append(solve_exact)
        for solve in solves:
            expected = solve(modular(sorted(items), horizon, caps, deltas))
            for _ in range(4):
                rng.shuffle(items)
                got = solve(modular(items, horizon, caps, deltas))
                assert (got.chain, got.value, got.nodes) == (
                    expected.chain, expected.value, expected.nodes
                )


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

    @pytest.mark.parametrize("value", ["1_8", "+2", "\u0663", " 2", "2\n", ""], ids=repr)
    def test_only_ascii_digits_after_an_optional_minus_are_read(self, value):
        with pytest.raises(ValueError) as exc:
            SolveLimits.from_mapping({"max_n_exact": value})
        assert str(exc.value) == f"limits key 'max_n_exact' must be an integer, got {value!r}"
