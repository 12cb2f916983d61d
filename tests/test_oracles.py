"""Oracle families, property checkers, call counting, descriptor codecs."""

import random
import re
import sys
import threading

import networkx as nx
import pytest

from iknap import (
    AggregationOracle,
    Instance,
    MatroidSpec,
    OracleViolation,
    OverlappingClasses,
    UnknownItemId,
    chain_gammas,
    check_aon_property,
    check_submodularity,
    coverage_oracle,
    greedy_kept,
    make_family_instance,
    matroid_rank,
    matroid_rank_sum_oracle,
    modular_oracle,
    oracle_from_descriptor,
    singleton_gains,
    solve_ik_aon,
)
from iknap.oracles import (
    SUBMODULAR_EXHAUSTIVE_LIMIT,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    _matroid_from_obj,
)
from helpers import subsets, supermodular_oracle


def _independent(spec, items):
    """Independence straight from each kind's definition."""
    if spec.kind == "uniform":
        return len(items) <= spec.rank_cap
    if spec.kind == "partition":
        return all(len(items & g) <= cap for g, cap in spec.groups)
    g = nx.MultiGraph()
    g.add_edges_from((u, v) for i, u, v in spec.edges if i in items)
    return nx.is_forest(g) if g.number_of_edges() else True


#: Oracles with their grounds: modular, and rank-sum classes of every matroid
#: kind, with a cap-0 uniform class, a cap-0 partition group, self-loops and
#: parallel edges.
BULK_ORACLES = {
    "modular": (modular_oracle({1: 4, 2: 7, 3: 1, 4: 4}), range(1, 5)),
    "uniform": (
        matroid_rank_sum_oracle(
            [(2, MatroidSpec.uniform(range(1, 6), 3)), (5, MatroidSpec.uniform([6, 7], 0))]
        ),
        range(1, 8),
    ),
    "partition": (
        matroid_rank_sum_oracle(
            [
                (1, MatroidSpec.partition([([1, 2, 3], 2), ([4, 5], 0), ([6], 1)])),
                (4, MatroidSpec.partition([([7, 8], 1)])),
            ]
        ),
        range(1, 9),
    ),
    "graphic": (
        matroid_rank_sum_oracle(
            [
                (3, MatroidSpec.graphic(
                    [(1, 0, 1), (2, 1, 2), (3, 0, 2), (4, 2, 2), (5, 0, 1), (6, 3, 4)]
                )),
                (7, MatroidSpec.graphic([(7, 0, 0), (8, 5, 6), (9, 5, 6)])),
            ]
        ),
        range(1, 10),
    ),
    "mixed": (
        matroid_rank_sum_oracle(
            [
                (1, MatroidSpec.uniform([1, 2, 3], 1)),
                (2, MatroidSpec.partition([([4, 5], 1), ([6], 0)])),
                (6, MatroidSpec.graphic([(7, 0, 1), (8, 1, 0), (9, 1, 1), (10, 1, 2)])),
            ]
        ),
        range(1, 11),
    ),
}


class TestModularOracle:
    def test_empty_set_is_zero(self):
        assert modular_oracle({1: 4, 2: 7}).evaluate(frozenset()) == 0

    def test_direct_sum(self):
        assert modular_oracle({1: 4, 2: 7}).evaluate({1, 2}) == 11

    def test_matches_independent_summation(self):
        rng = random.Random(1)
        profits = {i: rng.randint(1, 20) for i in range(1, 15)}
        oracle = modular_oracle(profits)
        for _ in range(100):
            s = {i for i in profits if rng.random() < 0.5}
            assert oracle.evaluate(s) == sum(profits[i] for i in s)

    def test_unknown_item(self):
        with pytest.raises(UnknownItemId):
            modular_oracle({1: 4}).evaluate({9})

    @pytest.mark.parametrize(
        "profits",
        [{1: 4.7, 2: 3}, {1: 4, "2": 3}, {1: 4, 2: "3"}, {True: 4, 2: 3}, {1: True, 2: 3}],
        ids=["float-profit", "string-id", "string-profit", "bool-id", "bool-profit"],
    )
    def test_non_integer_id_or_profit_rejected(self, profits):
        with pytest.raises(ValueError, match="must be an integer"):
            modular_oracle(profits)


class TestMatroidRank:
    def test_uniform_cap_dominates(self):
        spec = MatroidSpec.uniform([1, 2], 1)
        assert matroid_rank(spec, {1, 2}) == 1
        assert matroid_rank(spec, {1}) == 1
        assert matroid_rank(spec, set()) == 0

    def test_partition_per_group_caps(self):
        spec = MatroidSpec.partition([([1, 2], 1), ([3], 1)])
        assert matroid_rank(spec, {1, 2, 3}) == 2

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([([1, 2], 1), ([3, 2], 1)], "partition matroid groups must be disjoint"),
            ([([1, 2], 1), ([3], -1)], "partition matroid caps must be >= 0"),
            # Group by group, the first bad value is the one named.
            ([([1], 1), ([1], -1)], "partition matroid caps must be >= 0"),
            ([([1], -1), ([2.5], 1)], "partition matroid caps must be >= 0"),
            ([([1], 1), ([2.5], -1)], "matroid item id must be an integer, got 2.5"),
            ([([1], 1), ([1], 1.5)], "partition matroid cap must be an integer, got 1.5"),
        ],
    )
    def test_partition_rejects_bad_groups(self, groups, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MatroidSpec.partition(groups)

    def test_uniform_rejects_a_negative_cap(self):
        with pytest.raises(ValueError, match="uniform matroid cap must be >= 0"):
            MatroidSpec.uniform([1], -1)

    def test_graphic_rejects_a_repeated_item(self):
        with pytest.raises(ValueError, match="graphic matroid items must biject to edges"):
            MatroidSpec.graphic([(1, 0, 1), (1, 1, 2)])

    def test_partition_group_may_repeat_its_own_ids(self):
        spec = MatroidSpec.partition([(iter([1, 1, 2]), 1), ((i for i in [3]), 0)])
        assert spec.ground == {1, 2, 3}
        assert spec.groups == ((frozenset({1, 2}), 1), (frozenset({3}), 0))

    def test_graphic_triangle(self):
        # K3 as items 1..3; a spanning tree keeps 2 of the 3 edges
        spec = MatroidSpec.graphic([(1, 0, 1), (2, 1, 2), (3, 0, 2)])
        assert matroid_rank(spec, {1, 2, 3}) == 2
        assert matroid_rank(spec, {1, 2}) == 2
        assert matroid_rank(spec, {1}) == 1

    def test_graphic_self_loop_and_parallel(self):
        spec = MatroidSpec.graphic([(1, 0, 0), (2, 0, 1), (3, 0, 1)])
        assert matroid_rank(spec, {1}) == 0  # self-loop never joins
        assert matroid_rank(spec, {2, 3}) == 1  # parallel edges form a cycle

    def test_graphic_matches_networkx(self):
        rng = random.Random(7)
        for _ in range(50):
            n_vertices = rng.randint(2, 6)
            edges = [
                (i + 1, rng.randrange(n_vertices), rng.randrange(n_vertices))
                for i in range(rng.randint(1, 8))
            ]
            spec = MatroidSpec.graphic(edges)
            for _ in range(10):
                sel = {i for i, _, _ in edges if rng.random() < 0.5}
                g = nx.MultiGraph()
                g.add_nodes_from(range(n_vertices))
                g.add_edges_from(
                    (u, v) for i, u, v in edges if i in sel and u != v
                )
                touched = {
                    w
                    for i, u, v in edges
                    if i in sel and u != v
                    for w in (u, v)
                }
                expected = len(touched) and len(touched) - nx.number_connected_components(
                    g.subgraph(touched)
                )
                assert matroid_rank(spec, sel) == expected

    def test_unknown_item(self):
        with pytest.raises(UnknownItemId):
            matroid_rank(MatroidSpec.uniform([1], 1), {2})

    def test_matroid_rank_axioms_exhaustive(self):
        rng = random.Random(9)
        specs = [
            MatroidSpec.uniform(range(1, 7), 3),
            MatroidSpec.partition([([1, 2, 3], 2), ([4, 5], 1), ([6], 1)]),
            MatroidSpec.graphic(
                [(i + 1, rng.randrange(4), rng.randrange(4)) for i in range(6)]
            ),
        ]
        for spec in specs:
            rank = {s: matroid_rank(spec, s) for s in subsets(spec.ground)}
            for s, r in rank.items():
                assert 0 <= r <= len(s)
                for i in spec.ground - s:
                    bigger = s | {i}
                    assert rank[bigger] >= r  # monotone
                    for j in spec.ground - bigger:
                        # local submodularity of the rank function
                        assert (
                            rank[s | {i}] + rank[s | {j}]
                            >= rank[s | {i, j}] + r
                        )


    def test_matches_brute_force_rank_with_cap_zero_loops_and_parallels(self):
        specs = [
            MatroidSpec.uniform(range(1, 6), 0),
            MatroidSpec.uniform(range(1, 6), 2),
            MatroidSpec.partition([([1, 2, 3], 2), ([4, 5], 0), ([6], 1)]),
            MatroidSpec.graphic(
                [(1, 0, 1), (2, 1, 2), (3, 0, 2), (4, 2, 2), (5, 0, 1), (6, 3, 4)]
            ),
        ]
        for spec in specs:
            independent = [s for s in subsets(spec.ground) if _independent(spec, s)]
            for s in subsets(spec.ground):
                assert matroid_rank(spec, s) == max(len(i) for i in independent if i <= s)


class TestMatroidRankSum:
    def test_single_class_caps_value(self):
        oracle = matroid_rank_sum_oracle([(5, MatroidSpec.uniform([1, 2], 1))])
        assert oracle.evaluate({1}) == 5
        assert oracle.evaluate({1, 2}) == 5

    def test_two_classes_add_per_class_ranks(self):
        specs = [
            (5, MatroidSpec.uniform([1, 2], 1)),
            (9, MatroidSpec.partition([([3], 1), ([4, 5], 1)])),
        ]
        oracle = matroid_rank_sum_oracle(specs)
        rng = random.Random(2)
        for _ in range(40):
            s = {i for i in range(1, 6) if rng.random() < 0.5}
            expected = sum(p * matroid_rank(spec, s & spec.ground) for p, spec in specs)
            assert oracle.evaluate(s) == expected

    def test_marginals_are_all_or_nothing(self):
        specs = [
            (3, MatroidSpec.uniform([1, 2, 3], 2)),
            (7, MatroidSpec.graphic([(4, 0, 1), (5, 1, 2), (6, 0, 2)])),
        ]
        oracle = matroid_rank_sum_oracle(specs)
        profit = {1: 3, 2: 3, 3: 3, 4: 7, 5: 7, 6: 7}
        ground = range(1, 7)
        for s in subsets(ground):
            base = oracle.evaluate(s)
            for i in set(ground) - s:
                assert oracle.evaluate(s | {i}) - base in (0, profit[i])

    def test_overlapping_classes_rejected(self):
        with pytest.raises(OverlappingClasses):
            matroid_rank_sum_oracle(
                [(2, MatroidSpec.uniform([1, 2], 1)), (5, MatroidSpec.uniform([2], 1))]
            )

    def test_non_increasing_profits_rejected(self):
        with pytest.raises(ValueError):
            matroid_rank_sum_oracle(
                [(5, MatroidSpec.uniform([1], 1)), (5, MatroidSpec.uniform([2], 1))]
            )


class TestCoverageOracle:
    def triangle(self):
        return coverage_oracle([(0, 1), (1, 2), (0, 2)], {1: 0, 2: 1, 3: 2})

    def test_empty_set_is_zero(self):
        assert self.triangle().evaluate(set()) == 0

    def test_single_vertex_covers_incident_edges(self):
        assert self.triangle().evaluate({1}) == 2

    def test_matches_direct_edge_scan(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            vertex_of = {i + 1: i for i in range(n)}
            oracle = coverage_oracle(edges, vertex_of)
            s = {i for i in vertex_of if rng.random() < 0.5}
            verts = {vertex_of[i] for i in s}
            assert oracle.evaluate(s) == sum(
                1 for u, v in edges if u in verts or v in verts
            )

    def test_rejects_non_simple_graphs(self):
        with pytest.raises(ValueError):
            coverage_oracle([(0, 0)], {1: 0})
        with pytest.raises(ValueError):
            coverage_oracle([(0, 1), (1, 0)], {1: 0, 2: 1})

    def test_marginals_bounded_by_max_degree(self):
        # a star is far from subcubic; marginals still cap at the max degree
        rng = random.Random(6)
        edges = [(0, v) for v in range(1, 8)] + [(1, 2), (3, 4)]
        vertex_of = {i + 1: i for i in range(8)}
        oracle = coverage_oracle(edges, vertex_of)
        max_degree = max(
            sum(1 for e in edges if v in e) for v in range(8)
        )
        for _ in range(200):
            s = {i for i in vertex_of if rng.random() < 0.4}
            for i in set(vertex_of) - s:
                marginal = oracle.evaluate(s | {i}) - oracle.evaluate(s)
                assert 0 <= marginal <= max_degree


class TestCheckers:
    def test_modular_is_aon(self):
        profits = {i: i for i in range(1, 6)}
        oracle = modular_oracle(profits)
        assert check_aon_property(oracle, profits, profits) is None

    def test_rank_sum_is_aon_exhaustively(self):
        oracle = matroid_rank_sum_oracle(
            [(2, MatroidSpec.uniform([1, 2, 3], 1)), (6, MatroidSpec.uniform([4, 5, 6], 2))]
        )
        profits = {1: 2, 2: 2, 3: 2, 4: 6, 5: 6, 6: 6}
        assert check_aon_property(oracle, profits, range(1, 7)) is None

    def test_path_coverage_violates_aon(self):
        # middle vertex of v1-v2-v3 covers two edges at once
        oracle = coverage_oracle([(0, 1), (1, 2)], {1: 0, 2: 1, 3: 2})
        witness = check_aon_property(oracle, {1: 1, 2: 1, 3: 1}, [1, 2, 3])
        assert witness == (frozenset(), 2)
        s, i = witness
        assert oracle.evaluate(s | {i}) - oracle.evaluate(s) == 2

    def test_builtin_families_are_submodular(self):
        cases = [
            (modular_oracle({i: i for i in range(1, 7)}), range(1, 7)),
            (matroid_rank_sum_oracle([(4, MatroidSpec.uniform([1, 2, 3, 4], 2))]), range(1, 5)),
            (
                matroid_rank_sum_oracle(
                    [(1, MatroidSpec.graphic([(i + 1, i % 3, (i + 1) % 3) for i in range(6)]))]
                ),
                range(1, 7),
            ),
            (
                coverage_oracle([(0, 1), (1, 2), (2, 3), (3, 0)], {i: i - 1 for i in range(1, 5)}),
                range(1, 5),
            ),
        ]
        for oracle, ground in cases:
            assert check_submodularity(oracle, ground) is None

    def test_supermodular_counterexample(self):
        witness = check_submodularity(supermodular_oracle(), [1, 2, 3])
        assert witness is not None
        s, t, i = witness
        assert s <= t and i not in t

    def test_decrease_is_a_monotonicity_counterexample(self):
        values = {frozenset(): 0, frozenset({1}): 2, frozenset({2}): 1, frozenset({1, 2}): 1}
        oracle = AggregationOracle(values.__getitem__, {"kind": "adversarial-decreasing"})
        s, t, i = check_submodularity(oracle, [1, 2])
        assert t == s | {i} and i not in s
        assert oracle.evaluate(t) < oracle.evaluate(s)

    def test_sampled_decrease_is_found_above_size_ten(self):
        oracle = AggregationOracle(lambda s: 20 - len(s), {"kind": "adversarial-decreasing"})
        assert 11 > SUBMODULAR_EXHAUSTIVE_LIMIT
        s, t, _ = check_submodularity(oracle, range(1, 12))
        assert s <= t and oracle.evaluate(s) > oracle.evaluate(t)

    def test_sampled_supermodular_counterexample_above_size_ten(self):
        oracle = AggregationOracle(lambda s: len(s) ** 2, {"kind": "adversarial-supermodular"})
        s, t, i = check_submodularity(oracle, range(1, 12))
        assert s <= t and i not in t
        assert oracle.evaluate(s) <= oracle.evaluate(t)  # monotone: only the marginal fails
        gain = oracle.evaluate(s | {i}) - oracle.evaluate(s)
        assert gain < oracle.evaluate(t | {i}) - oracle.evaluate(t)

    def test_exhaustive_at_the_size_ten_threshold(self):
        rng = random.Random(8)
        oracle = matroid_rank_sum_oracle(
            [
                (2, MatroidSpec.uniform([1, 2, 3], 1)),
                (5, MatroidSpec.partition([([4, 5], 1), ([6, 7], 2)])),
                (9, MatroidSpec.graphic(
                    [(i, rng.randrange(3), rng.randrange(3)) for i in (8, 9, 10)]
                )),
            ]
        )
        assert check_submodularity(oracle, range(1, 11)) is None

    def test_sampled_mode_on_large_ground(self):
        profits = {i: 1 for i in range(1, 15)}
        assert check_aon_property(modular_oracle(profits), profits, profits) is None
        # a 14-cycle: degree-2 vertices make unit-profit AoN fail under sampling
        edges = [(v, (v + 1) % 14) for v in range(14)]
        oracle = coverage_oracle(edges, {i: i - 1 for i in range(1, 15)})
        assert check_aon_property(oracle, profits, profits) is not None
        assert check_submodularity(oracle, list(profits)) is None


class TestCallCounter:
    def test_counts_every_evaluation(self):
        oracle = modular_oracle({1: 1, 2: 2})
        assert oracle.call_count == 0
        oracle.evaluate({1})
        oracle.evaluate({1})
        oracle.evaluate({1, 2})
        assert oracle.call_count == 3

    def test_concurrent_increments(self):
        oracle = modular_oracle({i: 1 for i in range(1, 9)})

        def worker():
            for _ in range(500):
                oracle.evaluate({1, 2, 3})

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert oracle.call_count == 2000

    def test_reading_the_count_is_not_a_call(self):
        oracle = modular_oracle({1: 1, 2: 2})
        oracle.evaluate({1})
        assert oracle.call_count == 1
        assert oracle.call_count == 1
        assert repr(oracle) == "AggregationOracle(kind='modular', calls=1)"
        singleton_gains(oracle, [2])
        assert repr(oracle) == "AggregationOracle(kind='modular', calls=2)"
        assert oracle.call_count == 2

    @pytest.mark.parametrize("name", ["modular", "mixed"])
    def test_concurrent_bulk_ticks_evaluations_and_reads(self, name):
        oracle, ground = BULK_ORACLES[name]
        ground = list(ground)
        profit_of = class_profits(oracle, ground)
        before = oracle.call_count
        seen = []
        done = threading.Event()

        def worker():
            for k in range(200):
                oracle.evaluate({ground[0]})
                singleton_gains(oracle, ground)
                greedy_kept(oracle, [(i, k % 2, profit_of[i]) for i in ground])
                chain_gammas(oracle, layers(k))

        def layers(k):  # S_1, an empty layer, then the next third of the ground
            return [ground[k % 3 :: 3], [], ground[(k + 1) % 3 :: 3]]

        expected = 4 * sum(
            1 + 2 * len(ground) + 1 + bool(layers(k)[2])
            for k in range(200)
        )
        workers = [threading.Thread(target=worker) for _ in range(4)]
        watcher = threading.Thread(target=reader, args=(oracle, seen, done))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost tick would show
        try:
            watcher.start()
            for th in workers:
                th.start()
            for th in workers:
                th.join(timeout=60)
            done.set()
            watcher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in workers + [watcher])
        assert oracle.call_count - before == expected
        seen = [c - before for c in seen]
        assert seen == sorted(seen) and all(0 <= c <= expected for c in seen)

    @pytest.mark.parametrize("name", ["modular", "mixed"])
    def test_evaluate_and_each_bulk_call_count_under_the_lock(self, name):
        # A switch interval cannot make CPython lose an unlocked tick between
        # threads, so the lock is checked by taking it, not by a race.
        bulk, ground = BULK_ORACLES[name]
        ground = list(ground)
        profit_of = class_profits(bulk, ground)
        calls = [
            (lambda o: o.evaluate({ground[0]}), 1),
            (lambda o: singleton_gains(o, ground), len(ground)),
            (lambda o: greedy_kept(o, [(i, 0, profit_of[i]) for i in ground]), len(ground)),
            (lambda o: chain_gammas(o, [ground[::2], [], ground[1::2]]), 2),
        ]
        for oracle in (bulk, evaluate_only(bulk)):
            plain_lock = oracle._lock
            for call, counted in calls:
                before = oracle.call_count
                lock = oracle._lock = RecordingLock()
                try:
                    call(oracle)
                finally:
                    oracle._lock = plain_lock
                assert oracle.call_count - before == counted
                assert lock.taken == (1 if oracle is bulk else counted)


class RecordingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self._lock.acquire()
        self.taken += 1

    def __exit__(self, *exc):
        self._lock.release()


def reader(oracle, seen, done):
    while not done.is_set():
        seen.append(oracle.call_count)


def class_profits(oracle, ground):
    """Each item's all-or-nothing profit: its modular value, or its class profit."""
    descriptor = oracle.descriptor
    if descriptor["kind"] == "modular":
        return {i: oracle.evaluate({i}) for i in ground}
    return {
        i: c["profit"]
        for c in descriptor["classes"]
        for i in _matroid_from_obj(c["matroid"]).ground
    }


def greedy_by_evaluate(oracle, items):
    """The items kept by gamma(B + i) - gamma(B) = p_i, from direct evaluations.

    The items are grouped by profit, each class grows its own B from empty
    in (weight, id) order, and the kept items are returned in id order.
    """
    classes: dict[int, list] = {}
    for it in items:
        classes.setdefault(it[2], []).append(it)
    kept = []
    for p, members in classes.items():
        basis: set[int] = set()
        for it in sorted(members, key=lambda it: (it[1], it[0])):
            if oracle.evaluate(basis | {it[0]}) - oracle.evaluate(basis) == p:
                kept.append(it)
                basis.add(it[0])
    return sorted(kept)


def kept_outcome(oracle, items):
    """greedy_kept()'s answer, or the error it raises, with the calls made until then."""
    before = oracle.call_count
    try:
        kept = greedy_kept(oracle, items)
    except (UnknownItemId, OracleViolation) as exc:
        kept = (type(exc), str(exc))
    return kept, oracle.call_count - before


def evaluate_only(oracle):
    """An oracle with the same values and no bulk triple: greedy_kept's evaluate() path."""
    return AggregationOracle(oracle.evaluate, {"kind": "evaluate-only"})


class TestBulkCalls:
    def item_lists(self, oracle, ground, rng):
        """Random item lists in random order, with tied weights.

        A subset of each class, a subset of the ground, then the whole ground.
        """
        profit_of = class_profits(oracle, ground)
        classes: dict[int, list[int]] = {}
        for i in ground:
            classes.setdefault(profit_of[i], []).append(i)
        picks = [(ids, rng.randint(0, len(ids))) for ids in [*classes.values(), list(ground)]]
        for ids, size in picks + [(list(ground), len(ground))]:
            yield [(i, rng.randint(0, 2), profit_of[i]) for i in rng.sample(ids, size)]

    def check(self, oracle, ground, rng):
        order = list(ground)
        rng.shuffle(order)
        before = oracle.call_count
        gains = singleton_gains(oracle, order)
        assert oracle.call_count == before + len(order)
        assert gains == [oracle.evaluate({i}) - oracle.evaluate(set()) for i in order]
        for items in self.item_lists(oracle, ground, rng):
            before = oracle.call_count
            kept = greedy_kept(oracle, items)
            assert oracle.call_count == before + len(items)
            assert kept == greedy_by_evaluate(oracle, items), items
            assert kept_outcome(evaluate_only(oracle), items) == (kept, len(items))

    @pytest.mark.parametrize("name", sorted(BULK_ORACLES))
    def test_answers_match_evaluate_along_random_orders(self, name):
        oracle, ground = BULK_ORACLES[name]
        rng = random.Random(11)
        for _ in range(60):
            self.check(oracle, ground, rng)

    @pytest.mark.parametrize(
        "family", ["modular", "uniform-classes", "partition-classes", "graphic-classes"]
    )
    def test_answers_match_evaluate_on_generated_instances(self, family):
        rng = random.Random(12)
        for seed in range(10):
            inst = make_family_instance(family, 14, 2, random.Random(seed))
            for _ in range(5):
                self.check(inst.oracle, inst.item_ids, rng)

    @pytest.mark.parametrize("name", sorted(BULK_ORACLES))
    def test_one_class_off_the_bulk_answer_sends_the_whole_call_to_evaluate(self, name):
        # One item is spoiled: its profit moves off its class's (below it, so
        # a positive gain raises OracleViolation; above it, so it is left
        # out; or onto another class's), or an id outside the ground joins a
        # class.  Answers, the first error and the calls made until it are
        # the evaluate() path's.
        oracle, ground = BULK_ORACLES[name]
        profit_of = class_profits(oracle, ground)
        profits = sorted(set(profit_of.values()))
        rng = random.Random(13)
        outcomes = set()
        for _ in range(200):
            items = [(i, rng.randint(0, 2), profit_of[i]) for i in rng.sample(list(ground), 4)]
            k = rng.randrange(len(items))
            i, w, p = items[k]
            spoiled = rng.choice([
                (i, w, p - 1), (i, w, p + 1), (i, w, rng.choice(profits)), (99, w, p),
            ])
            items[k] = spoiled
            rng.shuffle(items)
            kept, calls = kept_outcome(oracle, items)
            assert (kept, calls) == kept_outcome(evaluate_only(oracle), items), items
            outcomes.add(kept[0] if type(kept) is tuple else list)
            if type(kept) is list:
                assert calls == len(items)
        assert outcomes == {list, OracleViolation, UnknownItemId}

    @pytest.mark.parametrize("name", sorted(BULK_ORACLES))
    def test_unknown_item(self, name):
        oracle, ground = BULK_ORACLES[name]
        first = min(ground)
        p = class_profits(oracle, [first])[first]
        for call, arg in [
            (singleton_gains, [first, 99]),
            (greedy_kept, [(99, 1, p), (first, 1, p)]),
            (chain_gammas, [[first], [], [99]]),
        ]:
            before = oracle.call_count
            with pytest.raises(UnknownItemId):
                call(oracle, arg)
            assert oracle.call_count == before + 2

    def test_evaluate_backed_calls_ask_the_grown_set(self):
        # Items 1-3 are one class of rank 2; item 4 is its own class at profit 3.
        seen = []
        oracle = AggregationOracle(
            lambda s: seen.append(s) or min(len(s - {4}), 2) + 3 * (4 in s), {"kind": "user"}
        )
        assert singleton_gains(oracle, [1, 2]) == [1, 1]
        items = [(4, 0, 3), (1, 5, 1), (3, 1, 1), (2, 0, 1)]
        assert greedy_kept(oracle, items) == [(2, 0, 1), (3, 1, 1), (4, 0, 3)]
        assert chain_gammas(oracle, [[3], [], [1, 2], []]) == [1, 1, 2, 2]
        assert seen == [{1}, {2}, {2}, {2, 3}, {1, 2, 3}, {4}, {3}, {1, 2, 3}]
        assert oracle.call_count == 8


class TestDescriptors:
    def round_trip(self, oracle, profits, ground):
        rebuilt = oracle_from_descriptor(oracle.descriptor, profits)
        rng = random.Random(0)
        for _ in range(30):
            s = {i for i in ground if rng.random() < 0.5}
            assert rebuilt.evaluate(s) == oracle.evaluate(s)

    def test_modular_round_trip(self):
        profits = {1: 3, 2: 8}
        self.round_trip(modular_oracle(profits), profits, profits)

    def test_rank_sum_round_trip(self):
        specs = [
            (2, MatroidSpec.uniform([1, 2], 1)),
            (5, MatroidSpec.partition([([3, 4], 1)])),
            (9, MatroidSpec.graphic([(5, 0, 1), (6, 1, 2)])),
        ]
        oracle = matroid_rank_sum_oracle(specs)
        self.round_trip(oracle, {}, range(1, 7))

    def test_coverage_round_trip(self):
        oracle = coverage_oracle([(0, 1), (1, 2)], {1: 0, 2: 1, 3: 2})
        self.round_trip(oracle, {}, [1, 2, 3])

    def test_modular_profits_as_a_mapping_or_as_pairs_give_one_oracle(self):
        rng = random.Random(4)
        profits = {i: rng.randint(1, 9) for i in range(1, 13)}
        items = [(i, rng.randint(0, 3), p) for i, p in profits.items()]
        items[3] = (4, 1, profits[4] + 1)  # off its table value: not kept
        layers = [[5, 1], [], [9, 12, 2], [7]]
        oracles = [
            oracle_from_descriptor({"kind": "modular"}, profits),
            oracle_from_descriptor({"kind": "modular"}, iter(list(profits.items()))),
        ]
        answers = [
            (
                [oracle.evaluate(s) for s in ({3}, {1, 2, 12}, set())],
                singleton_gains(oracle, list(profits)),
                greedy_kept(oracle, items),
                chain_gammas(oracle, layers),
                oracle.call_count,
            )
            for oracle in oracles
        ]
        assert answers[0] == answers[1]
        assert answers[0][2] == [it for it in items if it[0] != 4]
        for oracle in oracles:
            for ask in (
                lambda: oracle.evaluate({1, 13}),
                lambda: singleton_gains(oracle, [13]),
                lambda: greedy_kept(oracle, [(13, 1, 1)]),
                lambda: chain_gammas(oracle, [[13]]),
            ):
                with pytest.raises(UnknownItemId, match="item id 13 outside oracle ground"):
                    ask()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            oracle_from_descriptor({"kind": "mystery"}, {})

    @pytest.mark.parametrize(
        "family", ["uniform-classes", "partition-classes", "graphic-classes"]
    )
    def test_rank_sum_descriptor_is_built_on_first_read(self, family, monkeypatch):
        inst = make_family_instance(family, 30, 2, random.Random(3))
        descriptor = inst.oracle.descriptor
        built = []
        for kind in (UniformMatroid, PartitionMatroid, GraphicMatroid):
            to_obj = kind.to_obj
            monkeypatch.setattr(
                kind, "to_obj", lambda spec, to_obj=to_obj: built.append(spec) or to_obj(spec)
            )
        oracle = oracle_from_descriptor(descriptor, inst.profits_by_id)
        solve_ik_aon(
            Instance(inst.items, inst.horizon, inst.capacities, inst.deltas, oracle), "heuristic"
        )
        assert built == []
        assert oracle.descriptor == descriptor
        assert len(built) == len(descriptor["classes"])
        assert oracle.descriptor is oracle.descriptor
        assert len(built) == len(descriptor["classes"])
