"""Vertex-cover reduction: construction, value equivalence, contract boundaries."""

import random

import pytest

from iknap import (
    BadK,
    Chain,
    InfeasibleChain,
    NotSubcubic,
    OracleViolation,
    SubcubicGraph,
    brute_force_chains,
    build_reduction,
    check_aon_property,
    check_submodularity,
    extract_cover,
    generate_subcubic,
    max_k_vertex_cover,
    preprocess_singletons,
    read_edge_list,
    write_edge_list,
)

TRIANGLE = SubcubicGraph(3, ((0, 1), (1, 2), (0, 2)))
PATH = SubcubicGraph(3, ((0, 1), (1, 2)))


class TestSubcubicGraph:
    def test_degree_bound_enforced(self):
        with pytest.raises(NotSubcubic):
            SubcubicGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))

    def test_self_loop_rejected(self):
        with pytest.raises(NotSubcubic):
            SubcubicGraph(2, ((1, 1),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(NotSubcubic):
            SubcubicGraph(2, ((0, 1), (1, 0)))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(NotSubcubic, match="negative vertex count -1"):
            SubcubicGraph(-1, ())

    def test_vertex_range_checked(self):
        with pytest.raises(NotSubcubic):
            SubcubicGraph(2, ((0, 5),))


class TestBuildReduction:
    def test_triangle_structure_and_value(self):
        inst = build_reduction(TRIANGLE, 1)
        assert len(inst) == 3
        assert inst.horizon == 1
        assert inst.capacities == (1,)
        assert inst.deltas == (1,)
        assert all(it.weight == 1 and it.profit == 1 for it in inst.items)
        value, _ = brute_force_chains(inst)
        assert value == 2  # any single triangle vertex covers its two edges

    def test_path_middle_vertex(self):
        value, chain = brute_force_chains(build_reduction(PATH, 1))
        assert value == 2
        assert chain.final_set == {2}  # the middle vertex's item

    def test_bad_k(self):
        with pytest.raises(BadK):
            build_reduction(TRIANGLE, 0)
        with pytest.raises(BadK):
            build_reduction(TRIANGLE, 4)

    def test_horizon_below_1_rejected(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            build_reduction(TRIANGLE, 1, horizon=0)

    def test_max_k_vertex_cover_rejects_bad_k(self):
        with pytest.raises(BadK):
            max_k_vertex_cover(TRIANGLE, 0)

    def test_random_graph_matches_subset_enumeration(self):
        graph = generate_subcubic(8, edge_prob=0.6, seed=11)
        value, _ = brute_force_chains(build_reduction(graph, 3))
        best, _ = max_k_vertex_cover(graph, 3)
        assert value == best

    def test_multi_period_variant_is_constructible(self):
        # exploratory only: constant capacity, unit coefficients
        inst = build_reduction(TRIANGLE, 1, horizon=3)
        assert inst.horizon == 3
        assert inst.capacities == (1, 1, 1)
        value, chain = brute_force_chains(inst)
        assert value == 6  # the best single vertex counts once per period
        vertices, covered = extract_cover(inst, chain)
        assert covered == 2 and len(vertices) == 1

    def test_marginals_bounded_by_degree(self):
        graph = generate_subcubic(7, edge_prob=0.7, seed=13)
        oracle = build_reduction(graph, 2).oracle
        ids = list(range(1, 8))
        from helpers import subsets

        for s in subsets(ids):
            base = oracle.evaluate(s)
            for i in set(ids) - s:
                marginal = oracle.evaluate(s | {i}) - base
                assert 0 <= marginal <= 3

    def test_reduction_oracle_is_submodular_but_not_aon(self):
        inst = build_reduction(PATH, 1)
        oracle = inst.oracle
        assert check_submodularity(oracle, [1, 2, 3]) is None
        profits = {1: 1, 2: 1, 3: 1}
        assert check_aon_property(oracle, profits, [1, 2, 3]) is not None
        with pytest.raises(OracleViolation):
            preprocess_singletons(inst)


class TestExtractCover:
    def test_single_vertex_cover(self):
        vertices, covered = extract_cover(build_reduction(TRIANGLE, 1), Chain(1, {1: 1}))
        assert vertices == frozenset({0})
        assert covered == 2

    def test_empty_chain(self):
        vertices, covered = extract_cover(build_reduction(TRIANGLE, 2), Chain.empty(1))
        assert vertices == frozenset()
        assert covered == 0

    def test_round_trip_through_brute_force(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(2, 8)
            graph = generate_subcubic(n, edge_prob=rng.uniform(0.3, 0.9), seed=rng.randint(0, 999))
            k = rng.randint(1, n)
            inst = build_reduction(graph, k)
            _, chain = brute_force_chains(inst)
            vertices, covered = extract_cover(inst, chain)
            assert len(vertices) <= k
            best, _ = max_k_vertex_cover(graph, k)
            assert covered == best

    def test_infeasible_chain_rejected(self):
        with pytest.raises(InfeasibleChain):
            extract_cover(build_reduction(TRIANGLE, 1), Chain(1, {1: 1, 2: 1}))


class TestGenerateSubcubic:
    def test_single_vertex(self):
        assert generate_subcubic(1, seed=3).edges == ()

    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="need at least one vertex"):
            generate_subcubic(0)

    def test_degrees_within_bound(self):
        for seed in range(20):
            graph = generate_subcubic(12, edge_prob=0.9, seed=seed)
            for v in range(graph.n_vertices):
                assert sum(v in edge for edge in graph.edges) <= 3

    def test_deterministic_per_seed(self):
        a = generate_subcubic(10, edge_prob=0.5, seed=42)
        b = generate_subcubic(10, edge_prob=0.5, seed=42)
        assert a == b
        c = generate_subcubic(10, edge_prob=0.5, seed=43)
        assert a != c  # overwhelmingly likely for distinct seeds


class TestEdgeListIo:
    def test_round_trip(self, tmp_path):
        graph = generate_subcubic(9, edge_prob=0.6, seed=5)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        assert read_edge_list(path) == graph
        header = path.read_text().splitlines()[0]
        assert header == f"9 {len(graph.edges)}"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError):
            read_edge_list(path)
