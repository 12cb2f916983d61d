"""The reduction pipeline: modularize, solve end to end, verify."""

import dataclasses
import random

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
    brute_force_chains,
    greedy_matroid_chain,
    is_feasible,
    is_independent,
    iter_feasible_chains,
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
from iknap.generators import (
    FAMILIES,
    make_family_instance,
    make_matroid_rank_instance,
    make_modular_instance,
    make_uniform_classes_instance,
)


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
            for basis in mod.bases:
                klass = {
                    i
                    for i in reduced.item_ids
                    if reduced.profit_of(i) == reduced.profit_of(next(iter(basis.members)))
                } if basis.members else set()
                for outside in klass - basis.members:
                    assert not is_independent(reduced, basis.members | {outside})

    def test_oracle_budget_is_one_call_per_retained_item(self):
        rng = random.Random(5)
        for _ in range(30):
            fam = rng.choice(list(FAMILIES))
            inst = FAMILIES[fam](rng.randint(1, 9), rng.randint(1, 3), rng)
            reduced, _ = preprocess_singletons(inst)
            before = reduced.oracle.call_count
            modularize(reduced)
            assert reduced.oracle.call_count - before == len(reduced)


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
            for (_, klass), basis in zip(profit_partition(reduced), mod.bases):
                grown: set[int] = set()
                for i in sorted(klass, key=lambda i: (reduced.weight_of(i), i)):
                    expected.append(frozenset(grown | {i}))
                    if i in basis.members:
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
            kept = tuple(sorted(i for basis in bases for i in basis.members))
            before = reduced.oracle.call_count
            mod = modularize(reduced)
            assert reduced.oracle.call_count - before == ref_calls == len(reduced)
            assert mod.bases == bases
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


class TestSolveIkAon:
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

        import importlib

        pipeline = importlib.import_module("iknap.modularize")
        monkeypatch.setattr(pipeline, "_run_ik_solver", broken)
        with pytest.raises(InfeasibleInternal):
            solve_ik_aon(inst)


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
