"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines as
they complete.  Every tolerance here is exact integer equality; nothing is
calibrated after the fact.
"""

import random
import time
from itertools import combinations

from iknap import (
    brute_force_chains,
    build_reduction,
    check_matroid_exchange,
    check_submodularity,
    generate_subcubic,
    greedy_matroid_chain,
    is_feasible,
    is_independent,
    iter_feasible_chains,
    max_k_vertex_cover,
    min_weight_basis,
    modularize,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    profit_phi_bar,
    restrict_chain_to_basis,
    solve_ik_aon,
)
from iknap.generators import FAMILIES, make_matroid_rank_instance
from helpers import maximal_independent_subsets, random_independent_chain

from test_independence import random_class_instance


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def _small_suite():
    """Shared corpus for the exhaustive criteria: n <= 7, T <= 3, all families."""
    rng = random.Random(20_240)
    suite = []
    for fam, builder in sorted(FAMILIES.items()):
        for _ in range(10):
            suite.append((fam, builder(rng.randint(2, 7), rng.randint(1, 3), rng)))
    return suite


SUITE = _small_suite()


def test_criterion_01_exact_pipeline_matches_enumeration():
    """Pipeline with the exact subroutine is exact, per oracle family."""
    started = time.perf_counter()
    per_family = 500
    checked = 0
    for fam, builder in sorted(FAMILIES.items()):
        rng = random.Random(20_000 + sorted(FAMILIES).index(fam))
        for _ in range(per_family):
            inst = builder(rng.randint(2, 9), rng.randint(1, 3), rng)
            report = solve_ik_aon(inst, solver="exact")
            optimum, _ = brute_force_chains(inst)
            assert report.phi == optimum, (fam, report.phi, optimum)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 4 * per_family
    _report(1, ok, f"{checked} instances across 4 families in {elapsed:.1f}s")
    assert ok


def test_criterion_02_profit_functionals_agree_on_modularized_chains():
    """Phi == Phi-bar for every feasible chain of every modularized instance."""
    chains_checked = 0
    for _, inst in SUITE:
        reduced, _ = preprocess_singletons(inst)
        mod = modularize(reduced)
        assert len(mod.ik) <= 7
        for chain in iter_feasible_chains(mod.ik):
            phi = profit_phi(reduced, chain)
            phi_bar = profit_phi_bar(reduced.profits_by_id, reduced.deltas, chain)
            assert phi == phi_bar, (inst, chain, phi, phi_bar)
            chains_checked += 1
    _report(2, True, f"{chains_checked} exhaustively enumerated chains, all equal")


def test_criterion_03_optimum_attained_by_independent_chain():
    """Some optimal chain is independent, witnessed and oracle-verified."""
    for _, inst in SUITE:
        optimum, _ = brute_force_chains(inst)
        witness = None
        for chain in iter_feasible_chains(inst):
            if profit_phi(inst, chain) != optimum:
                continue
            final = chain.final_set
            if inst.oracle.evaluate(final) == sum(
                inst.profit_of(i) for i in final
            ):
                witness = chain
                break
        assert witness is not None, f"no independent optimal chain for {inst}"
    _report(3, True, f"independent optimal witness found on all {len(SUITE)} instances")


def _single_class_corpora(max_size: int):
    """Profit classes of every built-in family, sizes 2..max_size."""
    rng = random.Random(777)
    corpora = []
    for kind in ("uniform", "partition", "graphic"):
        for size in range(2, max_size + 1):
            corpora.append(random_class_instance(rng, size, kind))
    # modular classes: every subset independent
    from iknap.generators import make_modular_instance

    for size in (4, 8):
        inst = make_modular_instance(size, 1, rng)
        flat = [
            (p, members)
            for p, members in profit_partition(inst)
        ]
        corpora.extend((inst, members) for _, members in flat)
    return corpora


def _equal_cardinality_everywhere(inst, members) -> bool:
    items = sorted(members)
    n = len(items)
    ind = {}
    for mask in range(1 << n):
        s = frozenset(items[b] for b in range(n) if mask >> b & 1)
        ind[mask] = is_independent(inst, s)
    for a_mask in range(1 << n):
        sizes = set()
        m = a_mask
        while True:
            if ind[m]:
                free = a_mask & ~m
                maximal = True
                b = free
                while b:
                    low = b & -b
                    if ind[m | low]:
                        maximal = False
                        break
                    b ^= low
                if maximal:
                    sizes.add(bin(m).count("1"))
            if m == 0:
                break
            m = (m - 1) & a_mask
        if len(sizes) != 1:
            return False
    return True


def test_criterion_04_profit_classes_form_matroids():
    """Exchange plus equal-cardinality-of-maximal-sets, exhaustively to size 8."""
    classes_checked = 0
    for inst, members in _single_class_corpora(8):
        if not 1 <= len(members) <= 8:
            continue
        assert check_matroid_exchange(inst, members) is None, sorted(members)
        assert _equal_cardinality_everywhere(inst, members), sorted(members)
        classes_checked += 1
    for _, inst in SUITE:
        reduced, _ = preprocess_singletons(inst)
        for _, members in profit_partition(reduced):
            assert check_matroid_exchange(reduced, members) is None
            assert _equal_cardinality_everywhere(reduced, members)
            classes_checked += 1
    _report(4, True, f"{classes_checked} profit classes pass both matroid checks")


def test_criterion_05_greedy_basis_weight_is_minimal():
    """Greedy basis weight equals the brute-force minimum, 200 random classes."""
    rng = random.Random(555)
    for trial in range(200):
        inst, members = random_class_instance(rng, rng.randint(1, 7))
        basis = min_weight_basis(inst, members)
        maximal = maximal_independent_subsets(inst, members)
        assert frozenset(it.id for it in basis) in maximal, trial
        assert sum(it.weight for it in basis) == min(inst.total_weight(s) for s in maximal), trial
    _report(5, True, "greedy == brute-force minimum on 200 random classes")


def test_criterion_06_basis_restriction_preserves_value_and_dominates_weight():
    """Rerouted chains keep gamma per period and never gain weight, 200 chains."""
    rng = random.Random(666)
    for trial in range(200):
        inst, members = random_class_instance(rng, rng.randint(1, 6))
        basis = min_weight_basis(inst, members)
        chain = random_independent_chain(inst, members, rng.randint(1, 3), rng)
        rerouted = restrict_chain_to_basis(inst, members, basis, chain)
        for old, new in zip(chain.sets(), rerouted.sets()):
            assert inst.oracle.evaluate(new) == inst.oracle.evaluate(old), trial
            assert inst.total_weight(new) <= inst.total_weight(old), trial
    _report(6, True, "both postconditions hold on 200 random independent chains")


def test_criterion_07_modularization_oracle_budget():
    """Exactly one independence oracle call per retained item, every instance."""
    for _, inst in SUITE:
        reduced, _ = preprocess_singletons(inst)
        before = reduced.oracle.call_count
        modularize(reduced)
        used = reduced.oracle.call_count - before
        assert used == len(reduced), (inst, used, len(reduced))
    _report(7, True, f"budget exact on all {len(SUITE)} suite instances")


def test_criterion_08_vertex_cover_reduction_fidelity():
    """Reduction optimum == direct cover optimum; marginals in 0..3; submodular."""
    rng = random.Random(888)
    graphs = 0
    pairs = 0
    while graphs < 100:
        n = rng.randint(2, 10)
        graph = generate_subcubic(n, edge_prob=rng.uniform(0.2, 0.9), seed=rng.randint(0, 10**6))
        graphs += 1
        oracle = build_reduction(graph, 1).oracle
        ids = list(range(1, n + 1))
        table = {
            frozenset(c): oracle.evaluate(c)
            for r in range(n + 1)
            for c in combinations(ids, r)
        }
        for s, value in table.items():
            for i in set(ids) - s:
                assert table[frozenset(s | {i})] - value in (0, 1, 2, 3)
        assert check_submodularity(oracle, ids) is None
        for k in range(1, n + 1):
            optimum, _ = brute_force_chains(build_reduction(graph, k))
            direct, _ = max_k_vertex_cover(graph, k)
            assert optimum == direct, (graph, k)
            pairs += 1
    _report(8, True, f"{graphs} graphs, {pairs} (graph, k) pairs all consistent")


def test_criterion_09_weight_greedy_is_optimal_on_matroid_rank_instances():
    """All-one coefficients + matroid rank oracle: greedy chain is optimal."""
    rng = random.Random(999)
    for trial in range(100):
        inst = make_matroid_rank_instance(rng.randint(1, 9), rng.randint(1, 3), rng)
        greedy_value = profit_phi(inst, greedy_matroid_chain(inst))
        report = solve_ik_aon(inst, solver="exact")
        assert greedy_value == report.phi, trial
    _report(9, True, "greedy == exact optimum on 100 matroid-rank instances")


def test_criterion_10_heuristic_never_beats_exact_and_stays_feasible():
    """Paired heuristic/exact runs: bounded above by exact, feasible always."""
    rng = random.Random(1010)
    ratios = []
    runs = 0
    for _ in range(120):
        fam = rng.choice(sorted(FAMILIES))
        inst = FAMILIES[fam](rng.randint(1, 12), rng.randint(1, 3), rng)
        heur = solve_ik_aon(inst, solver="heuristic", seed=rng.randint(0, 99))
        exact = solve_ik_aon(inst, solver="exact")
        assert is_feasible(inst, heur.chain)
        assert heur.phi <= exact.phi
        runs += 1
        if exact.phi:
            ratios.append(heur.phi / exact.phi)
    detail = (
        f"{runs} paired runs; heuristic/exact min={min(ratios):.3f} "
        f"mean={sum(ratios) / len(ratios):.3f}"
    )
    _report(10, True, detail)
