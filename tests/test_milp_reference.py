"""solve_exact and the whole pipeline against MILP optima at 20-40 kept items.

Past the reach of the subset DP and of brute force on the original instance.
"""

import random

import pytest

pytest.importorskip("scipy")

from iknap import (
    Item,
    LimitsExceeded,
    SolveLimits,
    is_feasible,
    modularize,
    preprocess_singletons,
    profit_phi,
    profit_phi_bar,
    solve_exact,
    solve_ik_aon,
)
from iknap.generators import FAMILIES
from milp_reference import aon_milp_optimum, milp_optimum
from test_solvers import is_feasible_ik, modular, random_ik, subset_dp_optimum


def test_reference_matches_the_subset_dp():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_ik(rng, n_max=10, t_max=4)
        value, chain = milp_optimum(inst)
        assert value == subset_dp_optimum(inst)
        assert is_feasible_ik(inst, chain)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_solve_exact_matches_the_milp_at_20_to_40_kept_items(family, capfd):
    # Every other case also gets a weight-0 item, an item heavier than W_T
    # and a zero delta.
    rng = random.Random(f"milp/{family}")
    limits = SolveLimits(max_n_exact=40, max_t_exact=5)
    seen = {"weightless": 0, "too_heavy": 0, "zero_delta": 0}
    for k in range(4):
        reduced = None
        while reduced is None or not 20 <= len(reduced) <= 40:
            inst = FAMILIES[family](rng.randint(20, 60), 3 + k % 3, rng)
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
        result = solve_exact(inst, limits)
        assert result.value == milp_optimum(inst)[0]
        assert is_feasible_ik(inst, result.chain)
        assert profit_phi_bar(inst.profits_by_id, deltas, result.chain) == result.value
    assert min(seen.values()) >= 2, seen
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("family", ["uniform-classes", "partition-classes", "graphic-classes"])
def test_the_pipeline_matches_the_milp_on_the_original_instance(family, capfd):
    # The MILP prices each S_t by an independent set of each class inside it,
    # so the reduction is checked too.
    rng = random.Random(f"aon-milp/{family}")
    limits = SolveLimits(max_n_exact=40, max_t_exact=5)
    capped = 0
    for k in range(8):
        while True:
            inst = FAMILIES[family](rng.randint(20, 60), 3 + k % 3, rng)
            try:
                report = solve_ik_aon(inst, solver="exact", limits=limits)
            except LimitsExceeded:  # more than 40 kept items
                continue
            if len(report.kept_items) >= 20:
                break
        value, chain = aon_milp_optimum(inst)
        assert report.phi == value
        assert is_feasible(inst, chain)
        assert profit_phi(inst, chain) == value
        plain = modular(inst.items, inst.horizon, inst.capacities, inst.deltas)
        capped += milp_optimum(plain)[0] > value
    assert capped >= 4  # the class caps bind: the plain profit sum is worth more
    assert capfd.readouterr().out == ""
