#!/usr/bin/env python3
"""Step through the reduction on a class-structured instance.

The oracle prices each profit class through its own matroid, so some items
are perfect substitutes for one another.  Modularization keeps, per class,
a cheapest maximal set of non-substitutes; on the kept items the oracle
profit and the plain profit sum agree on every feasible chain.
"""

import random

from iknap import (
    is_independent,
    iter_feasible_chains,
    make_partition_classes_instance,
    min_weight_basis,
    modularize,
    preprocess_singletons,
    profit_partition,
    profit_phi,
    profit_phi_bar,
    solve_ik_aon,
)

rng = random.Random(41)
inst = make_partition_classes_instance(n=7, horizon=2, rng=rng)
print("instance:", inst)

reduced, dropped = preprocess_singletons(inst)
print("dropped by preprocessing (zero-value singletons):", dropped or "none")

partition = profit_partition(reduced)
for p, members in partition:
    print(f"profit class p={p}: items {sorted(members)}")

for index, (_, members) in enumerate(partition, start=1):
    basis = min_weight_basis(reduced, members)  # the kept items, lightest first
    print(
        f"class {index}: kept {sorted(it.id for it in basis)} "
        f"(total weight {sum(it.weight for it in basis)})"
    )

mod = modularize(reduced)
print("modular instance:", mod.ik)

print("kept set independent:", is_independent(reduced, mod.kept_ids))

agree = all(
    profit_phi(reduced, chain)
    == profit_phi_bar(reduced.profits_by_id, reduced.deltas, chain)
    for chain in iter_feasible_chains(mod.ik)
)
print("oracle profit == modular profit on every feasible kept chain:", agree)

report = solve_ik_aon(inst, solver="exact")
print("\npipeline result:", report.chain, "profit", report.phi)
