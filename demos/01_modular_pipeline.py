#!/usr/bin/env python3
"""Walk the full solve pipeline on a plain modular instance.

With modular profits every item set is independent, so modularization keeps
everything and the pipeline reduces to an exact multi-period knapsack solve.
"""

import random

from iknap import (
    brute_force_chains,
    make_modular_instance,
    solve_ik_aon,
    verify_solution,
)

rng = random.Random(7)
inst = make_modular_instance(n=8, horizon=3, rng=rng)
print("instance:", inst)
for it in inst.items:
    print(f"  item {it.id}: weight={it.weight} profit={it.profit}")

report = solve_ik_aon(inst, solver="exact")
print("\nsolver:", report.solver)
print("kept items:", report.kept_items, "(modular oracle keeps everything)")
print("chain:", report.chain)
print("profit:", report.phi, "| modular profit:", report.phi_bar)
print("oracle calls:", report.oracle_calls)

optimum, witness = brute_force_chains(inst)
print("\nbrute-force optimum:", optimum, "->", "match" if optimum == report.phi else "MISMATCH")

mismatches = verify_solution(inst, report.chain, report.phi, report.phi_bar)
print("independent recheck:", mismatches or "ok")
