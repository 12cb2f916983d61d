#!/usr/bin/env python3
"""Build cover-maximization instances from subcubic graphs and round-trip them.

Vertex v becomes the unit-weight item v + 1, the single capacity is the cover
budget k, and the oracle counts covered edges.  Coverage marginals on a
degree-<=3 graph stay in {0,1,2,3} and the function is monotone submodular,
yet it breaks the all-or-nothing contract as soon as some vertex has degree
two, so these instances sit outside the pipeline's solvable class and are
handled by enumeration.
"""

from iknap import (
    brute_force_chains,
    build_reduction,
    check_aon_property,
    check_submodularity,
    extract_cover,
    generate_subcubic,
    max_k_vertex_cover,
    preprocess_singletons,
)

graph = generate_subcubic(n=9, edge_prob=0.55, seed=4)
print(f"graph: {graph.n_vertices} vertices, edges {list(graph.edges)}")

for k in (1, 2, 3):
    inst = build_reduction(graph, k)
    optimum, chain = brute_force_chains(inst)
    vertices, covered = extract_cover(inst, chain)
    direct, direct_set = max_k_vertex_cover(graph, k)
    status = "ok" if covered == direct == optimum else "MISMATCH"
    print(
        f"k={k}: cover {sorted(vertices)} covers {covered} edges "
        f"(direct enumeration: {direct} via {sorted(direct_set)}) [{status}]"
    )

oracle = build_reduction(graph, 1).oracle
ids = list(range(1, graph.n_vertices + 1))
profits = {i: 1 for i in ids}
print("\nsubmodular:", "yes" if check_submodularity(oracle, ids) is None else "no")
witness = check_aon_property(oracle, profits, ids)
print("all-or-nothing:", "yes" if witness is None else f"no, e.g. {witness}")
try:
    preprocess_singletons(build_reduction(graph, 1))
except Exception as exc:
    print(f"pipeline preprocessing refuses it: {type(exc).__name__}: {exc}")
