"""Vertex-cover reduction instances on subcubic graphs.

Max k-vertex cover on a degree-<=3 graph embeds into a one-period instance
with one unit-weight item per vertex (item v + 1 is vertex v), capacity k,
and an edge-coverage oracle.  Coverage marginals on subcubic graphs lie in
{0,1,2,3}, and the oracle is monotone submodular, but it is generally NOT
all-or-nothing: a degree-2 vertex added to the empty set contributes 2, not
its unit profit.  These instances are therefore exercised through the
brute-force path, not the modularization pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import BadK, InfeasibleChain, NotSubcubic
from .instances import Chain, Instance, Item, is_feasible
from .oracles import _parse_int, coverage_oracle

MAX_DEGREE = 3
#: read_edge_list refuses a header with more vertices, before a per-vertex list
#: is built.  reduce-vc holds about 1 KB per vertex (a 100,000-vertex path graph
#: peaked at 108 MB RSS and wrote an 8.6 MB instance), so the cap keeps a run
#: near 1 GB; a count read off a damaged header would otherwise end in MemoryError.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class SubcubicGraph:
    """A simple graph with maximum degree 3; vertices are 0-based."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise NotSubcubic(f"negative vertex count {self.n_vertices}")
        degree = [0] * self.n_vertices
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if u == v:
                raise NotSubcubic(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise NotSubcubic(f"edge ({u}, {v}) outside vertex range")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise NotSubcubic(f"parallel edge {e}")
            seen.add(e)
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, d in enumerate(degree) if d > MAX_DEGREE]
        if bad:
            raise NotSubcubic(f"vertices {bad} have degree > {MAX_DEGREE}")


def build_reduction(g: SubcubicGraph, k: int, horizon: int = 1) -> Instance:
    """Instance with one unit-weight, unit-profit item per vertex: item v + 1 is vertex v.

    The standard construction uses one period with capacity k and
    coefficient 1, so a chain's profit is exactly the cover value of its
    vertex set.  A longer horizon (constant capacity, unit coefficients) is
    exposed for experimentation only; no claims are attached to it.
    """
    if not 1 <= k <= g.n_vertices:
        raise BadK(f"k={k} outside 1..{g.n_vertices}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    items = [Item(id=v + 1, weight=1, profit=1) for v in range(g.n_vertices)]
    oracle = coverage_oracle(g.edges, {v + 1: v for v in range(g.n_vertices)})
    return Instance(
        items,
        horizon=horizon,
        capacities=(k,) * horizon,
        deltas=(1,) * horizon,
        oracle=oracle,
    )


def extract_cover(inst: Instance, chain: Chain) -> tuple[frozenset, int]:
    """Map a feasible chain back to (vertex set, number of covered edges).

    Item v + 1 is vertex v.  The cover is read off the first period; for the
    standard one-period construction the covered-edge count equals the
    chain's profit.
    """
    if chain.horizon != inst.horizon or not is_feasible(inst, chain):
        raise InfeasibleChain(f"chain {chain!r} is not feasible for the reduction")
    first = chain.set_at(1)
    return frozenset(i - 1 for i in first), inst.oracle.evaluate(first)


def generate_subcubic(n: int, edge_prob: float = 0.5, seed: int = 0) -> SubcubicGraph:
    """Random simple graph with all degrees <= 3; deterministic per seed.

    Candidate pairs are visited in a seeded random order and each is kept
    with probability edge_prob while both endpoints still have degree room.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    degree = [0] * n
    edges = []
    for u, v in candidates:
        if degree[u] < MAX_DEGREE and degree[v] < MAX_DEGREE and rng.random() < edge_prob:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return SubcubicGraph(n, tuple(sorted(edges)))


def max_k_vertex_cover(g: SubcubicGraph, k: int) -> tuple[int, frozenset]:
    """Brute-force max k-vertex cover by direct subset enumeration.

    Independent of the oracle machinery on purpose: edges are counted by a
    plain scan for every candidate vertex subset.
    """
    if not 1 <= k <= g.n_vertices:
        raise BadK(f"k={k} outside 1..{g.n_vertices}")
    best = -1
    best_set: frozenset = frozenset()
    for subset in combinations(range(g.n_vertices), k):
        chosen = set(subset)
        covered = sum(1 for u, v in g.edges if u in chosen or v in chosen)
        if covered > best:
            best = covered
            best_set = frozenset(subset)
    return best, best_set


def write_edge_list(g: SubcubicGraph, path) -> None:
    """Text format: header "n m", then one "u v" line per edge, 0-based."""
    lines = [f"{g.n_vertices} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path) -> SubcubicGraph:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'n m' header")
    n, m = (_parse_int(token, f"{path}: token") for token in tokens[:2])
    if n < 0 or m < 0:
        raise ValueError(f"{path}: negative count in 'n m' header {n} {m}")
    if n > MAX_VERTICES:
        raise ValueError(f"{path}: vertex count {n} in 'n m' header above {MAX_VERTICES:,}")
    flat = tokens[2:]
    if len(flat) != 2 * m:
        raise ValueError(f"{path}: expected {2 * m} endpoints, found {len(flat)}")
    ends = [_parse_int(token, f"{path}: token") for token in flat]
    return SubcubicGraph(n, tuple(zip(ends[::2], ends[1::2])))
