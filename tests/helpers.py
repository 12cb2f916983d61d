"""Shared test utilities.

The enumeration helpers here are definition-level oracles: they decide
maximality, minimum weight, and so on by brute force so the library's fast
paths are checked against something that cannot share their bugs.
"""

from __future__ import annotations

import random
from itertools import combinations

from iknap import AggregationOracle, Chain, Instance, Item, is_independent


def subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def maximal_independent_subsets(inst, items):
    """All inclusionwise maximal independent subsets, straight from the definition."""
    items = sorted(items)
    out = []
    for s in subsets(items):
        if not is_independent(inst, s):
            continue
        if any(is_independent(inst, s | {j}) for j in items if j not in s):
            continue
        out.append(s)
    return out


def single_class_instance(oracle, n, profit=1, weights=None, horizon=1, caps=None):
    """A bare instance wrapper for independence tests (capacities irrelevant)."""
    weights = weights if weights is not None else [1] * n
    items = [Item(i + 1, weights[i], profit) for i in range(n)]
    total = sum(weights)
    caps = caps if caps is not None else [total] * horizon
    return Instance(items, horizon, caps, [1] * horizon, oracle)


def supermodular_oracle():
    """Monotone but flagrantly supermodular: the pair {1, 2} is worth extra."""

    def fn(s):
        return len(s) + (10 if {1, 2} <= s else 0)

    return AggregationOracle(fn, {"kind": "adversarial-supermodular"})


def exchange_breaking_oracle():
    """All-or-nothing marginals but not submodular; exchange fails on {1,2} vs {3}.

    gamma: singletons 1, {1,2} -> 2, other pairs -> 1, triple -> 2.  Both
    {1,2} and {3} are maximal independent subsets of {1,2,3}, with
    different cardinalities.
    """
    values = {
        frozenset(): 0,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({3}): 1,
        frozenset({1, 2}): 2,
        frozenset({1, 3}): 1,
        frozenset({2, 3}): 1,
        frozenset({1, 2, 3}): 2,
    }
    return AggregationOracle(lambda s: values[s], {"kind": "adversarial-exchange"})


def random_independent_chain(inst, class_items, horizon, rng: random.Random) -> Chain:
    """A random independent chain inside one profit class (ignores capacities)."""
    items = sorted(class_items)
    rng.shuffle(items)
    final: set[int] = set()
    for i in items:
        if rng.random() < 0.8 and is_independent(inst, final | {i}):
            final.add(i)
    times = {i: rng.randint(1, horizon) for i in final}
    return Chain(horizon, times)


# A 2-item coverage instance whose every singleton equals its profit, so
# preprocessing and modularize keep both items, but gamma({1, 2}) = 2 < p = 3:
# the contract breaks only on the solver's chain {1, 2}, at the recheck.
RECHECK_ONLY_VIOLATION = {
    "n": 2,
    "T": 1,
    "weights": [1, 1],
    "profits": [1, 2],
    "capacities": [2],
    "deltas": [1],
    "oracle": {"kind": "coverage", "edges": [[0, 1], [1, 2]], "items": [1, 2], "vertices": [0, 1]},
}
