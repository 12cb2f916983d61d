"""Independence testing, cycle extraction, and per-profit-class bases.

A set S is independent when gamma(S) equals the plain profit sum p(S);
under a monotone submodular all-or-nothing oracle, independence is closed
under subsets and, within one profit class, forms a matroid.  That matroid
structure is what lets a plain greedy find the minimum-weight maximal
independent subset of each class.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Iterable

from .errors import ChainNotIndependent, NotDependent, OracleViolation, SolverFailure
from .instances import Chain, Instance, Item
from .oracles import (
    EXCHANGE_EXHAUSTIVE_LIMIT,
    _CHECKER_SEED,
    _EXCHANGE_SAMPLES,
    _mask_to_set,
    greedy_kept,
)


def is_independent(inst: Instance, items: Iterable[int]) -> bool:
    """gamma(S) == p(S), with exactly one oracle call.

    Raises OracleViolation when gamma(S) > p(S), which no all-or-nothing
    oracle allows.
    """
    s = frozenset(items)
    p = sum(inst.profit_of(i) for i in s)
    g = inst.oracle.evaluate(s)
    if g > p:
        raise OracleViolation(
            f"gamma(S) = {g} > p(S) = {p} for S={sorted(s)}; "
            "oracle is outside the all-or-nothing class"
        )
    return g == p


def find_cycle(inst: Instance, items: Iterable[int]) -> frozenset:
    """Shrink a dependent set to a cycle (dependent, all one-deletions independent).

    One descending-id pass: an item is removed whenever the set stays
    dependent without it.  Keep decisions stay valid as the set shrinks
    because independence is closed under subsets, so a single pass reaches
    minimality, and larger ids are discarded first (small-id tie-break).
    """
    c = frozenset(items)
    if is_independent(inst, c):
        raise NotDependent(f"{sorted(c)} is independent; it contains no cycle")
    for i in sorted(c, reverse=True):
        rest = c - {i}
        if not is_independent(inst, rest):
            c = rest
    return c


def min_weight_basis(inst: Instance, class_items: Iterable[int]) -> tuple[Item, ...]:
    """Greedy basis of a profit class: weight-ascending, smallest id on ties.

    The independent subsets of a single profit class form a matroid, so the
    greedy output is maximal and of minimum total weight.  Makes
    modularize's greedy_kept() call on the class, one oracle query per
    item, whatever order class_items comes in.  Returns the basis items in
    greedy (weight, id) order: greedy_kept()'s id order, stably by weight.
    """
    basis = greedy_kept(inst.oracle, list(map(inst.item, class_items)))
    basis.sort(key=itemgetter(1))
    return tuple(basis)


def check_matroid_exchange(inst: Instance, class_items: Iterable[int]):
    """Probe the exchange axiom inside one profit class.

    For independent S, S' within the class with |S| < |S'|, some j in
    S' - S must keep S + j independent.  Classes of size <= 8 are checked
    exhaustively: one independence test per subset, 2^n oracle calls, then
    every pair of independent sets.  Larger classes draw S and S' inside a
    common seeded random subset, asking a set again each time it is drawn.
    Returns None or a counterexample (S, S', S | S') in both modes.
    """
    items = sorted(class_items)
    n = len(items)
    if n <= EXCHANGE_EXHAUSTIVE_LIMIT:
        ind = [is_independent(inst, _mask_to_set(m, items)) for m in range(1 << n)]
        masks = [(m, bin(m).count("1")) for m in range(1 << n) if ind[m]]
        for s_mask, size in masks:
            for s2_mask, size2 in masks:
                diff = s2_mask & ~s_mask
                if size < size2 and not any(
                    ind[s_mask | 1 << b] for b in range(n) if diff >> b & 1
                ):
                    s, s2 = _mask_to_set(s_mask, items), _mask_to_set(s2_mask, items)
                    return s, s2, s | s2
        return None

    rng = random.Random(_CHECKER_SEED)
    for _ in range(_EXCHANGE_SAMPLES):
        a_mask = rng.getrandbits(n)
        s_mask = a_mask & rng.getrandbits(n)
        s2_mask = a_mask & rng.getrandbits(n)
        if bin(s_mask).count("1") >= bin(s2_mask).count("1"):
            continue
        s, s2 = _mask_to_set(s_mask, items), _mask_to_set(s2_mask, items)
        if not (is_independent(inst, s) and is_independent(inst, s2)):
            continue
        if not any(is_independent(inst, s | {j}) for j in s2 - s):
            return s, s2, s | s2
    return None


def restrict_chain_to_basis(
    inst: Instance,
    class_items: Iterable[int],
    basis: tuple[Item, ...],
    chain: Chain,
) -> Chain:
    """Re-route an independent in-class chain through the class basis.

    basis is the class's min_weight_basis(), in its greedy order.  Each S_t
    is replaced by the first |S_t| basis items, the lightest (smaller id on
    ties); the result has the same gamma value and no more weight at every
    period.
    """
    class_items = frozenset(class_items)
    if not chain.final_set <= class_items:
        raise ValueError("chain leaves the profit class")
    if not is_independent(inst, chain.final_set):
        raise ChainNotIndependent(
            f"chain's final set {sorted(chain.final_set)} is dependent"
        )
    order = list(map(itemgetter(0), basis))
    sets = []
    for s in chain.sets():
        if len(s) > len(order):
            raise SolverFailure(
                "independent set larger than the class basis; basis is not maximal"
            )
        sets.append(order[: len(s)])
    return Chain.from_sets(sets)


def greedy_matroid_chain(inst: Instance) -> Chain:
    """Weight-ascending greedy chain.

    Scans items by (weight, id) once per period and inserts whatever still
    fits and keeps the knapsack content independent.  Optimal for instances
    whose oracle is a matroid rank function and whose coefficients are all
    one; a cheap baseline otherwise.  Costs one oracle call per fitting
    item per period, repeated sets included.
    """
    order = sorted(inst.item_ids, key=lambda i: (inst.weight_of(i), i))
    current: set[int] = set()
    weight = 0
    times: dict[int, int] = {}
    for t in range(1, inst.horizon + 1):
        cap = inst.capacities[t - 1]
        for i in order:
            if i in times:
                continue
            w = inst.weight_of(i)
            if weight + w <= cap and is_independent(inst, current | {i}):
                current.add(i)
                weight += w
                times[i] = t
    return Chain(inst.horizon, times)
