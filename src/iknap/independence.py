"""Independence testing, cycle extraction, and per-profit-class bases.

A set S is independent when gamma(S) equals the plain profit sum p(S);
under a monotone submodular all-or-nothing oracle, independence is closed
under subsets and, within one profit class, forms a matroid.  That matroid
structure is what lets a plain greedy find the minimum-weight maximal
independent subset of each class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .errors import ChainNotIndependent, NotDependent, OracleViolation, SolverFailure
from .instances import Chain, Instance, Item
from .oracles import (
    EXCHANGE_EXHAUSTIVE_LIMIT,
    _CHECKER_SEED,
    _EXCHANGE_SAMPLES,
    _mask_to_set,
    grower_for,
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


@dataclass(frozen=True)
class ClassBasis:
    """A minimum-weight maximal independent subset of one profit class."""

    members: frozenset
    weight: int


def min_weight_basis(inst: Instance, class_items: Iterable[int]) -> ClassBasis:
    """Greedy basis of a profit class: weight-ascending, smallest id on ties.

    The independent subsets of a single profit class form a matroid, so the
    greedy output is maximal and of minimum total weight.  Sorts the class
    by id, then stably by weight, and runs the loop modularize shares.
    """
    order = sorted(map(inst.item, class_items), key=itemgetter(0))
    order.sort(key=itemgetter(1))
    return _greedy_basis(inst.oracle, order)


def _greedy_basis(oracle, run: Iterable[Item]) -> ClassBasis:
    """The greedy basis of items given in (weight, id) order, grown from empty.

    The basis B stays independent, so gamma(B) = p(B) and B + i is
    independent exactly when the gain of i over B is p_i; a larger gain
    means gamma(B + i) > p(B + i) and raises OracleViolation.  Costs
    exactly one oracle query per item: an incremental gain, or
    evaluate(B + i) for oracles without a grower.
    """
    gain, add = grower_for(oracle)
    basis: list[int] = []
    value = 0
    weight = 0
    for i, w, p in run:
        g = gain(i)
        if g > p:
            raise OracleViolation(
                f"gamma(S) = {value + g} > p(S) = {value + p} for S={sorted(basis + [i])}; "
                "oracle is outside the all-or-nothing class"
            )
        if g == p:
            add(i)
            basis.append(i)
            value += p
            weight += w
    return ClassBasis(frozenset(basis), weight)


def check_matroid_exchange(inst: Instance, class_items: Iterable[int]):
    """Probe the exchange property inside one profit class.

    For A within the class and independent S, S' within A with |S| < |S'|,
    some j in S' - S must keep S + j independent.  Exhaustive over all
    (A, S, S') for classes of size <= 8, seeded sampling otherwise; a
    sampled set is asked again each time it is drawn.  Returns None or a
    counterexample (S, S', A).
    """
    items = sorted(class_items)
    n = len(items)
    if n <= EXCHANGE_EXHAUSTIVE_LIMIT:
        ind = [is_independent(inst, _mask_to_set(m, items)) for m in range(1 << n)]
        for a_mask in range(1 << n):
            subs = []
            m = a_mask
            while True:  # enumerate submasks of a_mask
                if ind[m]:
                    subs.append(m)
                if m == 0:
                    break
                m = (m - 1) & a_mask
            by_size: dict[int, list[int]] = {}
            for m in subs:
                by_size.setdefault(bin(m).count("1"), []).append(m)
            for s_mask in subs:
                size = bin(s_mask).count("1")
                for bigger in range(size + 1, n + 1):
                    for s2_mask in by_size.get(bigger, ()):
                        diff = s2_mask & ~s_mask
                        ok = False
                        b = diff
                        while b:
                            low = b & -b
                            if ind[s_mask | low]:
                                ok = True
                                break
                            b ^= low
                        if not ok:
                            masks = (s_mask, s2_mask, a_mask)
                            return tuple(_mask_to_set(m, items) for m in masks)
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
            return s, s2, _mask_to_set(a_mask, items)
    return None


def restrict_chain_to_basis(
    inst: Instance,
    class_items: Iterable[int],
    basis: ClassBasis,
    chain: Chain,
) -> Chain:
    """Re-route an independent in-class chain through the class basis.

    Each S_t is replaced by the |S_t| lightest basis items (smaller id on
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
    order = sorted(basis.members, key=lambda i: (inst.weight_of(i), i))
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
