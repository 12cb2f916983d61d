"""Workloads and their seeded corpora.

A corpus is a list of cases.  Each case holds the instance as JSON text,
which is all the program sees, plus what the answer checks need: the
generator-side instance and a reference value computed here without
``iknap.solvers`` or ``iknap.modularize``.

A corpus is built with ``iknap.generators``, which is set-up only and never
measured, and ``serialize.instance_to_obj``, to write the JSON the program
reads as ``iknap generate`` does.  ``iknap.cli`` (a thin argparse layer) and
``iknap.hardness`` (its instances break the all-or-nothing contract by
design) are not measured either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

from iknap.generators import make_family_instance
from iknap.instances import Instance
from iknap.serialize import dumps_canonical, instance_to_obj

CLASS_FAMILIES = ("uniform-classes", "partition-classes", "graphic-classes")
ALL_FAMILIES = ("modular",) + CLASS_FAMILIES


@dataclass(frozen=True)
class Workload:
    """One corpus recipe plus the solver every operation names explicitly.

    Case k of a corpus takes the k-th combination, in round-robin order, of
    family, n, T and (for class families) the number of profit classes.
    Fixing the mix this way keeps the seed from changing how much work a
    corpus holds; the seed only draws the instances inside each slot.
    """

    name: str
    solver: str
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    horizons: tuple[int, ...]
    class_counts: tuple[int, ...]
    corpus: int
    optimal_reference: bool

    def slot(self, k: int) -> tuple[str, int, int, int | None]:
        f, s, h = len(self.families), len(self.sizes), len(self.horizons)
        family = self.families[k % f]
        n = self.sizes[k // f % s]
        horizon = self.horizons[k // (f * s) % h]
        classes = None
        if family != "modular" and self.class_counts:
            classes = self.class_counts[k // (f * s * h) % len(self.class_counts)]
        return family, n, horizon, classes


# Sizes are set for steady runs on a 2-core host whose speed drifts.  The
# branch-and-bound's cost per instance is heavy-tailed (a few instances take
# 100x the median), so exact-bb uses many small instances: with n up to 18,
# single instances took seconds and one corpus could not be timed steadily.
# The large-n workloads hold one fixed mix of families and class counts so
# that the seed does not change how much work a corpus holds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-bb",
            solver="exact",
            families=ALL_FAMILIES,
            sizes=(6, 7, 8, 9),
            horizons=(3, 4),
            class_counts=(),
            corpus=9000,
            optimal_reference=True,
        ),
        Workload(
            name="reduce-large",
            solver="heuristic",
            families=("graphic-classes", "partition-classes", "uniform-classes"),
            sizes=(400,),
            horizons=(4,),
            class_counts=(1, 2, 3, 4),
            corpus=192,
            optimal_reference=False,
        ),
        Workload(
            name="heuristic-large",
            solver="heuristic",
            families=("modular",),
            sizes=(800,),
            horizons=(4,),
            class_counts=(),
            corpus=40,
            optimal_reference=False,
        ),
    )
}

#: Toy sizes for the self-test: every family, every workload, seconds to run.
TOY_WORKLOADS = {
    "exact-bb": replace(WORKLOADS["exact-bb"], sizes=(4, 6), corpus=16),
    "reduce-large": replace(WORKLOADS["reduce-large"], sizes=(40,), corpus=12),
    "heuristic-large": replace(WORKLOADS["heuristic-large"], sizes=(40,), corpus=4),
}


@dataclass
class Case:
    """One instance of a corpus and everything its answer is checked against."""

    text: str
    instance: Instance
    solver_seed: int
    reference: Fraction
    basis: frozenset | None


def _class_count(inst: Instance) -> int:
    return len(inst.oracle.descriptor.get("classes", ()))


def iter_corpus(workload: Workload, seed: int) -> Iterator[Case]:
    """The same seed always gives the same corpus, byte for byte."""
    master = random.Random(seed)
    for k in range(workload.corpus):
        family, n, horizon, classes = workload.slot(k)
        while True:
            inst = make_family_instance(
                family, n, horizon, random.Random(master.getrandbits(64))
            )
            if classes is None or _class_count(inst) == classes:
                break
        text = dumps_canonical(instance_to_obj(inst))
        if workload.optimal_reference:
            basis = greedy_basis(inst)
            kept = [inst.item(i) for i in sorted(basis)]
            reference = Fraction(
                best_chain_value(
                    [it.weight for it in kept],
                    [it.profit for it in kept],
                    inst.capacities,
                    inst.deltas,
                )
            )
        else:
            basis = None
            reference = fractional_upper_bound(inst)
        yield Case(text, inst, master.randrange(1 << 30), reference, basis)


def greedy_basis(inst: Instance) -> frozenset:
    """Union of per-profit-class greedy bases, tested with direct oracle calls.

    Within a class, items go in (weight, id) order and an item is kept when
    gamma(B + i) = p(B + i); by the matroid structure of each class this is
    the minimum-weight basis the reduction keeps.
    """
    classes: dict[int, list] = {}
    for it in inst.items:
        classes.setdefault(it.profit, []).append(it)
    kept: list[int] = []
    for profit, members in classes.items():
        basis: list[int] = []
        for it in sorted(members, key=lambda it: (it.weight, it.id)):
            if inst.oracle.evaluate(basis + [it.id]) == profit * (len(basis) + 1):
                basis.append(it.id)
        kept.extend(basis)
    return frozenset(kept)


def best_chain_value(weights, profits, capacities, deltas) -> int:
    """Optimal modular chain value by dynamic programming over item subsets.

    f_t(S) = delta_t * p(S) + max over supersets S' of S of f_{t+1}(S'),
    defined where w(S) <= W_t; the answer is the best f_1 over all sets.
    The superset maximum is a per-bit sweep over the 2^m subset table.
    Exact integer arithmetic; meant for m up to about 20 items.
    """
    import numpy as np

    m = len(weights)
    size = 1 << m
    w = np.zeros(size, dtype=np.int64)
    p = np.zeros(size, dtype=np.int64)
    for b in range(m):
        lo = 1 << b
        w[lo : 2 * lo] = w[:lo] + weights[b]
        p[lo : 2 * lo] = p[:lo] + profits[b]
    infeasible = np.int64(-(1 << 60))
    best = np.zeros(size, dtype=np.int64)
    for t in reversed(range(len(capacities))):
        f = np.where(w <= capacities[t], deltas[t] * p + best, infeasible)
        for b in range(m):
            pairs = f.reshape(-1, 2, 1 << b)
            np.maximum(pairs[:, 0, :], pairs[:, 1, :], out=pairs[:, 0, :])
        best = f
    return int(best[0])


def fractional_upper_bound(inst: Instance) -> Fraction:
    """sum_t delta_t * LP_t over all items, LP_t the fractional knapsack at W_t.

    gamma(S) <= p(S), so this bounds the value of every feasible chain.
    """
    free = sum(it.profit for it in inst.items if it.weight == 0)
    dense = sorted(
        (it for it in inst.items if it.weight > 0),
        key=lambda it: (-Fraction(it.profit, it.weight), it.id),
    )
    total = Fraction(0)
    for cap, delta in zip(inst.capacities, inst.deltas):
        if not delta:
            continue
        fill = Fraction(free)
        room = cap
        for it in dense:
            if it.weight <= room:
                fill += it.profit
                room -= it.weight
            else:
                fill += Fraction(it.profit * room, it.weight)
                break
        total += delta * fill
    return total
