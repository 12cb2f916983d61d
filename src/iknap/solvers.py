"""Solvers for modular incremental knapsack instances.

A modular instance is an Instance priced by the plain profit sum; the
solvers read only its items, horizon, capacities and coefficients.
solve_exact is a depth-first branch-and-bound over per-item insertion
times; solve_heuristic is a density greedy plus seeded local search;
brute_force_chains is the deliberately unoptimized enumeration that serves
as ground truth for the test suites and benchmark ratios.  It applies no
value pruning at all, only exact feasibility pruning, so it stays
independent of the branch-and-bound's bounding logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterator, Sequence

from .errors import BudgetExceeded, LimitsExceeded
from .instances import Chain, Instance, Item, suffix_coefficients
from .oracles import _is_int


def earliest_period(resid: Sequence[int], w: int) -> int | None:
    """First 0-based period from which on weight w fits every residual, or None."""
    t = len(resid)
    while t and resid[t - 1] >= w:
        t -= 1
    return t if t < len(resid) else None


def _chain(horizon: int, ids: Sequence[int], times: Sequence[int]) -> Chain:
    """Chain from 0-based per-item periods, where period `horizon` means never."""
    return Chain(horizon, {ids[k]: t + 1 for k, t in enumerate(times) if t < horizon})


@dataclass
class SolveLimits:
    """Size limits and budgets.

    The exact-solver limits bound the size, not the time: inside these
    defaults (m=18 kept items, T=6) the median of 40 generated instances
    took 10 ms, but the worst took 22.1 s and 3.2 M nodes on a 2-core host.
    Setting them from measured worst cases is ROADMAP D2 step 4.
    """

    max_n_exact: int = 18
    max_t_exact: int = 6
    max_states_brute: int = 20_000_000
    local_search_budget: int = 2_000

    @staticmethod
    def from_mapping(pairs: dict) -> "SolveLimits":
        """Limits from key -> value pairs; a value is an int or a string of one.

        Floats and booleans raise ValueError instead of being truncated.
        """
        limits = SolveLimits()
        known = set(limits.__dataclass_fields__)
        for key, value in pairs.items():
            if key not in known:
                raise KeyError(f"unknown limits key {key!r}; known: {sorted(known)}")
            if isinstance(value, str):
                value = int(value)
            elif not _is_int(value):
                raise ValueError(f"limits key {key!r} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"limits key {key!r} must be >= 0, got {value}")
            setattr(limits, key, value)
        return limits


@dataclass
class SolveResult:
    """Outcome of one solver run; value always equals the chain's modular profit."""

    chain: Chain
    value: int
    optimal: bool
    nodes: int
    solver: str


def solve_exact(ik: Instance, limits: SolveLimits | None = None) -> SolveResult:
    """Optimal chain by branch-and-bound over per-item insertion times.

    Items are assigned a period in 1..T or "never", in descending p*D_1
    order.  Subtrees are pruned by (a) prefix-capacity infeasibility, (b) an
    integer bound placing every remaining item at its earliest individually
    feasible period, and (c) sum_t delta_t * floor(LP_t), the integer floors
    of the per-period fractional knapsacks over the unassigned items: with
    integer profits, whatever set is added by period t earns at most
    floor(LP_t).  All arithmetic is integer.  Fully deterministic.
    """
    limits = limits or SolveLimits()
    horizon = ik.horizon
    n = len(ik.items)
    if n > limits.max_n_exact:
        raise LimitsExceeded(f"n={n} exceeds max_n_exact={limits.max_n_exact}")
    if horizon > limits.max_t_exact:
        raise LimitsExceeded(f"T={horizon} exceeds max_t_exact={limits.max_t_exact}")
    caps = list(ik.capacities)
    dsum = suffix_coefficients(ik.deltas)
    deltas = list(ik.deltas)

    # Items heavier than the final capacity can never be inserted.
    order = sorted(
        (it for it in ik.items if it.weight <= caps[-1]),
        key=lambda it: (-it.profit * dsum[0], it.id),
    )
    m = len(order)
    ws = [it.weight for it in order]
    ps = [it.profit for it in order]

    def denser_first(a: int, b: int) -> int:
        return ps[b] * ws[a] - ps[a] * ws[b] or a - b

    # Positive-weight items in profit-density order, for bound (c).
    dens_pos = sorted((i for i in range(m) if ws[i] > 0), key=cmp_to_key(denser_first))

    never = horizon
    resid = caps[:]
    times = [never] * m
    assigned = [False] * m
    best_val = 0
    best_times = times[:]
    nodes = 0
    big = max(caps, default=0) + 1

    def fractional_bound(cur_val: int) -> int:
        zero_profit = sum(ps[i] for i in range(m) if not assigned[i] and ws[i] == 0)
        total = cur_val
        for t in range(horizon):
            d = deltas[t]
            if not d:
                continue
            fill = zero_profit
            room = resid[t]
            for i in dens_pos:
                if assigned[i]:
                    continue
                if ws[i] > room:
                    fill += ps[i] * room // ws[i]
                    break
                fill += ps[i]
                room -= ws[i]
            total += d * fill
        return total

    def dfs(idx: int, cur_val: int) -> None:
        nonlocal best_val, best_times, nodes
        nodes += 1
        if idx == m:
            if cur_val > best_val:
                best_val = cur_val
                best_times = times[:]
            return
        # msuf[t] = min residual capacity over periods t..T-1
        msuf = [big] * (horizon + 1)
        for t in range(horizon - 1, -1, -1):
            msuf[t] = resid[t] if resid[t] < msuf[t + 1] else msuf[t + 1]
        bound = cur_val
        for i in range(idx, m):
            w = ws[i]
            t = 0
            while msuf[t] < w:  # msuf[T] = big, and dsum[T] = 0 means "never"
                t += 1
            bound += ps[i] * dsum[t]
        if bound <= best_val:
            return
        if fractional_bound(cur_val) <= best_val:
            return
        w = ws[idx]
        earliest = 0
        while msuf[earliest] < w:
            earliest += 1
        assigned[idx] = True
        for t in range(earliest, horizon):
            for s in range(t, horizon):
                resid[s] -= w
            times[idx] = t
            dfs(idx + 1, cur_val + ps[idx] * dsum[t])
            for s in range(t, horizon):
                resid[s] += w
        times[idx] = never
        dfs(idx + 1, cur_val)
        assigned[idx] = False

    dfs(0, 0)
    chain = _chain(horizon, [it.id for it in order], best_times)
    return SolveResult(chain=chain, value=best_val, optimal=True, nodes=nodes, solver="exact")


def solve_heuristic(
    ik: Instance, seed: int = 0, limits: SolveLimits | None = None
) -> SolveResult:
    """Density greedy plus first-improvement local search.

    The greedy inserts items at their earliest feasible period: weight-0
    items first, then by p*D_1/w descending (compared exactly, by integer
    cross-multiplication), ties by id.  Local search then tries single-item
    time shifts, fresh inserts, and swaps of an inserted item for an
    uninserted one.  Each round numbers its moves arithmetically and draws
    them lazily, as a seeded random permutation (a sparse Fisher-Yates), so
    a round costs O(n + moves tried) time and memory.  A round ends at the
    first improving move; the search stops when a whole round finds none or
    local_search_budget moves have been tried.  Deterministic per seed, and
    never worse than the greedy value.
    """
    limits = limits or SolveLimits()
    horizon = ik.horizon
    caps = list(ik.capacities)
    dsum = suffix_coefficients(ik.deltas)
    rng = random.Random(seed)
    active = {it.id: it for it in ik.items if it.weight <= caps[-1]}

    resid = caps[:]
    time_of: dict[int, int] = {}

    def insert(i: int, t: int) -> None:
        w = active[i].weight
        for s in range(t, horizon):
            resid[s] -= w
        time_of[i] = t

    def remove(i: int) -> int:
        t = time_of.pop(i)
        w = active[i].weight
        for s in range(t, horizon):
            resid[s] += w
        return t

    def denser_first(a: Item, b: Item) -> int:
        return dsum[0] * (b.profit * a.weight - a.profit * b.weight) or a.id - b.id

    weightless = [active[i] for i in sorted(active) if active[i].weight == 0]
    weighted = sorted(
        (it for it in active.values() if it.weight), key=cmp_to_key(denser_first)
    )
    for it in weightless + weighted:
        t = earliest_period(resid, it.weight)
        if t is not None:
            insert(it.id, t)

    tried = 0
    budget = limits.local_search_budget
    per_item = horizon - 1  # shift targets of one inserted item
    improved = True
    while improved and tried < budget:
        improved = False
        inserted = sorted(time_of)
        outside = sorted(active.keys() - time_of.keys())
        k = len(inserted)
        # Move m < shifts moves inserted[m // per_item] to another period; the
        # rest come k + 1 per outside item: its insert, then a swap with each
        # inserted item.
        shifts = k * per_item
        total = shifts + len(outside) * (k + 1)
        displaced: dict[int, int] = {}  # sparse Fisher-Yates: slot r holds r unless listed
        for pos in range(min(total, budget - tried)):
            r = rng.randrange(pos, total)
            move = displaced.get(r, r)
            displaced[r] = displaced.pop(pos, pos)
            tried += 1
            if move < shifts:
                a = inserted[move // per_item]
                old = time_of[a]
                t = move % per_item
                if t >= old:
                    t += 1
                # Only an earlier period gains; it must fit up to the old one.
                gain = active[a].profit * (dsum[t] - dsum[old])
                if gain > 0 and min(resid[t:old]) >= active[a].weight:
                    remove(a)
                    insert(a, t)
                    improved = True
                    break
                continue
            j, s = divmod(move - shifts, k + 1)
            b = active[outside[j]]
            if s == 0:
                t = earliest_period(resid, b.weight)
                if t is not None and b.profit * dsum[t] > 0:
                    insert(b.id, t)
                    improved = True
                    break
                continue
            a = inserted[s - 1]
            loss = active[a].profit * dsum[time_of[a]]
            if b.profit * dsum[0] <= loss:
                continue  # even the earliest period cannot pay for the swap
            old = remove(a)
            t = earliest_period(resid, b.weight)
            if t is not None and b.profit * dsum[t] > loss:
                insert(b.id, t)
                improved = True
                break
            insert(a, old)

    chain = Chain(horizon, {i: t + 1 for i, t in time_of.items()})
    value = sum(active[i].profit * dsum[t] for i, t in time_of.items())
    return SolveResult(chain=chain, value=value, optimal=False, nodes=tried, solver="heuristic")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _feasible_vectors(
    inst: Instance, max_states: int | None
) -> tuple[list[int], Iterator[tuple[list[int], list[int]]]]:
    """Item ids and a DFS over every feasible insertion-time vector.

    Items are taken in id order and periods are 0-based with "never" = T,
    so vectors come in lexicographic order with "never" last.  Each vector
    comes with masks[t], the bitmask of the items (bit k = k-th id) inserted
    at period t.  Only provably infeasible prefixes are pruned.  Both lists
    are updated in place between yields; copy them to keep them.
    """
    horizon = inst.horizon
    n = len(inst.items)
    budget = max_states if max_states is not None else SolveLimits().max_states_brute
    if (horizon + 1) ** n > budget:
        raise BudgetExceeded(
            f"(T+1)^n = {(horizon + 1) ** n} assignments exceed budget {budget}"
        )
    items = sorted(inst.items, key=lambda it: it.id)
    ws = [it.weight for it in items]
    resid = list(inst.capacities)
    times = [horizon] * n
    masks = [0] * horizon

    def rec(idx: int) -> Iterator[tuple[list[int], list[int]]]:
        if idx == n:
            yield times, masks
            return
        w = ws[idx]
        earliest = earliest_period(resid, w)
        if earliest is not None:
            bit = 1 << idx
            for s in range(earliest, horizon):
                resid[s] -= w
            for t in range(earliest, horizon):
                times[idx] = t
                masks[t] |= bit
                yield from rec(idx + 1)
                masks[t] ^= bit
                resid[t] += w  # move the insertion one period later
            times[idx] = horizon
        yield from rec(idx + 1)

    return [it.id for it in items], rec(0)


def brute_force_chains(
    inst: Instance, max_states: int | None = None
) -> tuple[int, Chain]:
    """Ground-truth optimum by exhaustive insertion-time enumeration.

    Evaluates every feasible insertion-time vector through the aggregation
    oracle and returns the maximum value with the lexicographically smallest
    optimal vector ("never" ordered last).  Oracle values are cached per
    distinct set within a run.  Shares no bound with solve_exact.
    """
    ids, vectors = _feasible_vectors(inst, max_states)
    oracle = inst.oracle
    memo: dict[int, int] = {0: 0}
    best_val = -1
    best_times: list[int] = []
    for times, masks in vectors:
        total = 0
        mask = 0
        for t, d in enumerate(inst.deltas):
            mask |= masks[t]
            if d:
                v = memo.get(mask)
                if v is None:
                    v = oracle.evaluate(frozenset(ids[b] for b in _bits(mask)))
                    memo[mask] = v
                total += d * v
        if total > best_val:
            best_val = total
            best_times = times[:]
    return best_val, _chain(inst.horizon, ids, best_times)


def iter_feasible_chains(
    inst: Instance, max_states: int | None = None
) -> Iterator[Chain]:
    """Yield every feasible chain of a small instance (test utility)."""
    ids, vectors = _feasible_vectors(inst, max_states)
    for times, _ in vectors:
        yield _chain(inst.horizon, ids, times)
