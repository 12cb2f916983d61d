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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, LimitsExceeded
from .instances import Chain, Instance, suffix_coefficients
from .oracles import _is_int, _mask_to_set, _parse_int


def earliest_period(resid: Sequence[int], w: int) -> int | None:
    """First 0-based period from which on weight w fits every residual, or None."""
    t = len(resid)
    while t and resid[t - 1] >= w:
        t -= 1
    return t if t < len(resid) else None


def _chain(horizon: int, ids: Sequence[int], times: Sequence[int]) -> Chain:
    """Chain from 0-based per-item periods, where period `horizon` means never."""
    return Chain(horizon, {i: t + 1 for i, t in zip(ids, times) if t < horizon})


# Longest step list knapsack_steps keeps per suffix, so a build handles at
# most 2*STEPS pairs per item, whatever the weights.  Set from build time:
# with w_i = p_i = 2^i, where every subset is a step, m=18 items build in
# 12 ms on a 2-core host, under the slowest of the 40 n=18 solves in
# SolveLimits; 4096 took 41 ms.
STEPS = 1024


def knapsack_steps(
    ws: Sequence[int], ps: Sequence[int], cap: int
) -> list[tuple[list[int], list[int]]]:
    """Per suffix of the items, steps bounding its 0/1 knapsack optimum.

    Entry k holds a weight list and a profit list, both strictly rising,
    the weights from 0.  For every room r in 0..cap, the profit at the last
    weight <= r is at least the best profit of a subset of items k..
    weighing at most r.  While no list exceeds STEPS pairs it is exactly
    that best profit: entry k lists the (weight, profit) pairs of the
    subsets no heavier than cap that earn more than every lighter subset
    (Nemhauser and Ullmann, 1969), built as entry k+1 merged with entry k+1
    shifted by (ws[k], ps[k]).  A longer list is halved until it fits, each
    two neighbours merged into (lighter weight, heavier profit).  That can
    only raise the value at any room, and an entry built from raised values
    bounds its suffix too, so every entry stays an upper bound.
    """
    row = [(0, 0)]
    steps = [([0], [0])]
    for w, p in zip(reversed(ws), reversed(ps)):
        shifted = [(a + w, b + p) for a, b in row if a + w <= cap]
        # By weight, then profit: a pair of the last kept weight replaces it.
        merged = sorted(row + shifted)
        row = merged[:1]
        for a, b in merged:
            if b > row[-1][1]:
                if a == row[-1][0]:
                    row[-1] = (a, b)
                else:
                    row.append((a, b))
        while len(row) > STEPS:
            row = [(a, b) for (a, _), (_, b) in zip(row[::2], row[1::2] + row[-1:])]
        steps.append(([a for a, _ in row], [b for _, b in row]))
    return steps[::-1]


@dataclass
class SolveLimits:
    """Size limits and budgets.

    The exact-solver limits bound the size, not the time: inside these
    defaults (m=18 kept items, T=6), 40 generated instances (four families,
    seeds 100-109) took a median of 0.6 ms and at worst 16 ms and 5,019
    nodes (16,759 nodes in all) on a 2-core host.  Replacing both with one
    max_nodes_exact set from measured worst cases is ROADMAP D14.
    max_n_exact is the only bound on the kept item count m.  What grows
    with m is knapsack_steps, at most 2*STEPS ints per item: `iknap solve`
    on unit items that all fit (T=1, Python 3.11, 2-core host) took 0.33 s
    and 29 MB peak RSS at m=1,200, 0.94 s and 73 MB at m=3,000, and 1.7 s
    and 122 MB at m=5,000.
    """

    max_n_exact: int = 18
    max_t_exact: int = 6
    max_states_brute: int = 20_000_000
    local_search_budget: int = 2_000

    @staticmethod
    def from_mapping(pairs: dict) -> "SolveLimits":
        """Limits from key -> value pairs; a value is an int or a string of one.

        A string must be ASCII digits after an optional minus, as in a graph
        file.  Floats, booleans and other strings raise ValueError instead
        of being truncated or read loosely.
        """
        limits = SolveLimits()
        known = set(limits.__dataclass_fields__)
        for key, value in pairs.items():
            if key not in known:
                raise KeyError(f"unknown limits key {key!r}; known: {sorted(known)}")
            if isinstance(value, str):
                value = _parse_int(value, f"limits key {key!r}")
            elif not _is_int(value):
                raise ValueError(f"limits key {key!r} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"limits key {key!r} must be >= 0, got {value}")
            setattr(limits, key, value)
        return limits


@dataclass
class SolveResult:
    """Outcome of one solver run; value always equals the chain's modular profit.

    nodes counts search-tree nodes for solve_exact; for solve_heuristic it
    counts local-search moves tried or ruled out by some_move_gains (the
    brute-force path reports 0).
    """

    chain: Chain
    value: int
    optimal: bool
    nodes: int
    solver: str


def solve_exact(ik: Instance, limits: SolveLimits | None = None) -> SolveResult:
    """Optimal chain by branch-and-bound over per-item insertion times.

    Items are assigned a period in 1..T or "never", in descending p*D_1
    order, so at depth k the unassigned items are the last m-k of that
    order.  Subtrees are pruned by (a) prefix-capacity infeasibility: an
    item only tries periods from which on it fits every residual.  (b) The
    bound sum_t delta_t * K_t, K_t the 0/1 knapsack of the unassigned items
    at the least residual over periods t..T, read from knapsack_steps once
    per live period.  Chains are nested, so whatever set is added by period
    t stays in every later period and must fit that least residual, and so
    earns at most K_t.  Steps merged to fit STEPS only read higher, so the
    bound stays valid and prunes no leaf better than the incumbent.
    (c) Dominance: item i dominates j when i comes earlier in the order,
    w_i <= w_j and p_i >= p_j.  Swapping the times of a dominated pair with
    t_j < t_i frees weight in every period between them and changes the
    profit by (p_i - p_j)(D_{t_j} - D_{t_i}) >= 0, so some optimum inserts
    every item no earlier than its dominators, and j only tries times from
    the latest one already given to a dominator on ("never" last, so a
    dominator left out leaves j out).  Only earlier items count, so equal
    items cannot form a cycle.  D_1 > 0 orders by descending profit, so
    that floor is the latest period on the path of an earlier item no
    heavier than w_j; with D_1 = 0 the root's bound of 0 prunes it first.
    The search is one loop over depth k: times[k] is the period item k is
    tried at ("never" off the path), vals[k] the value of the items before
    k.  On a leaf or a prune it moves the deepest item not yet at "never"
    one period later, so its depth is not bounded by the interpreter's
    recursion limit.  All arithmetic is integer.  Fully deterministic; among
    equal-value optima the first found in that search order is returned.
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
    live = [(t, d) for t, d in enumerate(ik.deltas) if d]

    # Items heavier than the final capacity can never be inserted.
    order = sorted(
        (it for it in ik.items if it.weight <= caps[-1]),
        key=lambda it: (-it.profit * dsum[0], it.id),
    )
    m = len(order)
    ws = [it.weight for it in order]
    ps = [it.profit for it in order]
    steps = knapsack_steps(ws, ps, caps[-1])

    never = horizon
    resid = caps[:]
    times = [never] * m
    vals = [0] * (m + 1)
    best_val = 0
    best_times = times[:]
    nodes = 0
    k = 0
    while True:
        nodes += 1
        if k == m:
            if vals[m] > best_val:
                best_val = vals[m]
                best_times = times[:]
        else:
            # msuf[t] = min residual capacity over periods t..T-1, non-decreasing.
            msuf = resid[:]
            for t in range(horizon - 2, -1, -1):
                if msuf[t + 1] < msuf[t]:
                    msuf[t] = msuf[t + 1]
            sw, sp = steps[k]
            bound = vals[k]
            for t, d in live:
                bound += d * sp[bisect_right(sw, msuf[t]) - 1]
            if bound > best_val:
                w = ws[k]
                # The earliest period w fits from on (T: never), then the floor.
                first = bisect_left(msuf, w)
                for t, v in zip(times, ws[:k]):
                    if t > first and v <= w:
                        first = t
                for t in range(first, horizon):
                    resid[t] -= w
                times[k] = first
                vals[k + 1] = vals[k] + ps[k] * dsum[first]
                k += 1
                continue
        # Leaf or prune: move the deepest item not yet at never one period later.
        k -= 1
        while k >= 0 and times[k] == never:
            k -= 1
        if k < 0:
            break
        t = times[k]
        resid[t] += ws[k]
        times[k] = t + 1
        vals[k + 1] = vals[k] + ps[k] * dsum[t + 1]
        k += 1
    chain = _chain(horizon, [it.id for it in order], best_times)
    return SolveResult(chain=chain, value=best_val, optimal=True, nodes=nodes, solver="exact")


def some_move_gains(
    at: Sequence[Iterable[tuple[int, int]]],
    outside: Iterable[tuple[int, int]],
    resid: Sequence[int],
    dsum: Sequence[int],
) -> bool:
    """Whether any shift, insert or swap move of solve_heuristic gains.

    The state is given by (weight, profit) pairs: at[g] holds those of the
    items inserted at 0-based period g, outside those of the items not
    inserted, and resid holds the residual capacities.  Items with the same
    weight and profit have the same moves, so each side is read as its
    distinct pairs.  A shift moves an inserted item a (at period g) to
    another period; an insert places an outside item b at its earliest
    feasible period; a swap takes a out and then inserts b.  Decided
    exactly in O(n*T log n), without trying the moves one by one:

    - Shifts.  dsum is non-increasing, so a shift gains only to an earlier
      t with dsum[t] > dsum[g]; the latest such t needs the least room,
      resid >= w_a on t..g-1.  Profits are positive (validate_instance
      requires it), so the lightest item at g decides for all items at g.
    - Inserts and swaps.  Whether b fits at t is monotone in t and what b
      earns is non-increasing, so the move gains iff some t has
      p_b*dsum[t] > loss and w_b at most the room at t.  An insert has
      loss 0 and room msuf[t], the least residual over t..T-1.  A swap has
      loss p_a*dsum[g] and room msuf[t] + w_a for t >= g, or
      min(msuf[g] + w_a, resid over t..g-1) for t < g.  The best profit of
      an outside item that fits a room is one bisect into the outside pairs
      sorted by weight, with their running maximum profit.
    - An item at g no lighter and no more profitable than a has at least
      a's room and at most its loss, so only the pairs at g that no other
      pair there dominates this way are tried as a.
    """
    horizon = len(resid)
    msuf = list(accumulate(reversed(resid), min))[::-1]
    by_weight = sorted(set(outside))
    weights = [w for w, _ in by_weight]
    best = [0] + list(accumulate((p for _, p in by_weight), max))

    def gains(room: int, t: int, loss: int) -> bool:
        return best[bisect_right(weights, room)] * dsum[t] > loss

    if any(gains(msuf[t], t, 0) for t in range(horizon)):
        return True
    for g, placed in enumerate(at):
        # Heaviest first, then least profitable; pairs[-1] is the lightest.
        pairs = sorted({(-w, p) for w, p in placed})
        if not pairs:
            continue
        earlier = [t for t in range(g) if dsum[t] > dsum[g]]
        if earlier and min(resid[earlier[-1] : g]) >= -pairs[-1][0]:
            return True
        low = None  # least profit among the heavier items at g
        for nw, p in pairs:
            if low is not None and p >= low:
                continue
            low = p
            w, loss = -nw, p * dsum[g]
            if any(gains(msuf[t] + w, t, loss) for t in range(g, horizon)):
                return True
            room = msuf[g] + w
            for t in range(g - 1, -1, -1):
                room = min(room, resid[t])
                if gains(room, t, loss):
                    return True
    return False


def solve_heuristic(
    ik: Instance, seed: int = 0, limits: SolveLimits | None = None
) -> SolveResult:
    """Density greedy plus first-improvement local search.

    The greedy inserts items at their earliest feasible period, in one pass:
    weight-0 items first, then by p*D_1/w descending, ties by id, ranked by
    one stable sort of the id-ordered items on their precomputed keys.  The
    density is read as the integer ceil(p*D_1 * 2^s / w), s = 2*bit_length(max w).
    Two distinct densities with weights <= max w differ by at least
    1/max w^2, which exceeds 2^-s, so their scaled values differ by more
    than 1 and their ceilings keep the order, while equal densities get
    equal keys (all 0 when D_1 = 0, leaving the order to the ids); a float
    p/w would tie distinct densities near 10^16.  Local search then tries
    single-item time shifts, fresh inserts, and swaps of an inserted item
    for an uninserted one.  Each round numbers its moves arithmetically and
    draws them lazily, as a seeded random permutation (a sparse
    Fisher-Yates).  A round ends at the first improving move; the search
    stops when a whole round finds none or local_search_budget moves have
    been tried.  Each round first proves in O(n*T log n) whether any of its
    moves gains (some_move_gains, over the distinct (weight, profit) pairs
    inserted at each period and left outside); a round where none does
    would draw all its moves, or the rest of the budget, in vain, so those
    are counted as tried without being drawn.  The state is one 0-based
    period per item that fits W_T, in id order, with T for "not inserted",
    as in solve_exact; each round reads its pairs off it in one pass, and
    only a round that draws moves lists the inserted and outside positions.
    A round thus costs O(n*T log n + moves tried) time and O(n + moves
    tried) memory.  Deterministic per seed, and never worse than the greedy
    value.

    Shifts and inserts are rare: the greedy leaves room for neither (each
    item went in at its earliest fitting period or fit nowhere, and the
    residuals only shrank), so only a swap frees some.  In 8,000 seeded
    solves, none of 17 shift or insert gains came before the first swap.
    """
    limits = limits or SolveLimits()
    horizon = ik.horizon
    caps = list(ik.capacities)
    dsum = suffix_coefficients(ik.deltas)
    rng = random.Random(seed)
    # Items are (id, weight, profit) tuples with unique ids: this sorts by id.
    by_id = sorted(it for it in ik.items if it.weight <= caps[-1])
    ids, ws, ps = zip(*by_id) if by_id else ((), (), ())
    n = len(ws)

    never = horizon
    resid = caps[:]
    when = [never] * n
    value = 0

    def insert(k: int, t: int) -> None:
        for s in range(t, horizon):
            resid[s] -= ws[k]
        when[k] = t

    def remove(k: int) -> int:
        t, when[k] = when[k], never
        for s in range(t, horizon):
            resid[s] += ws[k]
        return t

    weighted = [k for k, w in enumerate(ws) if w]
    d1 = dsum[0]
    s = 2 * max(ws, default=0).bit_length()
    keys = [-(p * d1 << s) // w if w else 0 for w, p in zip(ws, ps)]
    order = [k for k, w in enumerate(ws) if not w]
    order += sorted(weighted, key=keys.__getitem__)
    for k in order:  # earliest_period and insert, inlined
        w = ws[k]
        if w > resid[-1]:
            continue
        t = horizon - 1
        while t and resid[t - 1] >= w:
            t -= 1
        for u in range(t, horizon):
            resid[u] -= w
        when[k] = t
        value += ps[k] * dsum[t]

    pairs = list(zip(ws, ps))
    tried = 0
    budget = limits.local_search_budget
    per_item = horizon - 1  # shift targets of one inserted item
    improved = True
    while improved and tried < budget:
        improved = False
        # The (weight, profit) pairs at each period; bucket `never` is outside.
        at: list[list[tuple[int, int]]] = [[] for _ in range(horizon + 1)]
        for t, pair in zip(when, pairs):
            at[t].append(pair)
        out = at.pop()
        k = n - len(out)
        # Move m < shifts moves inserted[m // per_item] to another period; the
        # rest come k + 1 per outside item: its insert, then a swap with each
        # inserted item.
        shifts = k * per_item
        total = shifts + len(out) * (k + 1)
        if not some_move_gains(at, out, resid, dsum):
            # Drawing would try every move, or the rest of the budget, in vain.
            tried += min(total, budget - tried)
            break
        inserted = [a for a, t in enumerate(when) if t < never]
        outside = [b for b, t in enumerate(when) if t == never]
        displaced: dict[int, int] = {}  # sparse Fisher-Yates: slot r holds r unless listed
        for pos in range(min(total, budget - tried)):
            r = rng.randrange(pos, total)
            move = displaced.get(r, r)
            displaced[r] = displaced.pop(pos, pos)
            tried += 1
            if move < shifts:
                a = inserted[move // per_item]
                old = when[a]
                t = move % per_item
                if t >= old:
                    t += 1
                # Only an earlier period gains; it must fit up to the old one.
                gain = ps[a] * (dsum[t] - dsum[old])
                if gain > 0 and min(resid[t:old]) >= ws[a]:
                    remove(a)
                    insert(a, t)
                    value += gain
                    improved = True
                    break
                continue
            j, s = divmod(move - shifts, k + 1)
            b = outside[j]
            wb, pb = ws[b], ps[b]
            if s == 0:
                t = earliest_period(resid, wb)
                if t is not None and pb * dsum[t] > 0:
                    insert(b, t)
                    value += pb * dsum[t]
                    improved = True
                    break
                continue
            a = inserted[s - 1]
            loss = ps[a] * dsum[when[a]]
            if pb * dsum[0] <= loss:
                continue  # even the earliest period cannot pay for the swap
            old = remove(a)
            t = earliest_period(resid, wb)
            if t is not None and pb * dsum[t] > loss:
                insert(b, t)
                value += pb * dsum[t] - loss
                improved = True
                break
            insert(a, old)

    chain = _chain(horizon, ids, when)
    return SolveResult(chain=chain, value=value, optimal=False, nodes=tried, solver="heuristic")


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
                    v = oracle.evaluate(_mask_to_set(mask, ids))
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
