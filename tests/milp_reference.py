"""MILP reference optima, past the subset DP's and brute force's reach.

The time-indexed model of Bienstock, Sethuraman and Ye, "Approximation
algorithms for the incremental knapsack problem via disjunctive programming"
(2013).  A binary x[i, t] says item i is in the knapsack at period t;
x[i, t] <= x[i, t + 1] keeps the sets nested and sum_i w_i * x[i, t] <= W_t is
period t's capacity.  milp_optimum prices a modular instance with the
objective sum_t delta_t * sum_i p_i * x[i, t].  aon_milp_optimum prices the
original all-or-nothing instance: a binary y[i, t] <= x[i, t] picks an
independent set of each class's matroid inside S_t (cap rows for uniform
and partition classes, forest cuts added round by round for graphic ones),
and the objective is sum_t delta_t * sum_i p_i * y[i, t], whose best y is
gamma(S_t).
scipy.optimize.milp (HiGHS) solves each with mip_rel_gap=0, and only status
0, a proven optimum, is accepted.  Shares nothing with iknap's solvers, or
its reduction, but the instance; needs scipy and numpy.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections import Counter

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from iknap import Chain, Instance, profit_phi_bar


@contextlib.contextmanager
def _stdout_to_devnull():
    """Point file descriptor 1 at /dev/null: HiGHS prints some lines from C."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _chain_rows(inst: Instance, width: int) -> list[LinearConstraint]:
    """Capacity and nesting rows over x[i, t], variable i * T + t of width."""
    items, horizon = inst.items, inst.horizon
    n = len(items)
    load = np.zeros((horizon, width))
    load[:, : n * horizon] = np.kron([it.weight for it in items], np.eye(horizon))
    constraints = [LinearConstraint(load, -np.inf, inst.capacities)]
    if horizon > 1:
        nest = np.zeros((n * (horizon - 1), width))
        for i in range(n):
            for t in range(horizon - 1):
                row = i * (horizon - 1) + t
                nest[row, i * horizon + t], nest[row, i * horizon + t + 1] = 1, -1
        constraints.append(LinearConstraint(nest, -np.inf, 0))
    return constraints


def _solve(cost, constraints) -> tuple[list[list[int]], float]:
    """The optimal binaries, rounded, in one list, and the optimal cost."""
    with _stdout_to_devnull():
        res = milp(
            cost,
            constraints=constraints,
            integrality=np.ones(len(cost)),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0},
        )
    assert res.status == 0, f"MILP status {res.status}: {res.message}"
    return np.rint(res.x).astype(int).tolist(), res.fun


def _chain_of(inst: Instance, x: list[int]) -> Chain:
    """The chain x[i, t] holds, its nesting and capacities rechecked exactly."""
    items, horizon = inst.items, inst.horizon
    rows = [x[k * horizon : (k + 1) * horizon] for k in range(len(items))]
    times = {}
    for it, row in zip(items, rows):
        assert row == sorted(row), f"item {it.id} leaves the knapsack: {row}"
        if 1 in row:
            times[it.id] = row.index(1) + 1
    for t in range(horizon):
        load_t = sum(it.weight for it, row in zip(items, rows) if row[t])
        assert load_t <= inst.capacities[t], f"period {t + 1} holds {load_t}"
    return Chain(horizon, times)


def milp_optimum(inst: Instance) -> tuple[int, Chain]:
    """The optimal modular chain value of inst and a chain that reaches it.

    The value is recomputed in integers from the rounded solution, whose
    nesting and capacities are rechecked exactly, so a float answer that
    only nearly holds raises AssertionError instead of passing.
    """
    items, horizon = inst.items, inst.horizon
    if not items:
        return 0, Chain(horizon, {})
    cost = -np.outer([it.profit for it in items], inst.deltas).ravel()
    x, fun = _solve(cost, _chain_rows(inst, len(cost)))
    chain = _chain_of(inst, x)
    value = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
    assert abs(value + fun) < 0.5, (value, fun)
    return value, chain


def _independence_rows(inst: Instance) -> tuple[list[tuple[list[int], int]], list[list]]:
    """(member ids, cap) pairs, and the (item, u, v) edges of each graphic class.

    Read from the matroid-rank-sum descriptor: the ground and rank of each
    uniform class, and each group and cap of each partition class, cap the
    members a set may hold.  A graphic class's set is independent when its
    edges hold no cycle, which aon_milp_optimum enforces by cuts; its row
    here caps its members at their count, which never binds.
    """
    descriptor = inst.oracle.descriptor
    assert descriptor["kind"] == "matroid_rank_sum", descriptor["kind"]
    caps, graphs, covered = [], [], set()
    for c in descriptor["classes"]:
        matroid = c["matroid"]
        if matroid["kind"] == "uniform":
            rows = [(matroid["ground"], matroid["rank_cap"])]
        elif matroid["kind"] == "partition":
            rows = [(g["members"], g["cap"]) for g in matroid["groups"]]
        else:
            assert matroid["kind"] == "graphic", matroid["kind"]
            graphs.append([(e["item"], e["u"], e["v"]) for e in matroid["edges"]])
            rows = [([i for i, _, _ in graphs[-1]], len(graphs[-1]))]
        for members, _ in rows:
            covered.update(members)
            assert {inst.item(i).profit for i in members} <= {c["profit"]}, c["profit"]
        caps += rows
    assert covered >= set(inst.item_ids), "an item outside every class"
    return caps, graphs


def _cyclic_components(edges: list, chosen: set) -> set[frozenset]:
    """The vertex sets of the components of the chosen edges that hold a cycle.

    A union-find over the chosen edges' ends; a component holds a cycle
    when it has as many edges as vertices, so a vertex with a self-loop is one.
    """
    root = {}

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    ends = [(u, v) for i, u, v in edges if i in chosen]
    for u, v in ends:
        root[find(u)] = find(v)
    vertices = {}
    for v in root:
        vertices.setdefault(find(v), set()).add(v)
    count = Counter(find(u) for u, _ in ends)
    return {frozenset(vs) for r, vs in vertices.items() if count[r] >= len(vs)}


#: Rounds of cuts aon_milp_optimum makes before it fails.
CUT_ROUNDS = 50


def aon_milp_optimum(inst: Instance) -> tuple[int, Chain]:
    """The optimal all-or-nothing chain value of a rank-sum instance, and a chain.

    Never reduces inst: y[i, t], variable n * T + i * T + t, prices period
    t.  Each uniform class or partition group caps its y in each period.  A
    graphic class is priced by cuts: after each solve, every component of
    its chosen y edges that holds a cycle in some period (a self-loop is a
    cycle of one edge) adds, for its vertex set V, sum y[i, t] <= |V| - 1
    over the class's edges i inside V, in every period at once.  A forest
    has at most |V| - 1 edges inside V, so no independent set is cut off.
    The model is solved again until no cycle is left, failing past
    CUT_ROUNDS rounds; a cut over a cycle's own edges alone, sum_{i in C}
    y[i, t] <= |C| - 1, is weaker and needs far more rounds.  The value is
    recomputed in integers from the rounded y, whose link to x and whose
    caps are rechecked exactly, and a chain that reaches it is returned.
    """
    items, horizon = inst.items, inst.horizon
    n = len(items)
    if not n:
        return 0, Chain(horizon, {})
    size = n * horizon
    priced = -np.outer([it.profit for it in items], inst.deltas).ravel()
    cost = np.concatenate([np.zeros(size), priced])
    link = np.hstack([-np.eye(size), np.eye(size)])
    position = {it.id: k for k, it in enumerate(items)}
    caps, graphs = _independence_rows(inst)

    def per_period(sets) -> np.ndarray:
        """One row per set and period: the sum of the set's y at that period."""
        out = np.zeros((len(sets) * horizon, 2 * size))
        for r, members in enumerate(sets):
            for t in range(horizon):
                for i in members:
                    out[r * horizon + t, size + position[i] * horizon + t] = 1
        return out

    independent = per_period([members for members, _ in caps])
    bounds = np.repeat([cap for _, cap in caps], horizon)
    constraints = _chain_rows(inst, 2 * size) + [
        LinearConstraint(link, -np.inf, 0),
        LinearConstraint(independent, -np.inf, bounds),
    ]
    for _ in range(CUT_ROUNDS):
        solution, fun = _solve(cost, constraints)
        x, y = solution[:size], solution[size:]
        forests = {}  # the class's edges inside V -> |V|
        for t in range(horizon):
            chosen = {it.id for k, it in enumerate(items) if y[k * horizon + t]}
            for edges in graphs:
                for vs in _cyclic_components(edges, chosen):
                    inside = frozenset(i for i, u, v in edges if u in vs and v in vs)
                    forests[inside] = len(vs)
        if not forests:
            break
        cut = sorted(forests, key=sorted)
        bound = np.repeat([forests[s] - 1 for s in cut], horizon)
        constraints.append(LinearConstraint(per_period(cut), -np.inf, bound))
    else:
        raise AssertionError(f"cycles left after {CUT_ROUNDS} rounds of cuts")
    chain = _chain_of(inst, x)
    assert all(b <= a for a, b in zip(x, y)), "y outside the knapsack"
    assert (independent[:, size:] @ y <= bounds).all(), "y not independent"
    value = sum(
        delta * it.profit * y[k * horizon + t]
        for k, it in enumerate(items)
        for t, delta in enumerate(inst.deltas)
    )
    assert abs(value + fun) < 0.5, (value, fun)
    return value, chain
