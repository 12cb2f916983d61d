"""MILP reference optima, past the subset DP's and brute force's reach.

The time-indexed model of Bienstock, Sethuraman and Ye, "Approximation
algorithms for the incremental knapsack problem via disjunctive programming"
(2013).  A binary x[i, t] says item i is in the knapsack at period t;
x[i, t] <= x[i, t + 1] keeps the sets nested and sum_i w_i * x[i, t] <= W_t is
period t's capacity.  milp_optimum prices a modular instance with the
objective sum_t delta_t * sum_i p_i * x[i, t].  aon_milp_optimum prices the
original all-or-nothing instance: a binary y[i, t] <= x[i, t] picks an
independent set of each class's matroid inside S_t, and the objective is
sum_t delta_t * sum_i p_i * y[i, t], whose best y is gamma(S_t).
scipy.optimize.milp (HiGHS) solves each with mip_rel_gap=0, and only status
0, a proven optimum, is accepted.  Shares nothing with iknap's solvers, or
its reduction, but the instance; needs scipy and numpy.
"""

from __future__ import annotations

import contextlib
import os
import sys

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


def _independence_caps(inst: Instance) -> list[tuple[list[int], int]]:
    """(member ids, cap) pairs whose joint caps make a set independent in its class.

    Read from the matroid-rank-sum descriptor: the ground and rank of each
    uniform class, and each group and cap of each partition class.  A
    graphic class needs cycle cuts, which this model does not write.
    """
    descriptor = inst.oracle.descriptor
    assert descriptor["kind"] == "matroid_rank_sum", descriptor["kind"]
    caps, covered = [], set()
    for c in descriptor["classes"]:
        matroid = c["matroid"]
        if matroid["kind"] == "uniform":
            rows = [(matroid["ground"], matroid["rank_cap"])]
        elif matroid["kind"] == "partition":
            rows = [(g["members"], g["cap"]) for g in matroid["groups"]]
        else:
            raise ValueError(f"a {matroid['kind']} class needs cycle cuts")
        for members, _ in rows:
            covered.update(members)
            assert {inst.item(i).profit for i in members} <= {c["profit"]}, c["profit"]
        caps += rows
    assert covered >= set(inst.item_ids), "an item outside every class"
    return caps


def aon_milp_optimum(inst: Instance) -> tuple[int, Chain]:
    """The optimal all-or-nothing chain value of a uniform- or partition-classes instance.

    Never reduces inst: y[i, t], variable n * T + i * T + t, prices period
    t, and each uniform class or partition group caps its y in each period.
    The value is recomputed in integers from the rounded y, whose link to x
    and whose caps are rechecked exactly, and a chain that reaches it is
    returned.
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
    caps = _independence_caps(inst)
    independent = np.zeros((len(caps) * horizon, 2 * size))
    for r, (members, _) in enumerate(caps):
        for t in range(horizon):
            for i in members:
                independent[r * horizon + t, size + position[i] * horizon + t] = 1
    bounds = np.repeat([cap for _, cap in caps], horizon)
    constraints = _chain_rows(inst, 2 * size) + [
        LinearConstraint(link, -np.inf, 0),
        LinearConstraint(independent, -np.inf, bounds),
    ]
    solution, fun = _solve(cost, constraints)
    x, y = solution[:size], solution[size:]
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
