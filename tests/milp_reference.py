"""A MILP reference optimum for modular instances, past the subset DP's reach.

The time-indexed model of Bienstock, Sethuraman and Ye, "Approximation
algorithms for the incremental knapsack problem via disjunctive programming"
(2013).  A binary x[i, t] says item i is in the knapsack at period t;
x[i, t] <= x[i, t + 1] keeps the sets nested, sum_i w_i * x[i, t] <= W_t is
period t's capacity, and the objective is sum_t delta_t * sum_i p_i * x[i, t].
scipy.optimize.milp (HiGHS) solves it with mip_rel_gap=0, and only status 0,
a proven optimum, is accepted.  Shares nothing with iknap's solvers but the
instance; needs scipy and numpy.
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


def milp_optimum(inst: Instance) -> tuple[int, Chain]:
    """The optimal modular chain value of inst and a chain that reaches it.

    The value is recomputed in integers from the rounded solution, whose
    nesting and capacities are rechecked exactly, so a float answer that
    only nearly holds raises AssertionError instead of passing.
    """
    items, horizon = inst.items, inst.horizon
    n = len(items)
    if n == 0:
        return 0, Chain(horizon, {})
    # Variable i * horizon + t is x[i, t], t 0-based.
    cost = -np.outer([it.profit for it in items], inst.deltas).ravel()
    nest = np.zeros((n * (horizon - 1), n * horizon))
    for i in range(n):
        for t in range(horizon - 1):
            row = i * (horizon - 1) + t
            nest[row, i * horizon + t], nest[row, i * horizon + t + 1] = 1, -1
    load = np.kron([it.weight for it in items], np.eye(horizon))
    constraints = [LinearConstraint(load, -np.inf, inst.capacities)]
    if horizon > 1:
        constraints.append(LinearConstraint(nest, -np.inf, 0))
    with _stdout_to_devnull():
        res = milp(
            cost,
            constraints=constraints,
            integrality=np.ones(n * horizon),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0},
        )
    assert res.status == 0, f"MILP status {res.status}: {res.message}"
    rows = np.rint(res.x).astype(int).reshape(n, horizon).tolist()
    times = {}
    for it, row in zip(items, rows):
        assert row == sorted(row), f"item {it.id} leaves the knapsack: {row}"
        if 1 in row:
            times[it.id] = row.index(1) + 1
    for t in range(horizon):
        load_t = sum(it.weight for it, row in zip(items, rows) if row[t])
        assert load_t <= inst.capacities[t], f"period {t + 1} holds {load_t}"
    chain = Chain(horizon, times)
    value = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
    assert abs(value + res.fun) < 0.5, (value, res.fun)
    return value, chain
