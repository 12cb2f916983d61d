"""The reduction pipeline: solve an oracle-priced instance through a modular one.

Restricting an instance to the union of its per-profit-class minimum-weight
bases yields a modular instance whose every feasible chain has the same
profit under both functionals, and whose optimum matches the original
optimum.  Any modular-instance solver can therefore be plugged in
downstream; its guarantee carries over unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InfeasibleInternal, LimitsExceeded, OracleViolation, SolverFailure
from .independence import ClassBasis, _greedy_basis
from .instances import (
    Chain,
    Instance,
    ensure_valid,
    is_feasible,
    preprocess_singletons,
    profit_phi,
    profit_phi_bar,
)
from .oracles import modular_oracle
from .solvers import (
    SolveLimits,
    SolveResult,
    brute_force_chains,
    solve_exact,
    solve_heuristic,
)


@dataclass(frozen=True)
class ModularizedInstance:
    """The kept items priced by their plain profit sum, and each class's basis.

    Kept items keep their original ids, weights, and profits, so chains of
    the modular instance are directly chains of the original one.  The
    bases are in increasing class-profit order.
    """

    ik: Instance
    kept_ids: tuple[int, ...]
    bases: tuple[ClassBasis, ...]


def modularize(inst: Instance) -> ModularizedInstance:
    """Restrict to the union of per-class minimum-weight greedy bases.

    Expects a validated, singleton-preprocessed instance.  Costs one sort
    by (profit, weight, id), in which each class is a run, grown from empty
    in increasing class profit, plus exactly one oracle query per item: an
    incremental gain for the built-in modular and matroid-rank-sum oracles,
    so the whole reduction is linear in n up to the sort, and
    evaluate(B + i) for any other oracle.
    """
    by_id = sorted(inst.items, key=itemgetter(0))
    order = sorted(by_id, key=itemgetter(1))
    order.sort(key=itemgetter(2))
    bases = tuple(_greedy_basis(inst.oracle, run) for _, run in groupby(order, itemgetter(2)))
    kept = frozenset().union(*[basis.members for basis in bases])
    items = [it for it in by_id if it[0] in kept]
    oracle = modular_oracle({i: p for i, _, p in items})
    ik = Instance(items, inst.horizon, inst.capacities, inst.deltas, oracle)
    return ModularizedInstance(ik=ik, kept_ids=ik.item_ids, bases=bases)


@dataclass
class SolveReport:
    """Machine-readable outcome of one pipeline run."""

    phi: int
    phi_bar: int
    oracle_calls: int
    kept_items: tuple[int, ...]
    chain: Chain
    solver: str
    elapsed_ms: float
    dropped_items: tuple[int, ...] = ()


SOLVERS = ("auto", "exact", "heuristic", "brute")


def _run_ik_solver(
    name: str, ik: Instance, limits: SolveLimits, seed: int
) -> SolveResult:
    if name == "auto":
        try:
            return solve_exact(ik, limits)
        except LimitsExceeded:
            return solve_heuristic(ik, seed=seed, limits=limits)
    if name == "exact":
        return solve_exact(ik, limits)
    if name == "heuristic":
        return solve_heuristic(ik, seed=seed, limits=limits)
    if name == "brute":
        value, chain = brute_force_chains(ik, limits.max_states_brute)
        return SolveResult(chain=chain, value=value, optimal=True, nodes=0, solver="brute")
    raise SolverFailure(f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}")


def solve_ik_aon(
    inst: Instance,
    solver: str = "auto",
    limits: SolveLimits | None = None,
    seed: int = 0,
) -> SolveReport:
    """Full pipeline: validate, preprocess, modularize, solve, recheck.

    "auto" runs the exact solver and, when the kept item count or horizon
    exceeds its limits, the heuristic instead.  The returned chain is over
    original item ids and is always re-verified: feasibility against the
    original capacities, and the oracle profit recomputed from scratch,
    which must equal the modular profit.  A mismatch means the oracle broke
    the all-or-nothing contract.
    """
    limits = limits or SolveLimits()
    started = time.perf_counter()
    calls_before = inst.oracle.call_count
    ensure_valid(inst)
    reduced, dropped = preprocess_singletons(inst)
    mod = modularize(reduced)
    result = _run_ik_solver(solver, mod.ik, limits, seed)
    chain = result.chain
    if not is_feasible(inst, chain):
        raise InfeasibleInternal(
            f"solver {result.solver!r} returned an infeasible chain: {chain!r}"
        )
    phi_bar = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
    if phi_bar != result.value:
        raise InfeasibleInternal(
            f"solver {result.solver!r} misreported its value: {result.value} != {phi_bar}"
        )
    phi = profit_phi(inst, chain)
    if phi != phi_bar:
        raise OracleViolation(
            f"oracle profit {phi} != modular profit {phi_bar} on the kept items; "
            "the aggregation oracle violates the all-or-nothing contract"
        )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SolveReport(
        phi=phi,
        phi_bar=phi_bar,
        oracle_calls=inst.oracle.call_count - calls_before,
        kept_items=mod.kept_ids,
        chain=chain,
        solver=result.solver,
        elapsed_ms=elapsed_ms,
        dropped_items=dropped,
    )


def verify_solution(
    inst: Instance,
    chain: "Chain | Sequence[Iterable[int]]",
    claimed_phi: int,
    claimed_phi_bar: int,
) -> list[str]:
    """Recheck a claimed solution; return its mismatches, empty when it holds.

    Accepts either a Chain or explicit sets S_1..S_T, so a tampered,
    non-nested set list is diagnosed (NotNested, and nothing else) rather
    than raised.  Otherwise the chain is checked against the capacities
    (Infeasible), its oracle profit is recomputed from scratch (PhiMismatch)
    and so is its plain profit sum (PhiBarMismatch), in that order.
    """
    if not isinstance(chain, Chain):
        try:
            chain = Chain.from_sets(chain)
        except ValueError as exc:
            return [f"NotNested: {exc}"]
    mismatches = []
    if not is_feasible(inst, chain):
        mismatches.append("Infeasible: some period exceeds its capacity")
    phi = profit_phi(inst, chain)
    if phi != claimed_phi:
        mismatches.append(f"PhiMismatch: recomputed {phi} != claimed {claimed_phi}")
    phi_bar = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
    if phi_bar != claimed_phi_bar:
        mismatches.append(
            f"PhiBarMismatch: recomputed {phi_bar} != claimed {claimed_phi_bar}"
        )
    return mismatches
