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
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InfeasibleInternal, LimitsExceeded, OracleViolation, SolverFailure
from .instances import (
    Chain,
    Instance,
    _PROFIT,
    _fits,
    _layers,
    _phi,
    _phi_bar,
    ensure_valid,
    preprocess_singletons,
)
from .oracles import _modular_over, greedy_kept
from .solvers import (
    SolveLimits,
    SolveResult,
    brute_force_chains,
    solve_exact,
    solve_heuristic,
)


@dataclass(frozen=True)
class ModularizedInstance:
    """The kept items priced by their plain profit sum.

    Kept items keep their original ids, weights, and profits, so chains of
    the modular instance are directly chains of the original one.
    """

    ik: Instance
    kept_ids: tuple[int, ...]


def modularize(inst: Instance) -> ModularizedInstance:
    """Restrict to the union of per-class minimum-weight greedy bases.

    Expects a validated, singleton-preprocessed instance.  Makes one
    greedy_kept() call over all the items, which grows each profit class
    from empty in (weight, id) order at exactly one oracle query per item
    and returns the kept items in id order.  The built-in oracles answer
    that call in bulk: the modular oracle, with one compare of its table
    against the profits and no sort but by id, and the matroid-rank-sum
    oracle from each class's matroid (a slice, a counter per group, a
    union-find) after one sort by (profit, weight, id).  Any other oracle,
    or items the bulk answer cannot take, is asked evaluate(B + i).

    The kept items are priced by a new modular oracle with its own call
    counter, so the downstream solver's evaluate() calls never count as
    calls on inst.oracle.  That oracle builds its id -> profit table from
    the kept items on its first evaluate(), which only brute force makes.
    """
    items = greedy_kept(inst.oracle, inst.items)
    oracle = _modular_over(items)
    ik = Instance(items, inst.horizon, inst.capacities, inst.deltas, oracle)
    return ModularizedInstance(ik=ik, kept_ids=tuple(map(itemgetter(0), items)))


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
    original item ids, and verify_solution rechecks it against the original
    instance with the solver's value claimed as phi and phi_bar.  A
    PhiMismatch alone (the chain fits, its profit sum is right) means the
    oracle broke the all-or-nothing contract: OracleViolation.  Any other
    mismatch is the solver's fault: InfeasibleInternal.  Both messages name
    the solver and carry the mismatch lines.
    """
    limits = limits or SolveLimits()
    started = time.perf_counter()
    calls_before = inst.oracle.call_count
    ensure_valid(inst)
    reduced, dropped = preprocess_singletons(inst)
    mod = modularize(reduced)
    result = _run_ik_solver(solver, mod.ik, limits, seed)
    mismatches = verify_solution(inst, result.chain, result.value, result.value)
    if mismatches:
        failed = f"solver {result.solver!r} failed its recheck: {'; '.join(mismatches)}"
        if len(mismatches) > 1 or not mismatches[0].startswith("PhiMismatch"):
            raise InfeasibleInternal(failed)
        raise OracleViolation(f"{failed}; the oracle violates the all-or-nothing contract")
    return SolveReport(
        phi=result.value,
        phi_bar=result.value,
        oracle_calls=inst.oracle.call_count - calls_before,
        kept_items=mod.kept_ids,
        chain=result.chain,
        solver=result.solver,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
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
    (Infeasible), its oracle profit is recomputed (PhiMismatch) and so is
    its plain profit sum (PhiBarMismatch), in that order.  All three are
    read from one walk over the chain's layers, the ids first inserted at
    each period; the oracle profit takes one chain_gammas() call, counted
    as profit_phi counts it.
    """
    if not isinstance(chain, Chain):
        try:
            chain = Chain.from_sets(chain)
        except ValueError as exc:
            return [f"NotNested: {exc}"]
    layers = _layers(inst, chain)
    mismatches = []
    if not _fits(inst, layers):
        mismatches.append("Infeasible: some period exceeds its capacity")
    phi = _phi(inst, layers)
    if phi != claimed_phi:
        mismatches.append(f"PhiMismatch: recomputed {phi} != claimed {claimed_phi}")
    item = inst._by_id.__getitem__
    phi_bar = _phi_bar(inst.deltas, [map(_PROFIT, map(item, layer)) for layer in layers])
    if phi_bar != claimed_phi_bar:
        mismatches.append(
            f"PhiBarMismatch: recomputed {phi_bar} != claimed {claimed_phi_bar}"
        )
    return mismatches
