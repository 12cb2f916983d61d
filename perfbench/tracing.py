"""Spans around the pipeline's public functions, recorded from outside ``src/``.

``traced_solve`` composes the same steps as ``solve_ik_aon`` and wraps each
call in a span; ``OracleProxy`` stands in for the instance's oracle and
records one span per ``evaluate``, parented to the step that made the call.
Spans stay in memory as (op, name, start, end, parent) tuples.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass, field

from iknap.errors import InfeasibleInternal, InvalidInstance, OracleViolation
from iknap.instances import is_feasible, preprocess_singletons, profit_phi, profit_phi_bar
from iknap.instances import validate_instance
from iknap.modularize import SolveReport, modularize
from iknap.serialize import dumps_canonical, instance_from_obj, report_to_obj
from iknap.solvers import SolveLimits, solve_exact, solve_heuristic

ORACLE = "oracles.evaluate"
#: Steps that call the oracle, as the per-layer metrics name them.
ORACLE_PARENTS = {
    "instances.singletons": "singletons",
    "modularize": "modularize",
    "instances.recheck": "recheck",
}


class Tracer:
    """In-memory span recorder; with ``memory`` it also takes tracemalloc peaks."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.peaks: dict[str, int] = {}
        self.op = 0
        self.memory = memory
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op, name, start, end, parent))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"], "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "index", "base", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        if tracer.memory:
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans[self.index] = (tracer.op, self.name, self.start, end, parent)
        if tracer.memory:
            peak = tracemalloc.get_traced_memory()[1] - self.base
            tracer.peaks[self.name] = peak


class OracleProxy:
    """Duck-typed stand-in for ``AggregationOracle`` that times each call."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self.descriptor = oracle.descriptor

    @property
    def call_count(self) -> int:
        return self._oracle.call_count

    def evaluate(self, items) -> int:
        start = time.perf_counter()
        try:
            return self._oracle.evaluate(items)
        finally:
            self._tracer.record(ORACLE, start, time.perf_counter())


@dataclass
class TracedRun:
    report: SolveReport
    text: str
    n: int
    horizon: int
    nodes: int


def traced_solve(text: str, solver: str, seed: int, tracer: Tracer) -> TracedRun:
    """``iknap solve`` step by step, mirroring ``solve_ik_aon`` and its checks."""
    limits = SolveLimits()
    started = time.perf_counter()
    with tracer.span("serialize.decode"):
        inst = instance_from_obj(json.loads(text))
    inst.oracle = OracleProxy(inst.oracle, tracer)
    calls_before = inst.oracle.call_count
    with tracer.span("instances.validate"):
        problems = validate_instance(inst)
    if problems:
        raise InvalidInstance(problems)
    with tracer.span("instances.singletons"):
        reduced, dropped = preprocess_singletons(inst)
    with tracer.span("modularize"):
        mod = modularize(reduced)
    with tracer.span("solvers." + solver):
        if solver == "exact":
            result = solve_exact(mod.ik, limits)
        else:
            result = solve_heuristic(mod.ik, seed=seed, limits=limits)
    chain = result.chain
    with tracer.span("instances.recheck"):
        if not is_feasible(inst, chain):
            raise InfeasibleInternal(f"solver {solver!r} returned an infeasible chain")
        phi_bar = profit_phi_bar(inst.profits_by_id, inst.deltas, chain)
        if phi_bar != result.value:
            raise InfeasibleInternal(f"solver {solver!r} misreported its value")
        phi = profit_phi(inst, chain)
        if phi != phi_bar:
            raise OracleViolation(f"oracle profit {phi} != modular profit {phi_bar}")
    report = SolveReport(
        phi=phi,
        phi_bar=phi_bar,
        oracle_calls=inst.oracle.call_count - calls_before,
        kept_items=mod.kept_ids,
        chain=chain,
        solver=solver,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        dropped_items=dropped,
    )
    with tracer.span("serialize.encode"):
        out = dumps_canonical(report_to_obj(report, inst.item_ids))
    return TracedRun(report, out, len(inst.items), inst.horizon, result.nodes)


@dataclass
class OpLayers:
    """One traced operation, reduced to per-step totals."""

    ms: dict[str, float] = field(default_factory=dict)
    oracle_calls: dict[str, int] = field(default_factory=dict)
    oracle_ms: dict[str, float] = field(default_factory=dict)


def op_layers(spans, first: int) -> OpLayers:
    """Per-step duration, oracle calls and oracle time of the spans from ``first``."""
    out = OpLayers()
    for name in ORACLE_PARENTS.values():
        out.oracle_calls[name] = 0
        out.oracle_ms[name] = 0.0
    for _, name, start, end, parent in spans[first:]:
        ms = (end - start) * 1000.0
        if name == ORACLE:
            step = ORACLE_PARENTS[spans[parent][1]]
            out.oracle_calls[step] += 1
            out.oracle_ms[step] += ms
        else:
            out.ms[name] = out.ms.get(name, 0.0) + ms
    return out


def identity_problems(layers: OpLayers, run: TracedRun) -> list[str]:
    """The oracle-call counts that must repeat exactly on every operation."""
    calls = layers.oracle_calls
    dropped = len(run.report.dropped_items)
    problems = []
    if calls["singletons"] != run.n:
        problems.append(f"singletons made {calls['singletons']} oracle calls, n={run.n}")
    if calls["modularize"] != run.n - dropped:
        problems.append(
            f"modularize made {calls['modularize']} oracle calls, n-dropped={run.n - dropped}"
        )
    if calls["recheck"] > run.horizon:
        problems.append(f"recheck made {calls['recheck']} oracle calls, T={run.horizon}")
    if sum(calls.values()) != run.report.oracle_calls:
        problems.append(
            f"report oracle_calls {run.report.oracle_calls} != traced {sum(calls.values())}"
        )
    return problems
