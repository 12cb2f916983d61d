"""One benchmark run: set-up, the measured loop, answer checks and metrics.

The loop is closed and single-threaded: one operation at a time, cycling
through the corpus in order.  It always finishes one full pass, then keeps
cycling until the requested seconds have passed.  Each instance's latency
is the median of its samples, so every run reports over the same instances.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from iknap.modularize import solve_ik_aon
from iknap.serialize import dumps_canonical, instance_from_obj, report_to_obj

from tracing import ORACLE, ORACLE_PARENTS, Tracer, identity_problems, op_layers, traced_solve
from workloads import Case, Workload, iter_corpus

SETUP_REPEATS = 3
#: Tail percentiles tried from the top; the first with ten samples beyond it wins.
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
#: Stop even mid-pass after this long, so a run always ends in time.
HARD_STOP_S = 120.0
#: In a traced run, every this-many operations is repeated under tracemalloc.
MEMORY_EVERY = 8
#: What ``calibration_ms`` took, unslowed, on a 2-vCPU Intel Xeon VM with Python 3.11.7.
NOMINAL_CALIBRATION_MS = 1.4
CALIBRATE_EVERY_S = 0.1
#: The latest calibration samples, which bracket the timed call, set its slowdown.
CALIBRATION_WINDOW = 3


def calibration_ms() -> float:
    """Time a fixed piece of stdlib work that no change to the program touches.

    A shared host's speed can drift twofold between runs and within one.
    This loop does the kinds of work the pipeline does -- Fraction sums,
    frozenset intersections, tuple lists, a shuffle, JSON -- so its slowdown
    tracks the pipeline's, and dividing it out steadies timings.
    """
    started = time.perf_counter()
    rng = random.Random(7)
    pairs = [(rng.randrange(1, 10), rng.randrange(0, 10)) for _ in range(400)]
    total = Fraction(0)
    for p, w in pairs[:80]:
        total += Fraction(p, w + 1)
    groups = [frozenset(range(i, i + 40)) for i in range(0, 400, 4)]
    sum(len(a & b) for a, b in zip(groups, groups[1:]))
    moves = [(i, j) for i in range(40) for j in range(20)]
    rng.shuffle(moves)
    json.loads(json.dumps(pairs))
    return (time.perf_counter() - started) * 1000.0


class HostSpeed:
    """Calibration samples taken between operations, and the slowdown they show."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self, count: int = 1) -> None:
        self.samples.extend(calibration_ms() for _ in range(count))
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Current time per unit of nominal time, from the latest samples."""
        return statistics.median(self.samples[-CALIBRATION_WINDOW:]) / NOMINAL_CALIBRATION_MS


def solve_untraced(text: str, solver: str, seed: int):
    """What ``iknap solve`` does, minus process start-up."""
    inst = instance_from_obj(json.loads(text))
    report = solve_ik_aon(inst, solver=solver, seed=seed)
    return report, dumps_canonical(report_to_obj(report, inst.item_ids))


def answer_problems(case: Case, solver: str, report, text: str) -> list[str]:
    """Recheck a report with the benchmark's own code and direct oracle calls."""
    inst = case.instance
    horizon = inst.horizon
    obj = json.loads(text)
    if obj["solver"] != solver:
        return [f"ran solver {obj['solver']!r}, asked for {solver!r}"]
    times = obj["chain"]["insertion_times"]
    if len(times) != len(inst.items):
        return [f"chain has {len(times)} entries for n={len(inst.items)}"]
    sets: list[list[int]] = [[] for _ in range(horizon)]
    for it, t in zip(inst.items, times):
        if t is None:
            continue
        if not 1 <= t <= horizon:
            return [f"item {it.id} inserted at {t}, outside 1..{horizon}"]
        for s in range(t - 1, horizon):
            sets[s].append(it.id)
    problems = []
    weight = {it.id: it.weight for it in inst.items}
    profit = {it.id: it.profit for it in inst.items}
    for t, s in enumerate(sets):
        if sum(weight[i] for i in s) > inst.capacities[t]:
            problems.append(f"period {t + 1} over capacity")
    phi = sum(d * inst.oracle.evaluate(s) for d, s in zip(inst.deltas, sets))
    if phi != obj["phi"] or phi != obj["phi_bar"]:
        problems.append(f"recomputed phi {phi}, report says {obj['phi']}/{obj['phi_bar']}")
    kept = obj["kept_items"]
    if not set(sets[-1]) <= set(kept):
        problems.append("chain uses items outside kept_items")
    if inst.oracle.evaluate(kept) != sum(profit[i] for i in kept):
        problems.append("kept_items are not independent")
    if case.basis is not None and set(kept) != case.basis:
        problems.append("kept_items differ from the greedy bases")
    if case.basis is not None and phi != case.reference:
        problems.append(f"phi {phi} != optimum {case.reference}")
    if case.basis is None and phi > case.reference:
        problems.append(f"phi {phi} above the fractional bound {float(case.reference):.1f}")
    singles_and_tests = 2 * len(inst.items) - len(report.dropped_items)
    if not singles_and_tests <= obj["oracle_calls"] <= singles_and_tests + horizon:
        problems.append(
            f"oracle_calls {obj['oracle_calls']} outside "
            f"[{singles_and_tests}, {singles_and_tests + horizon}]"
        )
    return problems


def set_up(workload: Workload, seed: int, speed: HostSpeed) -> tuple[list[Case], float]:
    """Build the corpus several times; set-up time is the median build.

    Each case's build time is scaled by the host slowdown around it, the same
    way operations are.
    """
    durations = []
    texts = None
    speed.sample(CALIBRATION_WINDOW)
    for _ in range(SETUP_REPEATS):
        cases = []
        seconds = 0.0
        builder = iter_corpus(workload, seed)
        while True:
            speed.sample_if_due()
            started = time.perf_counter()
            case = next(builder, None)
            elapsed = time.perf_counter() - started
            if case is None:
                break
            speed.sample_if_due()
            seconds += elapsed / speed.slowdown()
            cases.append(case)
        durations.append(seconds)
        built = [case.text for case in cases]
        if texts is not None and built != texts:
            raise RuntimeError("the corpus differs between two builds from one seed")
        texts = built
    return cases, statistics.median(durations)


@dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    setup_s: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[int, list[float]] = field(default_factory=dict)
    phi: dict[int, int] = field(default_factory=dict)
    layers: list[dict] = field(default_factory=list)
    peaks: list[dict] = field(default_factory=list)
    tracer: Tracer | None = None
    speed: HostSpeed = field(default_factory=HostSpeed)
    raw_samples: dict[int, list[float]] = field(default_factory=dict)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[Outcome, list[Case]]:
    speed = HostSpeed()
    cases, setup_s = set_up(workload, seed, speed)
    # `iknap solve` holds one instance; keep the corpus out of the collector's scans.
    gc.collect()
    gc.freeze()
    out = Outcome(workload, setup_s, tracer=Tracer() if trace else None, speed=speed)
    solve_untraced(cases[0].text, workload.solver, cases[0].solver_seed)  # warm-up
    started = time.perf_counter()
    op = 0
    while True:
        speed.sample_if_due()
        k = op % len(cases)
        case = cases[k]
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            report, text = solve_untraced(case.text, workload.solver, case.solver_seed)
            ms = (time.perf_counter() - t0) * 1000.0
            speed.sample_if_due()
            slowdown = speed.slowdown()
            problems = answer_problems(case, workload.solver, report, text)
            if trace:
                problems += _traced(out, op, case, report, text, ms)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            out.failed += 1
            out.problems.extend(f"case {k}: {p}" for p in problems[:3])
        else:
            out.samples.setdefault(k, []).append(ms / slowdown)
            out.raw_samples.setdefault(k, []).append(ms)
            out.phi[k] = report.phi
        op += 1
        elapsed = time.perf_counter() - started
        if (op >= len(cases) and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            return out, cases


def _traced(out: Outcome, op: int, case: Case, report, text: str, untraced_ms: float) -> list[str]:
    """Run the traced composition on the same case and hold it to the untraced one."""
    solver = out.workload.solver
    tracer = out.tracer
    tracer.op = op
    first = len(tracer.spans)
    t0 = time.perf_counter()
    traced = traced_solve(case.text, solver, case.solver_seed, tracer)
    traced_ms = (time.perf_counter() - t0) * 1000.0
    layers = op_layers(tracer.spans, first)
    problems = identity_problems(layers, traced)
    untraced_obj, traced_obj = json.loads(text), json.loads(traced.text)
    untraced_obj.pop("elapsed_ms")
    traced_obj.pop("elapsed_ms")
    if traced_obj != untraced_obj or traced.report.dropped_items != report.dropped_items:
        problems.append("traced composition disagrees with solve_ik_aon")
    n, dropped = traced.n, len(traced.report.dropped_items)
    out.layers.append(
        {
            "untraced_ms": untraced_ms,
            "traced_ms": traced_ms,
            "ms": layers.ms,
            "oracle_calls": layers.oracle_calls,
            "oracle_ms": layers.oracle_ms,
            "nodes": traced.nodes,
            "n": n,
            "dropped": dropped,
            "kept": len(traced.report.kept_items),
        }
    )
    if op % MEMORY_EVERY == 0:
        probe = Tracer(memory=True)
        tracemalloc.start()
        try:
            traced_solve(case.text, solver, case.solver_seed, probe)
        finally:
            tracemalloc.stop()
        out.peaks.append(probe.peaks)
    return problems


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def end_to_end(out: Outcome, cases: list[Case]) -> tuple[dict, dict]:
    """End-to-end metrics, plus the facts the summary states beside them."""
    latency = sorted(statistics.median(v) for v in out.samples.values())
    pct = tail_percentile(len(latency))
    reference = sum(cases[k].reference for k in out.phi)
    raw_latency = sorted(statistics.median(v) for v in out.raw_samples.values())
    raw = {
        "throughput_ips": len(raw_latency) / (sum(raw_latency) / 1000.0),
        "latency_ms.p50": percentile(raw_latency, 50),
        "latency_ms.tail": percentile(raw_latency, pct),
    }
    metrics = {
        "throughput_ips": (len(latency) / (sum(latency) / 1000.0), "1/s"),
        "latency_ms.p50": (percentile(latency, 50), "ms"),
        "latency_ms.tail": (percentile(latency, pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (out.setup_s, "s"),
        "value_ratio": (float(sum(out.phi.values()) / reference) if reference else 1.0, "ratio"),
    }
    facts = {
        "failed_ratio": out.failed / out.attempted,
        "tail_percentile": pct,
        "instances": len(latency),
        "operations": sum(len(v) for v in out.samples.values()),
        "slowdown": statistics.median(out.speed.samples) / NOMINAL_CALIBRATION_MS,
        "raw": raw,
    }
    return metrics, facts


def _mean(rows, get) -> float:
    return sum(get(r) for r in rows) / len(rows) if rows else 0.0


def per_layer(out: Outcome) -> tuple[dict, dict]:
    """Per-layer metrics (means per operation) and self time by span name."""
    rows = out.layers
    solver = out.workload.solver
    ms = lambda name: _mean(rows, lambda r: r["ms"].get(name, 0.0))  # noqa: E731
    calls = {s: sum(r["oracle_calls"][s] for r in rows) for s in ORACLE_PARENTS.values()}
    oracle_ms = {s: sum(r["oracle_ms"][s] for r in rows) for s in ORACLE_PARENTS.values()}
    tested = sum(r["n"] - r["dropped"] for r in rows)
    count = len(rows) or 1
    m: dict[str, tuple[float, str]] = {
        "serialize.decode_ms": (ms("serialize.decode"), "ms"),
        "serialize.encode_ms": (ms("serialize.encode"), "ms"),
        "instances.validate_ms": (ms("instances.validate"), "ms"),
        "instances.singletons_ms": (ms("instances.singletons"), "ms"),
        "instances.singletons_oracle_calls": (calls["singletons"] / count, "count"),
        "instances.dropped_ratio": (
            sum(r["dropped"] for r in rows) / max(1, sum(r["n"] for r in rows)),
            "ratio",
        ),
        "modularize.self_ms": (ms("modularize") - oracle_ms["modularize"] / count, "ms"),
        "modularize.oracle_ms": (oracle_ms["modularize"] / count, "ms"),
        "modularize.oracle_calls": (calls["modularize"] / count, "count"),
        "modularize.kept_ratio": (sum(r["kept"] for r in rows) / max(1, tested), "ratio"),
    }
    for step in ORACLE_PARENTS.values():
        m[f"oracles.calls.{step}"] = (calls[step] / count, "count")
        m[f"oracles.ms.{step}"] = (oracle_ms[step] / count, "ms")
        m[f"oracles.us_per_call.{step}"] = (
            1000.0 * oracle_ms[step] / calls[step] if calls[step] else 0.0,
            "us",
        )
    nodes = _mean(rows, lambda r: r["nodes"])
    exact = solver == "exact"
    m["solvers.exact_ms"] = (ms("solvers.exact"), "ms")
    m["solvers.exact_nodes"] = (nodes if exact else 0.0, "count")
    m["solvers.heuristic_ms"] = (ms("solvers.heuristic"), "ms")
    m["solvers.heuristic_moves"] = (0.0 if exact else nodes, "count")
    m["solvers.peak_kb"] = (_mean(out.peaks, lambda p: p["solvers." + solver]) / 1024.0, "kB")
    m["modularize.peak_kb"] = (_mean(out.peaks, lambda p: p["modularize"]) / 1024.0, "kB")
    m["instances.recheck_ms"] = (ms("instances.recheck"), "ms")
    m["instances.recheck_oracle_calls"] = (calls["recheck"] / count, "count")
    traced = _mean(rows, lambda r: r["traced_ms"])
    untraced = _mean(rows, lambda r: r["untraced_ms"])
    m["trace.op_ms"] = (traced, "ms")
    m["trace.untraced_op_ms"] = (untraced, "ms")
    m["trace.overhead_ms"] = (traced - untraced, "ms")
    self_ms = {name: ms(name) for name in {n for r in rows for n in r["ms"]}}
    for parent, step in ORACLE_PARENTS.items():
        self_ms[parent] -= oracle_ms[step] / count
    self_ms[ORACLE] = sum(oracle_ms.values()) / count
    return m, self_ms


def write_spans(tracer: Tracer, root: Path, workload: str, seed: int) -> Path:
    folder = root / ".perfbench"
    folder.mkdir(exist_ok=True)
    path = folder / f"spans-{workload}-{seed}.json"
    tracer.dump(path)
    return path
