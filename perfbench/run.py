#!/usr/bin/env python3
"""Benchmark for iknap: seeded corpora solved in-process, every answer checked.

Run from the root of a checkout, which must hold ``src/iknap``:

    python3 perfbench/run.py --workload exact-bb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One operation is what ``iknap solve`` does minus process start-up: decode
the instance JSON, ``solve_ik_aon`` with the workload's solver named
explicitly, encode the report.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` also runs a traced copy of the pipeline on every operation and
prints the per-layer metrics, with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--self-test`` runs every workload at toy sizes in both modes and checks
the printed metrics against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class BenchError(RuntimeError):
    """A run that produced no result at all."""


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def bench(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run; prints a readable summary and returns the result object."""
    import measure  # imports iknap, so only once src/ is on the path

    out, cases = measure.run(workload, seed, seconds, trace)
    if not out.samples:
        raise BenchError("no operation succeeded: " + "; ".join(out.problems[:5]))
    print(f"workload {workload.name}: solver={workload.solver} seed={seed} "
          f"corpus={len(cases)} attempted={out.attempted} failed={out.failed}")
    for line in out.problems[:20]:
        print("  FAILED", line)
    if trace:
        metrics, self_ms = measure.per_layer(out)
        op_ms = metrics["trace.op_ms"][0]
        print(f"  traced operations: {len(out.layers)}, memory probes: {len(out.peaks)}")
        print("  self time per layer (ms/op, share of traced op):")
        for name, value in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print(f"    {name:24s} {value:10.3f}  {value / op_ms:6.1%}")
        path = measure.write_spans(out.tracer, ROOT, workload.name, seed)
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        metrics, facts = measure.end_to_end(out, cases)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'failed_ratio':36s} {facts['failed_ratio']:14.6g} ratio")
        print(f"  tail is p{facts['tail_percentile']:g} over {facts['instances']} instances "
              f"({facts['operations']} operations)")
        print(f"  host slowdown {facts['slowdown']:.4f}; unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in facts["raw"].items()))
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": _metrics_json(metrics),
    }


def self_test() -> int:
    """Toy-size runs of every workload, traced and untraced, held to BENCHMARK.json."""
    from workloads import ALL_FAMILIES, TOY_WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    if {w["name"] for w in spec["workloads"]} != set(TOY_WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    families = {w.slot(k)[0] for w in TOY_WORKLOADS.values() for k in range(w.corpus)}
    if families != set(ALL_FAMILIES):
        failures.append(f"toy corpora cover {sorted(families)}")
    for name, workload in TOY_WORKLOADS.items():
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    print(json.dumps(bench(workload, seed=1, seconds=0.0, trace=trace)))
            except BenchError as exc:
                failures.append(f"{label}: {exc}")
                continue
            text = printed.getvalue()
            last = json.loads(text.strip().splitlines()[-1])
            problems = []
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"metrics {sorted(got.items())} != BENCHMARK.json")
            if last["failed"] or not last["correct"]:
                problems.append(f"{last['failed']} failed operations\n{text}")
            if not trace and "failed_ratio" not in text:
                problems.append("failed_ratio not printed")
            if not trace and name == "exact-bb" and last["metrics"]["value_ratio"]["value"] != 1:
                problems.append("value_ratio is not 1")
            failures.extend(f"{label}: {p}" for p in problems)
            print(f"{'FAIL' if problems else 'ok  '} {label}: "
                  f"{last['attempted']} operations, {len(last['metrics'])} metrics")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "iknap" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'iknap'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
