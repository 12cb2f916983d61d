"""Command-line surface: generate, solve, verify, reduce-vc, bench.

Thin adapters only: parsing, dispatch, and serialization.  All randomness
flows from one seed (fixed default, never time-based), so identical
invocations produce identical files; elapsed_ms is the only
nondeterministic report field.

Exit codes are decided in one place, the _EXITS table that main applies;
an exception it does not list keeps its traceback.  For solve: 0 success,
2 oracle-contract violation, 3 size or budget limits exceeded, 5 internal
solver failure (a solver whose answer fails its recheck, a bug signal,
printed as one line).  verify exits 1 on any mismatch.  Both exit 4 on
malformed input: a JSON file nested past the interpreter's recursion
limit, an instance that fails validation, a file missing a key,
a non-integer n or T, an oracle that is not a JSON object, whose ground
misses an instance item or that holds a non-integer or boolean profit,
cap, item id or vertex, a coverage oracle with a repeated item id or
unequal items and vertices, a chain whose insertion times are not
integers in 1..T or of the wrong length, a "sets" chain with a
non-integer or boolean item id, a report that is not an object or whose
kept_items is not a list of integers, or a non-integer or boolean phi or
phi_bar.  reduce-vc, the one command that builds the vertex-cover
instance (-T sets its horizon, default 1), exits 4 on a graph file with a
token that is not ASCII digits after an optional minus, a negative n or m
or an n above 1,000,000 in its header or a vertex of degree above 3, or a
--k outside 1..|V|.
Usage errors exit 2: generate rejects --n or -T below 1, reduce-vc a -T
below 1, every command an integer flag (--n, -T, --seed, --k) that is not
ASCII digits after an optional minus (so 1_2, +2 and non-ASCII digits are
refused), every command an option it does not take (such as --graph or
--k for generate), and bench a --solvers list that is empty or
names a solver outside auto, exact, heuristic and brute.  bench exits 1
with an io error when --instances is not a directory; it records a
malformed instance file as one error row per solver and exits 1 only
when every row failed.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from pathlib import Path

from .errors import (
    BudgetExceeded,
    InvalidInstance,
    LimitsExceeded,
    OracleViolation,
    SolverFailure,
    UnknownItemId,
)
from .generators import FAMILIES, make_family_instance
from .hardness import build_reduction, read_edge_list
from .instances import ensure_valid, profit_partition
from .modularize import SOLVERS, solve_ik_aon, verify_solution
from .oracles import _parse_int
from .serialize import dumps_canonical, load_instance, load_report, report_to_obj, save_instance
from .solvers import SolveLimits, brute_force_chains

DEFAULT_SEED = 2024

# What decoding a malformed instance, report or graph file raises.
MALFORMED = (KeyError, TypeError, ValueError)


class _Malformed(Exception):
    """A file or argument that _read could not load."""


# main prints the prefix of the first row whose types match a command's
# exception, then the message, and exits with its code.
_EXITS = (
    ((_Malformed, InvalidInstance, UnknownItemId), 4, "malformed input"),
    ((OracleViolation,), 2, "oracle-contract violation"),
    ((LimitsExceeded, BudgetExceeded), 3, "limits exceeded"),
    ((SolverFailure,), 5, "internal solver failure"),
    ((OSError,), 1, "io error"),
)


def _limits(text: str) -> SolveLimits:
    """argparse type for --limits: comma-separated key=value pairs."""
    pairs = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"entries must look like key=value, got {part!r}"
            )
        pairs[key.strip()] = value.strip()
    try:
        return SolveLimits.from_mapping(pairs)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _int(text: str) -> int:
    """argparse type for --seed and --k: ASCII digits after an optional minus."""
    try:
        return _parse_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _positive(text: str) -> int:
    """argparse type for --n and -T: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _names(text: str) -> tuple[str, ...]:
    """argparse type for --solvers: a non-empty comma-separated list of SOLVERS."""
    names = tuple(filter(None, (s.strip() for s in text.split(","))))
    if not names:
        raise argparse.ArgumentTypeError("needs at least one solver name")
    unknown = [name for name in names if name not in SOLVERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown solver {', '.join(map(repr, unknown))}; known: {', '.join(SOLVERS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iknap",
        description="Incremental knapsack with all-or-nothing submodular profits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.set_defaults(run=cmd_generate)
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--n", type=_positive, default=8,
                     help="number of items (default %(default)s)")
    gen.add_argument("-T", "--horizon", type=_positive, default=2,
                     help="periods (default %(default)s)")
    gen.add_argument("--seed", type=_int, default=DEFAULT_SEED,
                     help="random seed (default %(default)s)")
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--quiet", action="store_true")

    solve = sub.add_parser("solve", help="run the full pipeline on an instance file")
    solve.set_defaults(run=cmd_solve)
    solve.add_argument("--instance", type=Path, required=True)
    solve.add_argument("--solver", default="auto", choices=SOLVERS)
    solve.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    solve.add_argument("--limits", type=_limits, default="")
    solve.add_argument("--out", type=Path, help="report path (stdout if omitted)")
    solve.add_argument("--quiet", action="store_true")

    verify = sub.add_parser("verify", help="recheck a solve report against its instance")
    verify.set_defaults(run=cmd_verify)
    verify.add_argument("--instance", type=Path, required=True)
    verify.add_argument("--report", type=Path, required=True)
    verify.add_argument("--quiet", action="store_true")

    reduce = sub.add_parser("reduce-vc", help="build an instance from a graph file")
    reduce.set_defaults(run=cmd_reduce)
    reduce.add_argument("--graph", type=Path, required=True)
    reduce.add_argument("--k", type=_int, required=True)
    reduce.add_argument("-T", "--horizon", type=_positive, default=1,
                        help="periods (default %(default)s)")
    reduce.add_argument("--out", type=Path, required=True)
    reduce.add_argument("--quiet", action="store_true")

    bench = sub.add_parser("bench", help="run solvers over a directory of instances")
    bench.set_defaults(run=cmd_bench)
    bench.add_argument("--instances", type=Path, required=True)
    bench.add_argument("--solvers", type=_names, default="exact,heuristic")
    bench.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    bench.add_argument("--limits", type=_limits, default="")
    bench.add_argument("--out", type=Path, required=True)
    bench.add_argument("--quiet", action="store_true")
    return parser


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _read(load, *args):
    """load(*args), with what MALFORMED names raised as _Malformed."""
    try:
        return load(*args)
    except MALFORMED as exc:
        raise _Malformed(f"missing key {exc}" if isinstance(exc, KeyError) else exc) from exc


def cmd_generate(args: argparse.Namespace) -> int:
    inst = make_family_instance(args.family, args.n, args.horizon, random.Random(args.seed))
    save_instance(inst, args.out)
    classes = len(profit_partition(inst))
    _say(
        args,
        f"{args.family}: n={len(inst)} T={inst.horizon} classes={classes} "
        f"oracle={inst.oracle.descriptor['kind']} -> {args.out}",
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _read(load_instance, args.instance)
    report = solve_ik_aon(inst, solver=args.solver, limits=args.limits, seed=args.seed)
    payload = dumps_canonical(report_to_obj(report, inst.item_ids))
    if args.out is None:
        sys.stdout.write(payload)
    else:
        args.out.write_text(payload, encoding="utf-8")
        _say(
            args,
            f"solved with {report.solver}: phi={report.phi} "
            f"oracle_calls={report.oracle_calls} -> {args.out}",
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read(load_instance, args.instance)
    ensure_valid(inst)
    chain, phi, phi_bar = _read(load_report, args.report, inst.item_ids, inst.horizon)
    mismatches = verify_solution(inst, chain, phi, phi_bar)
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 1
    _say(args, f"report verified: phi={phi}, chain feasible")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    graph = _read(read_edge_list, args.graph)
    inst = _read(build_reduction, graph, args.k, args.horizon)
    save_instance(inst, args.out)
    _say(
        args,
        f"vc-reduction: |V|={graph.n_vertices} |E|={len(graph.edges)} k={args.k} "
        f"-> {args.out}",
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.instances.is_dir():
        raise OSError(f"--instances {args.instances} is not a directory")
    paths = sorted(args.instances.glob("*.json"))
    rows: list[dict] = []
    failures = 0
    for path in paths:
        try:
            inst = load_instance(path)
            ensure_valid(inst)
            brute_value, _ = brute_force_chains(inst, args.limits.max_states_brute)
        except BudgetExceeded:
            brute_value = None
        except Exception as exc:  # a bad file gives one error row per solver
            inst, file_error = None, f"error:{type(exc).__name__}"
        for solver in args.solvers:
            row = {
                "instance": path.name,
                "solver": solver,
                "value": "",
                "ratio_to_brute": "",
                "oracle_calls": "",
                "elapsed_ms": "",
                "status": "ok" if inst is not None else file_error,
            }
            if inst is not None:
                try:
                    report = solve_ik_aon(
                        inst, solver=solver, limits=args.limits, seed=args.seed
                    )
                except Exception as exc:  # record per-row, keep going
                    row["status"] = f"error:{type(exc).__name__}"
                else:
                    row["value"] = report.phi
                    row["oracle_calls"] = report.oracle_calls
                    row["elapsed_ms"] = f"{report.elapsed_ms:.3f}"
                    if brute_value is not None and brute_value > 0:
                        row["ratio_to_brute"] = f"{report.phi / brute_value:.6f}"
                    elif brute_value == 0:
                        row["ratio_to_brute"] = "1.000000" if report.phi == 0 else ""
            failures += row["status"] != "ok"
            rows.append(row)
    fields = ["instance", "solver", "value", "ratio_to_brute",
              "oracle_calls", "elapsed_ms", "status"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    _say(args, f"wrote {len(rows)} rows -> {args.out}")
    return 1 if rows and failures == len(rows) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        for types, code, prefix in _EXITS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
