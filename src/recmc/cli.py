"""Command line front end.

    recmc check FILE [flags]     run the checker on an .rpl program
    recmc gen NAME [flags]       print a built-in or random program

Exit codes:

    0  SAFE (check), or success (gen)
    1  UNSAFE
    2  UNKNOWN
    3  usage or input error, or a RecmcError raised by the checker,
       such as a proof or counterexample that failed validation;
       parentheses nested deeper than parser.MAX_NESTING (256) are an
       input error, reported with the line:col of the first '(' too deep;
       so is an output path that cannot be written, and check then
       prints no verdict
    4  internal error: any other exception; reported on one line

A crash thus never leaves with the code of a verdict.

`check --stats` prints a `recmc-stats 1` block, one `name value` line
per field, over all bounds of the run:

    steps         engine rule applications (sum + reach + query)
    sum           sum rule applications (new or duplicate summary facts)
    reach         reach rule applications (new or duplicate reachability facts)
    query         query rule applications (new child queries)
    mbp_calls     single-variable MBP eliminations made by the engine's
                  reach and query rules; not calls to project.project,
                  and none under --proj qe
    solver_calls  satisfiability queries the engine's rules asked, whether
                  solved or answered from the answers the check kept for
                  formulas it asked before; not those of interpolation,
                  the inductiveness check, counterexample replay or
                  witness validation.  No such query sits in an assert
                  statement, so the count is the same under python -O
    wall_ms       wall-clock milliseconds of the whole check, including
                  inductiveness, replay and validation

RECMC_LOG=debug mirrors the rule trace to stderr as it happens, and
logs the traceback of an internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import random
import sys
from contextlib import ExitStack
from fractions import Fraction

from .driver import Verdict, check
from .engine import EngineConfig
from .errors import RecmcError, RplSyntaxError, ValidationError
from .generators import (
    gen_bebop,
    gen_gpdr_divergence,
    overview,
    overview_bad,
    random_arith_program,
    random_bool_program,
)
from .parser import parse, print_formula, print_program

EXIT_SAFE, EXIT_UNSAFE, EXIT_UNKNOWN, EXIT_ERROR, EXIT_INTERNAL = 0, 1, 2, 3, 4

WITNESS_HEADER = "recmc-witness 1"
STATS_HEADER = "recmc-stats 1"
STAT_FIELDS = ("steps", "sum", "reach", "query", "mbp_calls", "solver_calls", "wall_ms")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def emit_witness(verdict: Verdict, sink) -> None:
    """Line-oriented, versioned, field order fixed for diffing."""
    w = sink.write
    w(WITNESS_HEADER + "\n")
    w(f"verdict {verdict.status}\n")
    w(f"bound {verdict.bound}\n")
    if verdict.status == "UNKNOWN":
        w(f"reason {verdict.reason}\n")
    elif verdict.status == "SAFE":
        w("proof\n")
        for name in verdict.proof.env:
            w(f"  procedure {name} {print_formula(verdict.proof.env[name])}\n")
        w("end\n")
    else:
        w("counterexample\n")
        counter = [0]

        def emit(node, depth):
            nid = counter[0]
            counter[0] += 1
            pad = "  " * (depth + 1)
            w(f"{pad}node {nid} proc {node.proc} path {node.path_index} "
              f"children {len(node.children)}\n")
            for var, val in sorted(node.values.items(), key=lambda it: it[0].key()):
                w(f"{pad}  value {var.name} {_fmt_value(val)}\n")
            for child in node.children:
                emit(child, depth + 1)

        emit(verdict.cex.root, 0)
        w("end\n")


def emit_stats(stats: dict, sink) -> None:
    sink.write(STATS_HEADER + "\n")
    for key in STAT_FIELDS:
        sink.write(f"{key} {stats.get(key, 0)}\n")


def emit_trace(trace, sink) -> None:
    for event in trace:
        sink.write(event.line() + "\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="recmc")
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="check an .rpl program")
    chk.add_argument("file")
    chk.add_argument("--max-bound", type=int, default=64)
    chk.add_argument("--mode", choices=["auto", "bool", "rat", "int"], default="auto")
    chk.add_argument("--proj", choices=["mbp", "qe"], default="mbp")
    chk.add_argument("--witness", metavar="PATH")
    chk.add_argument("--trace", metavar="PATH")
    chk.add_argument("--stats", action="store_true")
    chk.add_argument("--step-budget", type=int, default=100_000)

    gen = sub.add_parser("gen", help="print a built-in or random program")
    gen.add_argument(
        "name", choices=["overview", "overview-bad", "bebop", "gpdr", "random"]
    )
    gen.add_argument("--n", type=int, default=3, help="bebop chain length")
    gen.add_argument("--unsafe", action="store_true", help="bebop unsafe variant")
    gen.add_argument("--mode", choices=["bool", "rat", "int"], default="int")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", metavar="PATH")
    return ap


def _configure_logging():
    level = os.environ.get("RECMC_LOG", "").lower()
    if level in ("debug", "info", "warning", "error"):
        logging.basicConfig(stream=sys.stderr, level=getattr(logging, level.upper()))


def _cannot_write(exc: OSError) -> int:
    print(f"recmc: cannot write {exc.filename}: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_check(args) -> int:
    for flag, value in (("--max-bound", args.max_bound), ("--step-budget", args.step_budget)):
        if value < 0:
            print(f"recmc: {flag} must not be negative", file=sys.stderr)
            return EXIT_ERROR
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"recmc: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        unit = parse(text)
    except (RplSyntaxError, ValidationError) as exc:
        print(f"recmc: {args.file}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.mode != "auto" and args.mode != unit.mode.value:
        print(
            f"recmc: program declares mode {unit.mode.value}, --mode {args.mode} given",
            file=sys.stderr,
        )
        return EXIT_ERROR
    config = EngineConfig(proj=args.proj, step_budget=args.step_budget)
    with ExitStack() as outputs:
        # opened before the check, so an unwritable path prints no verdict
        try:
            witness, trace = (
                outputs.enter_context(open(path, "w", encoding="utf-8")) if path else None
                for path in (args.witness, args.trace)
            )
        except OSError as exc:
            return _cannot_write(exc)
        try:
            verdict = check(unit.program, unit.phi_safe, args.max_bound, config)
        except RecmcError as exc:
            print(f"recmc: {exc}", file=sys.stderr)
            return EXIT_ERROR

        print(verdict.status if verdict.status != "UNKNOWN" else f"UNKNOWN ({verdict.reason})")
        if verdict.status == "SAFE":
            for name, f in verdict.proof.env.items():
                print(f"  {name}: {print_formula(f)}")
        if witness:
            emit_witness(verdict, witness)
        if trace:
            emit_trace(verdict.trace, trace)
    if args.stats:
        emit_stats(verdict.stats, sys.stdout)
    return {"SAFE": EXIT_SAFE, "UNSAFE": EXIT_UNSAFE}.get(verdict.status, EXIT_UNKNOWN)


def _cmd_gen(args) -> int:
    if args.name == "overview":
        unit = overview()
    elif args.name == "overview-bad":
        unit = overview_bad()
    elif args.name == "bebop":
        if args.n < 1:
            print("recmc: --n must be at least 1", file=sys.stderr)
            return EXIT_ERROR
        unit = gen_bebop(args.n, safe=not args.unsafe)
    elif args.name == "gpdr":
        unit = gen_gpdr_divergence()
    else:
        rng = random.Random(args.seed)
        if args.mode == "bool":
            unit = random_bool_program(rng)
        else:
            unit = random_arith_program(rng, args.mode)
    text = print_program(unit.program, unit.phi_safe)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(exc)
    else:
        sys.stdout.write(text)
    return EXIT_SAFE


def run_cli(argv=None) -> int:
    _configure_logging()
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_SAFE
    command = _cmd_check if args.command == "check" else _cmd_gen
    try:
        return command(args)
    except Exception as exc:  # a crash must not read as a verdict
        logging.getLogger("recmc").debug("internal error", exc_info=True)
        print(f"recmc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
