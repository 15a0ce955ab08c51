"""Built-in and random program generators.

The built-ins return SourceUnits via the regular parser, so everything
the engine sees went through the same front door:

* overview / overview_bad: the three-procedure tandem/decrement program
  used throughout the docs; the bad variant tightens the property past
  what the program guarantees.
* bebop family: main calls P1 twice, each Pi calls P(i+1) twice, the
  last procedure flips its bit.  The call tree is exponential in N
  while the summarizing engine stays polynomial.
* gpdr divergence: a three-procedure integer program whose bounded
  check defeats over-approximation-only engines.  Summaries that list
  reachable points (y0 = k and y = k + 1) never become inductive;
  Farkas interpolation generalizes them to y0 + 1 <= y, y <= x and
  x0 + 1 <= x1, which prove it safe from stack bound 1.

Random program generators keep everything small (procedures, paths,
coefficients) but allow recursion and multiple calls per path; they are
the fuel for the differential and termination suites.
"""

from __future__ import annotations

import random
from importlib import resources
from typing import List

from .parser import SourceUnit, parse


def program_text(name: str) -> str:
    """Source of a shipped .rpl program (overview, overview_bad, ...)."""
    return resources.files(__package__).joinpath(f"programs/{name}.rpl").read_text()


def shipped(name: str) -> SourceUnit:
    return parse(program_text(name))


def overview() -> SourceUnit:
    return shipped("overview")


def overview_bad() -> SourceUnit:
    return shipped("overview_bad")


def gen_bebop(n: int, safe: bool = True) -> SourceUnit:
    """Boolean chain with an exponential call tree.

    main calls P1 twice, each Pi calls P(i+1) twice, PN negates its bit;
    the composition flips 2^N times, i.e. is the identity, so equality
    of input and output is the valid property and its negation is the
    paired unsafe variant.
    """
    assert n >= 1
    lines = ["(program", "  (mode bool)"]
    lines += [
        "  (procedure M",
        "    (in x0) (out x)",
        "    (local t)",
        "    (body (and (call P1 x0 t) (call P1 t x))))",
    ]
    for i in range(1, n):
        lines += [
            f"  (procedure P{i}",
            "    (in x0) (out x)",
            "    (local t)",
            f"    (body (and (call P{i + 1} x0 t) (call P{i + 1} t x))))",
        ]
    lines += [
        f"  (procedure P{n}",
        "    (in x0) (out x)",
        "    (body (or (and x0 (not x)) (and (not x0) x))))",
    ]
    same = "(or (and x0 x) (and (not x0) (not x)))"
    diff = "(or (and x0 (not x)) (and (not x0) x))"
    lines += ["  (main M)", f"  (assert-safe {same if safe else diff}))"]
    return parse("\n".join(lines))


def gen_gpdr_divergence() -> SourceUnit:
    return shipped("gpdr_divergence")


# --------------------------------------------------------------------------
# Random programs for the property suites.
# --------------------------------------------------------------------------


def _bool_expr(rng: random.Random, names: List[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.4:
        v = rng.choice(names)
        return v if rng.random() < 0.5 else f"(not {v})"
    op = rng.choice(["and", "or"])
    k = rng.randint(2, 3)
    return f"({op} " + " ".join(_bool_expr(rng, names, depth - 1) for _ in range(k)) + ")"


def random_bool_program(rng: random.Random, max_procs: int = 3) -> SourceUnit:
    n_procs = rng.randint(1, max_procs)
    names = [f"p{i}" for i in range(n_procs)]
    arities = {}
    for name in names:
        n_in = rng.randint(1, 2)
        n_out = rng.randint(1, 2) if n_in == 1 else 1
        arities[name] = (n_in, n_out)
    lines = ["(program", "  (mode bool)"]
    for idx, name in enumerate(names):
        n_in, n_out = arities[name]
        ins = [f"a{i}" for i in range(n_in)]
        outs = [f"b{i}" for i in range(n_out)]
        locs = [f"t{i}" for i in range(rng.randint(0, 1))]
        everything = ins + outs + locs
        paths = []
        for _ in range(rng.randint(1, 4)):
            conj = [_bool_expr(rng, everything, 1) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(0, 2) if idx + 1 <= n_procs else 0):
                callee = rng.choice(names)
                cin, cout = arities[callee]
                args = [rng.choice(everything) for _ in range(cin + cout)]
                conj.append(f"(call {callee} " + " ".join(args) + ")")
            paths.append("(and " + " ".join(conj) + ")" if len(conj) > 1 else conj[0])
        body = paths[0] if len(paths) == 1 else "(or " + " ".join(paths) + ")"
        lines += [
            f"  (procedure {name}",
            "    (in " + " ".join(ins) + ") (out " + " ".join(outs) + ")"
            + (" (local " + " ".join(locs) + ")" if locs else ""),
            f"    (body {body}))",
        ]
    main = names[0]
    n_in, n_out = arities[main]
    formals = [f"a{i}" for i in range(n_in)] + [f"b{i}" for i in range(n_out)]
    prop = _bool_expr(rng, formals, 1)
    lines += [f"  (main {main})", f"  (assert-safe {prop}))"]
    return parse("\n".join(lines))


def _arith_atom(rng: random.Random, names: List[str], mode: str) -> str:
    op = rng.choice(["<", "<=", "="])
    k = rng.randint(1, 2)
    terms = []
    for _ in range(k):
        c = rng.choice([1, 1, 2, -1])
        v = rng.choice(names)
        terms.append(v if c == 1 else f"(* {c} {v})")
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    rhs = str(rng.randint(-3, 3))
    if mode == "int" and rng.random() < 0.15:
        return f"(divides {rng.choice([2, 3])} (+ {rng.choice(names)} {rng.randint(0, 2)}))"
    return f"({op} {lhs} {rhs})"


def random_arith_program(
    rng: random.Random, mode: str, max_procs: int = 3
) -> SourceUnit:
    assert mode in ("rat", "int")
    n_procs = rng.randint(1, max_procs)
    names = [f"p{i}" for i in range(n_procs)]
    arities = {name: (1, 1) for name in names}
    lines = ["(program", f"  (mode {mode})"]
    for name in names:
        ins, outs = ["a0"], ["b0"]
        locs = [f"t{i}" for i in range(rng.randint(0, 2))]
        everything = ins + outs + locs
        paths = []
        for _ in range(rng.randint(1, 3)):
            conj = [_arith_atom(rng, everything, mode) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 2)):
                callee = rng.choice(names)
                args = [rng.choice(everything) for _ in range(2)]
                conj.append(f"(call {callee} " + " ".join(args) + ")")
            paths.append("(and " + " ".join(conj) + ")" if len(conj) > 1 else conj[0])
        body = paths[0] if len(paths) == 1 else "(or " + " ".join(paths) + ")"
        lines += [
            f"  (procedure {name}",
            "    (in a0) (out b0)" + (" (local " + " ".join(locs) + ")" if locs else ""),
            f"    (body {body}))",
        ]
    prop = _arith_atom(rng, ["a0", "b0"], mode)
    lines += [f"  (main {names[0]})", f"  (assert-safe {prop}))"]
    return parse("\n".join(lines))
