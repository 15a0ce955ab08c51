"""Programs, assertion maps, environments, and call instantiation.

A program is a finite family of procedures with a designated main.  A
procedure body is a quantifier-free NNF formula over its formals and
locals in which call atoms occur only positively; the paths of the body
are its DNF disjuncts, computed once.  Nothing here checks these rules:
parser.parse is the one entry point that reads a program, and it builds
only programs that keep them.

Assertion maps store facts per (procedure, stack bound).  Two instances
drive the engine: the reachability map (under-approximations, each
model of a fact is a real execution within the bound) and the summary
map (over-approximations).  A reachability fact also records the index
of the body path it was projected from, which is all that counterexample
replay needs.  From a map and a bound we build the two instantiation
environments, plain dicts from procedure name to formula:

    under(m, b):  Sigma_P  ->  OR  of facts at bounds <= b   (empty: false)
    over(m, b):   Sigma_P  ->  AND of facts at bounds >= b   (empty: true)

and bound -1 maps every symbol to false in both.  Instantiating a
formula under an environment replaces each call atom by the callee's
formula with formals renamed to the arguments; every procedure's
variables are namespaced by the procedure name, so renaming never
captures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import ArityMismatch, TooLarge
from .formula import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    Call,
    Formula,
    Lit,
    Or,
    Path,
    Sort,
    canon_key,
    dnf_paths,
    f_and,
    f_or,
    rename_vars,
)


@dataclass(frozen=True)
class Procedure:
    name: str
    inputs: tuple
    outputs: tuple
    locals_: tuple
    body: Formula
    paths: tuple

    @property
    def formals(self) -> tuple:
        return self.inputs + self.outputs

    @property
    def all_vars(self) -> tuple:
        return self.inputs + self.outputs + self.locals_


def make_procedure(name, inputs, outputs, locals_, body) -> Procedure:
    paths = tuple(dnf_paths(body))
    return Procedure(name, tuple(inputs), tuple(outputs), tuple(locals_), body, paths)


@dataclass
class Program:
    procedures: Dict[str, Procedure]  # insertion-ordered
    main: str
    mode: Sort

    def proc(self, name: str) -> Procedure:
        return self.procedures[name]


# --------------------------------------------------------------------------
# Facts and assertion maps.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    fact_id: int
    proc: str
    bound: int
    formula: Formula
    path_index: Optional[int] = None  # reachability facts: the body path that produced it


class AssertionMap:
    """Facts per (procedure, bound); deduplicated, never retracted."""

    def __init__(self):
        self._by_proc: Dict[str, Dict[int, List[Fact]]] = {}
        self._keys: Dict[tuple, Fact] = {}  # (proc, bound, canon_key) -> first fact
        self._next = itertools.count()
        self.version = 0

    def add(self, proc: str, bound: int, formula: Formula, path_index=None):
        """Returns (fact, added); a canonically equal formula at the same
        (proc, bound) is not stored twice."""
        key = (proc, bound, canon_key(formula))
        fact = self._keys.get(key)
        if fact is not None:
            return fact, False
        fact = Fact(next(self._next), proc, bound, formula, path_index)
        self._keys[key] = fact
        self._by_proc.setdefault(proc, {}).setdefault(bound, []).append(fact)
        self.version += 1
        return fact, True

    def at(self, proc: str, bound: int) -> List[Fact]:
        return list(self._by_proc.get(proc, {}).get(bound, ()))

    def up_to(self, proc: str, bound: int) -> List[Fact]:
        """Facts at bounds <= bound, in (bound, insertion) order."""
        out = []
        for b in sorted(self._by_proc.get(proc, {})):
            if b <= bound:
                out.extend(self._by_proc[proc][b])
        return out

    def at_least(self, proc: str, bound: int) -> List[Fact]:
        out = []
        for b in sorted(self._by_proc.get(proc, {})):
            if b >= bound:
                out.extend(self._by_proc[proc][b])
        return out

    def items(self):
        for proc, per_bound in self._by_proc.items():
            for bound in sorted(per_bound):
                for fact in per_bound[bound]:
                    yield fact

    def __len__(self):
        return len(self._keys)


def under_env(rho: AssertionMap, bound: int, program: Program) -> Dict[str, Formula]:
    if bound < 0:
        return {name: FALSE for name in program.procedures}
    return {
        name: f_or([f.formula for f in rho.up_to(name, bound)])
        for name in program.procedures
    }


def over_env(sigma: AssertionMap, bound: int, program: Program) -> Dict[str, Formula]:
    if bound < 0:
        return {name: FALSE for name in program.procedures}
    return {
        name: f_and([f.formula for f in sigma.at_least(name, bound)])
        for name in program.procedures
    }


def instantiate(f, env: Dict[str, Formula], program: Program) -> Formula:
    """Replace every call atom by the environment formula of its callee,
    with the callee's formals renamed to the call's arguments."""
    if isinstance(f, Path):
        return instantiate(f.formula(), env, program)
    if isinstance(f, Call):
        callee = program.proc(f.callee)
        if len(f.args) != len(callee.formals):
            raise ArityMismatch(f.callee)
        mapping = dict(zip(callee.formals, f.args))
        return rename_vars(env[f.callee], mapping)
    if isinstance(f, And):
        return f_and(instantiate(a, env, program) for a in f.args)
    if isinstance(f, Or):
        return f_or(instantiate(a, env, program) for a in f.args)
    return f


def instantiate_path_mixed(
    path: Path,
    flip: int,
    env_over: Dict[str, Formula],
    env_under: Dict[str, Formula],
    extra: Formula,
    program: Program,
) -> Formula:
    """Path literals plus calls: the first `flip` calls instantiated with
    env_over, the rest with env_under, conjoined with extra."""
    parts = [Lit(l) for l in path.literals]
    for i, call in enumerate(path.calls):
        env = env_over if i < flip else env_under
        parts.append(instantiate(call, env, program))
    parts.append(extra)
    return f_and(parts)


# --------------------------------------------------------------------------
# Explicit bounded semantics for boolean programs, by enumerating every
# valuation: the oracle of the tests and the benchmark.  check never uses it.
# --------------------------------------------------------------------------

ENUM_GUARD_BITS = 16


def _eval_with_calls(f: Formula, values, interp) -> bool:
    if isinstance(f, Lit):
        assert isinstance(f.lit, BoolLit)
        return values[f.lit.var] == f.lit.positive
    if isinstance(f, And):
        return all(_eval_with_calls(a, values, interp) for a in f.args)
    if isinstance(f, Or):
        return any(_eval_with_calls(a, values, interp) for a in f.args)
    if isinstance(f, Call):
        return tuple(values[a] for a in f.args) in interp.get(f.callee, frozenset())
    return f == TRUE


def bool_bounded_semantics(program: Program, name: str, bound: int) -> frozenset:
    """The set of formal valuations reachable with stack depth <= bound,
    computed by explicit enumeration.  Only for boolean programs."""
    assert program.mode is Sort.BOOL and bound >= 0
    for p in program.procedures.values():
        if len(p.all_vars) > ENUM_GUARD_BITS:
            raise TooLarge(p.name)
    interp: Dict[str, frozenset] = {}
    for b in range(bound + 1):
        prev = interp if b > 0 else {}
        interp = {
            q.name: _enumerate_proc(q, prev) for q in program.procedures.values()
        }
    return interp[name]


def _enumerate_proc(p: Procedure, interp) -> frozenset:
    out = set()
    vars_ = p.all_vars
    nf = len(p.formals)
    for bits in itertools.product((False, True), repeat=len(vars_)):
        values = dict(zip(vars_, bits))
        if _eval_with_calls(p.body, values, interp):
            out.add(bits[:nf])
    return frozenset(out)


def bool_unbounded_semantics(program: Program) -> Dict[str, frozenset]:
    """Least fixed point of the bounded semantics (stabilizes since the
    state space is finite)."""
    assert program.mode is Sort.BOOL
    interp: Dict[str, frozenset] = {name: frozenset() for name in program.procedures}
    while True:
        nxt = {q.name: _enumerate_proc(q, interp) for q in program.procedures.values()}
        if nxt == interp:
            return interp
        interp = nxt
