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
replay needs.  A map keeps each procedure's levels sorted, so a range of
levels is found by bisection, and a log of the facts in the order they
were added tells a reader what changed since it last looked, down to the
lowest level whose conjunction a summary fact changed.  From a map and a
bound we build the two instantiation environments, dicts from procedure
name to formula, for every procedure or for the ones named:

    under(m, b):  Sigma_P  ->  OR  of facts at bounds <= b   (empty: false)
    over(m, b):   Sigma_P  ->  AND of facts at bounds >= b   (empty: true)

in (bound, insertion) order, and bound -1 maps every symbol to false in
both.  Instantiating a formula under an environment replaces each call
atom by the callee's formula with formals renamed to the arguments;
every procedure's variables are namespaced by the procedure name, so
renaming never captures.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import ArityMismatch, TooLarge
from .formula import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    Bottom,
    Call,
    Formula,
    Lit,
    Or,
    Path,
    Sort,
    Top,
    canon_key,
    dnf_paths,
    f_and,
    f_or,
    mk_lit,
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

    @cached_property
    def callers(self) -> Dict[str, List[str]]:
        """Per procedure, the procedures whose bodies call it, in order."""
        out: Dict[str, List[str]] = {name: [] for name in self.procedures}
        for name, proc in self.procedures.items():
            for callee in dict.fromkeys(c.callee for path in proc.paths for c in path.calls):
                out[callee].append(name)
        return out

    @cached_property
    def rank(self) -> Dict[str, int]:
        """Per procedure, its position in program order."""
        return {name: i for i, name in enumerate(self.procedures)}


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
    """Facts per (procedure, level); deduplicated, never retracted.

    Each procedure's levels are kept in ascending order.  `log` lists the
    facts in the order they were added; changed_from reads it.
    """

    def __init__(self):
        self._by_proc: Dict[str, Dict[int, List[Fact]]] = {}
        self._levels: Dict[str, List[int]] = {}  # ascending
        self._keys: Dict[tuple, Fact] = {}  # (proc, bound, canon_key) -> first fact
        self._next = itertools.count()
        self.log: List[Fact] = []
        self._lowest: List[int] = []  # changed_from of log[i], for the facts read so far
        self._where: Dict[tuple, List[int]] = {}  # (proc, conjunct) -> its levels
        self._top_false: Dict[str, int] = {}  # proc -> highest level of a FALSE fact

    def add(self, proc: str, bound: int, formula: Formula, path_index=None):
        """Returns (fact, added); a canonically equal formula at the same
        (proc, bound) is not stored twice."""
        key = (proc, bound, canon_key(formula))
        fact = self._keys.get(key)
        if fact is not None:
            return fact, False
        fact = Fact(next(self._next), proc, bound, formula, path_index)
        self._keys[key] = fact
        per_bound = self._by_proc.setdefault(proc, {})
        if bound not in per_bound:
            per_bound[bound] = []
            insort(self._levels.setdefault(proc, []), bound)
        per_bound[bound].append(fact)
        self.log.append(fact)
        return fact, True

    def changed_from(self, start: int) -> Iterator[Tuple[Fact, int]]:
        """Each fact of the log from start on, with the lowest level b
        whose conjunction of the facts at levels >= b (in level order,
        as over_env builds it) changed when the fact was added; the
        fact's own level + 1 when none did.

        The conjunction at b stays as it was when a FALSE fact lies at a
        level >= b, or when each conjunct of the new fact already occurs
        at a level from b to its own: f_and keeps the first occurrence."""
        for fact in self.log[len(self._lowest) :]:
            self._lowest.append(self._conjunction_floor(fact))
        return zip(self.log[start:], self._lowest[start:])

    def _conjunction_floor(self, fact: Fact) -> int:
        proc, bound, formula = fact.proc, fact.bound, fact.formula
        top_false = self._top_false.get(proc, -1)
        if top_false >= bound or isinstance(formula, Top):
            return bound + 1
        if isinstance(formula, Bottom):
            self._top_false[proc] = bound
            return top_false + 1
        floor = bound
        for c in formula.args if isinstance(formula, And) else (formula,):
            levels = self._where.get((proc, c))
            if levels is None:
                self._where[(proc, c)] = [bound]
                floor = -1
                continue
            if floor >= 0:
                floor = min(floor, max((l for l in levels if l <= bound), default=-1))
            levels.append(bound)
        return max(floor, top_false) + 1

    def at(self, proc: str, bound: int) -> List[Fact]:
        return list(self._by_proc.get(proc, {}).get(bound, ()))

    def up_to(self, proc: str, bound: int) -> List[Fact]:
        """Facts at bounds <= bound, in (bound, insertion) order."""
        levels = self._levels.get(proc, ())
        per_bound = self._by_proc.get(proc)
        return [f for b in levels[: bisect_right(levels, bound)] for f in per_bound[b]]

    def at_least(self, proc: str, bound: int) -> List[Fact]:
        levels = self._levels.get(proc, ())
        per_bound = self._by_proc.get(proc)
        return [f for b in levels[bisect_left(levels, bound) :] for f in per_bound[b]]

    def items(self):
        for proc, per_bound in self._by_proc.items():
            for bound in sorted(per_bound):
                for fact in per_bound[bound]:
                    yield fact

    def __len__(self):
        return len(self._keys)


def under_env(rho: AssertionMap, bound: int, program: Program, names=None) -> Dict[str, Formula]:
    """The under-approximating environment at bound, for the procedures
    named (every procedure by default)."""
    names = program.procedures if names is None else names
    if bound < 0:
        return dict.fromkeys(names, FALSE)
    return {name: f_or([f.formula for f in rho.up_to(name, bound)]) for name in names}


def over_env(sigma: AssertionMap, bound: int, program: Program, names=None) -> Dict[str, Formula]:
    """The over-approximating environment at bound, for the procedures
    named (every procedure by default)."""
    names = program.procedures if names is None else names
    if bound < 0:
        return dict.fromkeys(names, FALSE)
    return {name: f_and([f.formula for f in sigma.at_least(name, bound)]) for name in names}


def instantiate(f, env: Dict[str, Formula], program: Program) -> Formula:
    """Replace every call atom by the environment formula of its callee,
    with the callee's formals renamed to the call's arguments."""
    if isinstance(f, Path):
        lits = (mk_lit(l) for l in f.literals)
        return f_and(itertools.chain(lits, (instantiate(c, env, program) for c in f.calls)))
    if isinstance(f, Call):
        callee = program.proc(f.callee)
        if len(f.args) != len(callee.formals):
            raise ArityMismatch(f.callee)
        mapping = dict(zip(callee.formals, f.args))
        return rename_vars(env[f.callee], mapping)
    if isinstance(f, (And, Or)):
        for i, a in enumerate(f.args):
            first = instantiate(a, env, program)
            if first is not a:
                break
        else:
            return f  # call-free: f_and or f_or would rebuild an equal node
        # the rest lazily, so that f_and stops at a false instance
        rest = (instantiate(a, env, program) for a in f.args[i + 1 :])
        combine = f_and if isinstance(f, And) else f_or
        return combine(itertools.chain(f.args[:i], (first,), rest))
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
