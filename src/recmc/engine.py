"""Bounded safety checking with under- and over-approximating summaries.

Given a program, a property over the formals of main, and a stack bound
n, the engine answers query 0, the bounded reachability query (main,
not property, n), with two assertion maps: reachability facts (rho,
under-approximations) and summary facts (sigma, over-approximations).
Its work set is a stack of queries (procedure, goal, bound) with query 0
at the bottom and bounds strictly decreasing toward the top, because the
query rule pushes a child one bound below the query it refines.  The top
is the query of least bound, and the three rules fire on it:

* sum:   the body instantiated with callee summaries at bound-1 refutes
         the goal; an interpolant between the two becomes a new summary
         fact at the query's bound.  The interpolation contract says it
         refutes the goal, so the query is popped.  No other queued
         query has a bound that low, so none other is answered.

* reach: some body path instantiated with callee reachability facts at
         bound-1 is consistent with the goal; projecting the locals out
         of the path instantiation (exact projection, or the disjunct
         that the satisfying model picks from the projection of its
         implicant, a cube) becomes a new reachability fact, stored with
         the index of the path.  The fact and the goal hold in that
         model, so the fact answers the query, which is popped.  It also answers every queued query of the procedure
         below it that it meets, one solver query each, and those are
         removed too.

* query: neither applies.  Walking the satisfiable path's calls from the
         right, replace under-approximations by over-approximations
         until the conjunction turns satisfiable; the call at the flip
         is the one whose reachability facts are too strong and whose
         summaries are too weak.  Project everything but that call's
         arguments out of the mixed instantiation and push it as a new
         query for the callee at bound-1.

A run steps while query 0 is on the stack, and the rule that removed it
is the verdict: unsafe if it was reach, safe if it was sum.  Queries
still above it were spawned to answer it and are dropped.  Facts are
never retracted.

One BndSafety is the whole state of one check, and the outer loop calls
its run(bound) at growing bounds.  It keeps rho and sigma from one
bound to the next, the answer memo (each distinct formula is solved once
per check, by the rules, the inductiveness check or replay alike), the
negations of the property and of the facts, each computed once, the
stats and rule trace, and the environments.  A run resets only the work
set and the query ids.

There is one environment per (kind, bound), and in it one entry per
procedure, built through under_env or over_env when it is first read.
Before an environment is handed out, the facts added to rho and sigma
since the last time are read from the maps' logs, and the entries they
change are dropped.  A reachability fact at level l changes its
procedure's under entries at every bound >= l.  A summary fact changes
its procedure's over entries from the lowest level whose conjunction
it changed up to l (AssertionMap.changed_from), so pushing a fact one
level up drops one entry.  Each environment memoises the instantiation
of bodies and paths in it until one of its entries is dropped.  The
same reading marks the (procedure, level) pairs whose summary facts, or
whose callees' over entries, changed, for check_inductive to revisit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionFailed, ResourceLimit
from .formula import (
    EQ,
    BoolLit,
    Formula,
    LinTerm,
    Lit,
    Path,
    Sort,
    eval_formula,
    f_and,
    f_or,
    implicant,
    mk_cmp,
    negate_nnf,
    rename_vars,
)
from .interpolate import itp
from .program import (
    AssertionMap,
    Program,
    instantiate,
    instantiate_path_mixed,
    over_env,
    under_env,
)
from .project import project
from .solver import Model, SatResult, check_sat, total_model

log = logging.getLogger("recmc")


@dataclass
class EngineConfig:
    proj: str = "mbp"  # "mbp" | "qe"
    step_budget: int = 100_000


@dataclass
class BoundedQuery:
    qid: int
    proc: str
    goal: Formula  # over the procedure's formals, call-free
    bound: int


@dataclass
class TraceEvent:
    step: int
    rule: str  # "sum" | "reach" | "query"
    qid: int
    proc: str
    bound: int
    outcome: str
    formula: Optional[Formula] = None

    def line(self) -> str:
        return f"{self.rule} q{self.qid} {self.proc} {self.bound} {self.outcome}"


class _Env(dict):
    """One environment of a check, from procedure name to formula.

    An entry is built when it is first read, by build (under_env or
    over_env) for that procedure alone, and kept until BndSafety drops
    it.  `instances` memoises instantiation in this environment by body
    or path; it is emptied whenever an entry is dropped."""

    __slots__ = ("amap", "bound", "program", "build", "instances")

    def __missing__(self, name: str) -> Formula:
        f = self[name] = self.build(self.amap, self.bound, self.program, (name,))[name]
        return f

    def drop(self, name: str) -> None:
        if self.pop(name, None) is not None:
            self.instances = {}


class BndSafety:
    """The state of one check; run(bound) is one bounded run."""

    def __init__(
        self, program: Program, phi_safe: Formula, config: Optional[EngineConfig] = None
    ):
        self.program = program
        self.phi_safe = phi_safe
        self.config = config or EngineConfig()
        self.rho, self.sigma = AssertionMap(), AssertionMap()
        self.memo: Dict[Formula, SatResult] = {}
        self.negations: Dict[Formula, Formula] = {}
        self.stats = dict.fromkeys(
            ("steps", "sum", "reach", "query", "mbp_calls", "solver_calls"), 0
        )
        self.trace: List[TraceEvent] = []
        self.queue: List[BoundedQuery] = []  # a stack; the top is stepped
        self._next_qid = 0
        self._envs: Dict[tuple, _Env] = {}  # (kind, bound) -> environment
        self._synced_u = self._synced_o = 0  # facts of rho's and sigma's logs read
        self._dirty: Dict[int, set] = {}  # level -> procedures check_inductive revisits
        self.unpushed: Dict[int, set] = {}  # level -> procedures whose last visit kept a fact

    # -- helpers -------------------------------------------------------

    def solve(self, f: Formula) -> SatResult:
        """check_sat(f), answered from the memo when the check asked f
        before; ResourceLimit when the solver gives up.

        check_sat is a function of its formula and mode, so one memo
        serves every query of the check, across bounds.  A miss calls
        this module's binding of check_sat, which tracing wrappers replace.
        """
        res = self.memo.get(f)
        if res is None:
            res = self.memo[f] = check_sat(f, self.program.mode)
        if res.is_unknown:
            raise ResourceLimit(res.reason)
        return res

    def negate(self, f: Formula) -> Formula:
        """negate_nnf(f), computed once per check: the property at every
        bound, and each fact at every level the inductiveness check
        pushes it from."""
        neg = self.negations.get(f)
        if neg is None:
            neg = self.negations[f] = negate_nnf(f)
        return neg

    def _sat(self, f: Formula) -> SatResult:
        """A query of the rules, counted in solver_calls."""
        self.stats["solver_calls"] += 1
        return self.solve(f)

    def env(self, kind: str, bound: int) -> _Env:
        """The under- ("u", from rho) or over-approximating ("o", from
        sigma) environment at bound: a mapping from procedure name to
        formula whose entries are built when read and kept until a fact
        changes them."""
        self._sync()
        env = self._envs.get((kind, bound))
        if env is None:
            env = _Env()
            env.amap, env.build = (self.rho, under_env) if kind == "u" else (self.sigma, over_env)
            env.bound, env.program, env.instances = bound, self.program, {}
            if bound < 0:  # every entry is false, for good, in both kinds
                env.update(env.build(env.amap, bound, self.program))
                self._envs[("u", bound)] = self._envs[("o", bound)] = env
            self._envs[(kind, bound)] = env
        return env

    def _sync(self) -> None:
        """Read the facts added to rho and sigma since the last call: drop
        the entries they change and mark the (procedure, level) pairs
        whose facts or callee over entries they change."""
        if self._synced_u < len(self.rho.log):
            for fact in self.rho.log[self._synced_u :]:
                for (kind, bound), env in self._envs.items():
                    if kind == "u" and bound >= fact.bound:
                        env.drop(fact.proc)
            self._synced_u = len(self.rho.log)
        if self._synced_o < len(self.sigma.log):
            dirty = self._dirty
            for fact, lowest in self.sigma.changed_from(self._synced_o):
                name, callers = fact.proc, self.program.callers[fact.proc]
                dirty.setdefault(fact.bound, set()).add(name)
                for bound in range(lowest, fact.bound + 1):
                    env = self._envs.get(("o", bound))
                    if env is not None:
                        env.drop(name)
                    dirty.setdefault(bound, set()).update(callers)
            self._synced_o = len(self.sigma.log)

    def revisits(self, level: int) -> List[str]:
        """The procedures, in program order, whose summary facts at level
        or whose callees' over entries at level changed since the last
        call for level (since the first fact, on the first call)."""
        self._sync()
        return sorted(self._dirty.pop(level, ()), key=self.program.rank.__getitem__)

    def instantiated(self, target, env: _Env) -> Formula:
        """instantiate(target, env) for a body or a path, memoised in env
        until one of env's entries changes."""
        f = env.instances.get(target)
        if f is None:
            f = env.instances[target] = instantiate(target, env, self.program)
        return f

    def _project(self, elim, matrix: Formula, model: Model, proc) -> Formula:
        """Eliminate elim from matrix: exactly (qe), or, for the model
        completed over the procedure's variables, the disjunct it picks
        from the projection of matrix's implicant in it (mbp).

        The implicant is a conjunction that implies matrix and holds in
        the model, so its projection is still an under-approximation that
        contains the model; it is a cube, so a fact projected from the
        callee facts below it does not nest them."""
        if self.config.proj == "qe":
            return project(elim, matrix, None, strategy="qe")
        model = total_model(model, proc.all_vars)
        return project(
            elim, implicant(matrix, model), model, strategy="mbp", stats=self.stats
        )

    def _push(self, proc: str, goal: Formula, bound: int) -> BoundedQuery:
        q = BoundedQuery(self._next_qid, proc, goal, bound)
        self._next_qid += 1
        self.queue.append(q)
        return q

    # -- main loop -----------------------------------------------------

    def run(self, bound: int) -> Tuple[str, str]:
        """One bounded run on the maps kept so far, with a fresh stack
        and query ids.  Returns (verdict, reason); verdict SAFE | UNSAFE |
        UNKNOWN."""
        self.queue, self._next_qid = [], 0
        root = self._push(self.program.main, self.negate(self.phi_safe), bound)
        try:
            while self.queue and self.queue[0] is root:
                if self.stats["steps"] >= self.config.step_budget:
                    return "UNKNOWN", "step budget exhausted"
                event = self.step()
        except ResourceLimit as exc:
            return "UNKNOWN", f"solver resource limit: {exc}"
        return ("UNSAFE" if event.rule == "reach" else "SAFE"), ""

    def step(self) -> TraceEvent:
        q = self.queue[-1]
        proc = self.program.proc(q.proc)
        env_o = self.env("o", q.bound - 1)
        env_u = self.env("u", q.bound - 1)
        body_over = self.instantiated(proc.body, env_o)
        sum_ok = self._sat(f_and([body_over, q.goal])).is_unsat

        reach_hit = None
        if not sum_ok:
            for pidx, path in enumerate(proc.paths):
                matrix = self.instantiated(path, env_u)
                res = self._sat(f_and([matrix, q.goal]))
                if res.is_sat:
                    reach_hit = (pidx, matrix, res.model)
                    break

        self.stats["steps"] += 1
        if sum_ok:
            event = self.apply_sum(q, body_over)
        elif reach_hit:
            event = self.apply_reach(q, *reach_hit)
        else:
            event = self.apply_query(q, env_o, env_u)
        self.trace.append(event)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s", event.line())
        return event

    # -- rules -----------------------------------------------------------

    def apply_sum(self, q: BoundedQuery, body_over: Formula) -> TraceEvent:
        proc = self.program.proc(q.proc)
        psi = itp(body_over, q.goal, frozenset(proc.formals), self.program.mode)
        _, added = self.sigma.add(q.proc, q.bound, psi)
        self.queue.pop()
        return self._event(q, "sum", "fact-added" if added else "fact-duplicate", psi)

    def apply_reach(
        self, q: BoundedQuery, pidx: int, matrix: Formula, model: Model
    ) -> TraceEvent:
        proc = self.program.proc(q.proc)
        model = total_model(model, proc.all_vars)
        psi = self._project(proc.locals_, matrix, model, proc)
        if not eval_formula(f_and([psi, q.goal]), model):
            raise PreconditionFailed("reachability fact misses its query's goal")
        _, added = self.rho.add(q.proc, q.bound, psi, pidx)
        self.queue = [  # without q, and without each query below it that psi meets
            q2
            for q2 in self.queue[:-1]
            if q2.proc != q.proc or not self._sat(f_and([psi, q2.goal])).is_sat
        ]
        return self._event(q, "reach", "fact-added" if added else "fact-duplicate", psi)

    def _event(self, q: BoundedQuery, rule: str, outcome: str, formula) -> TraceEvent:
        self.stats[rule] += 1
        return TraceEvent(self.stats["steps"], rule, q.qid, q.proc, q.bound, outcome, formula)

    def apply_query(
        self, q: BoundedQuery, env_o: Dict[str, Formula], env_u: Dict[str, Formula]
    ) -> TraceEvent:
        proc = self.program.proc(q.proc)
        for path in proc.paths:
            full_over = instantiate_path_mixed(
                path, len(path.calls), env_o, env_u, q.goal, self.program
            )
            res = self._sat(full_over)
            if not res.is_sat:
                continue
            # walk the flip point right to left; the under-instantiated
            # conjunction is unsat (reach did not fire), the fully
            # over-instantiated one is sat, so a maximal flip exists
            sat_model = res.model
            split = None
            for j in range(len(path.calls) - 1, -1, -1):
                mixed = instantiate_path_mixed(
                    path, j, env_o, env_u, q.goal, self.program
                )
                res_j = self._sat(mixed)
                if res_j.is_sat:
                    sat_model = res_j.model
                    continue
                split = j
                break
            if split is None:
                # even the fully under-instantiated path meets the goal,
                # which contradicts reach being inapplicable
                raise PreconditionFailed("no unsat flip point on candidate path")
            call = path.calls[split]
            callee = self.program.proc(call.callee)
            others = Path(path.literals, path.calls[:split] + path.calls[split + 1 :])
            matrix = instantiate_path_mixed(others, split, env_o, env_u, q.goal, self.program)
            args = list(call.args)
            keep = set(args)
            elim = [v for v in proc.all_vars if v not in keep]
            psi = self._project(elim, matrix, sat_model, proc)
            child_goal = self._rename_to_formals(psi, args, callee.formals)
            child = self._push(call.callee, child_goal, q.bound - 1)
            return self._event(
                q, "query", f"child q{child.qid} {call.callee} {q.bound - 1}", child_goal
            )
        raise PreconditionFailed("no rule applicable (progress violation)")

    @staticmethod
    def _rename_to_formals(psi: Formula, args, formals) -> Formula:
        """Rewrite a formula over call arguments to one over the callee's
        formals.  A variable repeated in the argument list pins the
        corresponding formals equal."""
        mapping = {}
        equalities = []
        for arg, formal in zip(args, formals):
            if arg not in mapping:
                mapping[arg] = formal
            else:
                first = mapping[arg]
                if formal.sort is Sort.BOOL:
                    equalities.append(
                        f_or(
                            [
                                f_and([Lit(BoolLit(first)), Lit(BoolLit(formal))]),
                                f_and(
                                    [
                                        Lit(BoolLit(first, False)),
                                        Lit(BoolLit(formal, False)),
                                    ]
                                ),
                            ]
                        )
                    )
                else:
                    equalities.append(
                        mk_cmp(
                            EQ,
                            LinTerm.of_var(first).sub(LinTerm.of_var(formal)),
                        )
                    )
        renamed = rename_vars(psi, mapping)
        return f_and([renamed] + equalities)


def bounded_safety(engine: BndSafety, bound: int) -> Tuple[str, str]:
    """One bounded run of the check whose state is engine."""
    return engine.run(bound)
