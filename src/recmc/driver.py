"""Outer loop: iterative deepening, inductiveness, witnesses.

The bound on the call stack grows one level at a time.  After every
bounded-safe round the summary facts are pushed upward level by level
(a fact at level b moves to b + 1 when the body instantiated with
level-b summaries implies it, as in IC3's push generalization); the run
is inductive when every level-n fact survives the push, and then the
conjunction of facts at levels >= n is a safety proof.  An unsafe round
stops immediately and the reachability facts are replayed into a
concrete counterexample tree.  Each reachability fact records only the
index of the body path it was projected from: replay re-solves that
path, instantiated with the callee facts one bound below and with the
formals pinned, and picks each call's fact again from the model it
gets.  Replay is memoised per (fact, pinned formals): an equal
subproblem is solved once and its node shared, so a chain whose
unfolded call tree is exponential replays in time linear in its
distinct nodes.

One check has one state object, an engine.BndSafety built once and
run at every bound.  check_inductive and counterexample replay read
their environments and instantiations from it and ask their queries
through its solve, as the engine's rules do, so a distinct formula is
solved once per check and an environment entry is built again only when
a fact changed it.  Validation and interpolation never read that state.

Both witnesses are validated before being returned, so a verdict is
never emitted on the engine's say-so alone.  The proof is re-solved
against a fresh solver.  The tree is read literally, by one walk that is
the same in every mode: each distinct node must take a real body path,
assign exactly its procedure's variables (integral ones in integer
mode), satisfy the path's literals and pass its argument values to its
children; the root's height must be within the bound and its values
must violate the property.  The walk costs time linear in the distinct
nodes of the tree.

A solver that gives up on a query of replay, of the inductiveness check
or of proof validation raises ResourceLimit, and the check answers
UNKNOWN ("solver resource limit: ..."); only a witness that the solver
refutes fails validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .engine import BndSafety, EngineConfig, bounded_safety
from .errors import ProvenanceGap, ResourceLimit, SelfCheckFailed
from .formula import (
    EQ,
    BoolLit,
    Formula,
    LinTerm,
    Lit,
    Sort,
    Var,
    eval_formula,
    eval_literal,
    f_and,
    mk_cmp,
)
from .program import AssertionMap, Program, instantiate
from .solver import entails, total_model


@dataclass
class SafetyProof:
    env: Dict[str, Formula]  # procedure name -> formula over its formals
    bound: int


@dataclass
class CexNode:
    """One call in a counterexample: the procedure, the path it took, the
    values of its formals and locals, and one child per call on the path.

    Equal subproblems share one node object, so the tree is held as a DAG;
    nodes must not be mutated.  `==` and `emit_witness` see the unfolded
    tree.
    """

    proc: str
    path_index: int
    values: Dict[Var, object]  # formals and locals
    children: tuple


@dataclass
class CounterexampleTree:
    """An execution of main within the stack bound that violates the
    property.  Subtrees that replay the same (fact, pinned formals) are
    one shared `CexNode`; equality and the witness format unfold them."""

    root: CexNode
    bound: int


@dataclass
class Verdict:
    status: str  # "SAFE" | "UNSAFE" | "UNKNOWN"
    bound: int
    proof: Optional[SafetyProof] = None
    cex: Optional[CounterexampleTree] = None
    reason: str = ""
    stats: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    rho: Optional[AssertionMap] = None
    sigma: Optional[AssertionMap] = None


def check(
    program: Program,
    phi_safe: Formula,
    max_bound: int = 64,
    config: Optional[EngineConfig] = None,
) -> Verdict:
    engine = BndSafety(program, phi_safe, config)
    start = time.monotonic()
    verdict = _check_loop(engine, max_bound)
    engine.stats["wall_ms"] = int((time.monotonic() - start) * 1000)
    verdict.stats, verdict.trace = engine.stats, engine.trace
    verdict.rho, verdict.sigma = engine.rho, engine.sigma
    return verdict


def _check_loop(engine: BndSafety, max_bound: int) -> Verdict:
    program, phi_safe = engine.program, engine.phi_safe
    for n in range(max_bound + 1):
        res, reason = bounded_safety(engine, n)
        if res == "UNKNOWN":
            return Verdict("UNKNOWN", n, reason=reason)
        try:
            if res == "UNSAFE":
                tree = build_cex(engine, n)
                if not validate_cex(program, tree, phi_safe):
                    raise SelfCheckFailed("counterexample failed validation")
                return Verdict("UNSAFE", n, cex=tree)
            if check_inductive(engine, n):
                env = engine.env("o", n)
                proof = SafetyProof({name: env[name] for name in program.procedures}, n)
                if not validate_proof(program, proof, phi_safe):
                    raise SelfCheckFailed("proof failed validation")
                return Verdict("SAFE", n, proof=proof)
        except ResourceLimit as exc:
            return Verdict("UNKNOWN", n, reason=f"solver resource limit: {exc}")
    return Verdict("UNKNOWN", max_bound, reason="bound exhausted")


def check_inductive(engine: BndSafety, n: int) -> bool:
    """Push the check's summary facts upward; true when every level-n
    fact moves.

    Levels are swept bottom-up so that facts pushed from below are
    already visible when the higher levels are checked; pushes from
    levels below n populate level n without affecting the outcome
    directly.  sigma only ever grows.

    A push at level b adds at b + 1 a formula already at level b, which
    leaves the level-b conjunction unchanged, so the environment is read
    once per level and each body instantiated once per level.

    At level b the sweep revisits only the procedures P with facts at b
    that engine.revisits(b) names: those whose facts at b, or whose
    callees' over entries at b, changed since the sweep last visited
    (P, b).  A fact that failed to push from unchanged inputs fails
    again, and one that moved is already at b + 1, so sigma grows
    exactly as under a sweep of every (P, b); engine.unpushed keeps,
    per level, the procedures whose last visit left a fact behind, which
    answers for level n.

    Each push is the query "body and not fact", asked through
    engine.solve with the fact negated once per check (engine.negate):
    a push asked at an earlier bound, or by the engine's sum rule, is
    not solved again.  validate_proof instantiates and re-solves the
    proof from scratch.
    """
    program, sigma, unpushed = engine.program, engine.sigma, engine.unpushed
    for b in range(n + 1):
        env = engine.env("o", b)
        for name in engine.revisits(b):
            facts = sigma.at(name, b)
            if not facts:
                continue
            body = engine.instantiated(program.proc(name).body, env)
            kept = unpushed.setdefault(b, set())
            kept.discard(name)
            for fact in facts:
                if engine.solve(f_and([body, engine.negate(fact.formula)])).is_unsat:
                    sigma.add(name, b + 1, fact.formula)
                else:
                    kept.add(name)
    return not unpushed.get(n)


def validate_proof(program: Program, proof: SafetyProof, phi_safe: Formula) -> bool:
    """Safe and inductive, re-checked from scratch.  Raises ResourceLimit
    when the solver cannot decide, which is not a failed proof."""
    env = proof.env
    if not entails(env[program.main], phi_safe, program.mode):
        return False
    for name, proc in program.procedures.items():
        body = instantiate(proc.body, env, program)
        if not entails(body, env[name], program.mode):
            return False
    return True


# --------------------------------------------------------------------------
# Counterexamples.
# --------------------------------------------------------------------------


def _pin(values: Dict[Var, object]) -> Formula:
    parts = []
    for v, val in values.items():
        if v.sort is Sort.BOOL:
            parts.append(Lit(BoolLit(v, bool(val))))
        else:
            parts.append(mk_cmp(EQ, LinTerm.of_var(v).sub(LinTerm.of_const(val))))
    return f_and(parts)


def build_cex(engine: BndSafety, n: int) -> CounterexampleTree:
    """Replay the check's reachability facts into a concrete execution
    tree.

    Node models are re-solved with the formals pinned to the values the
    parent requires; every fact is an under-approximation of real
    executions, so an unsat solve means the bookkeeping is broken (hence
    ProvenanceGap, not a user-facing error).  An unknown one raises
    ResourceLimit.

    A node depends only on its fact and pinned formals, so each distinct
    pair is solved once and its node shared by every call that needs it.
    The environments and solves come from engine, so the root query the
    engine just asked is not solved again; validate_cex reads none of
    them.
    """
    program = engine.program
    main = program.proc(program.main)
    u_main = engine.env("u", n)[main.name]
    res = engine.solve(f_and([u_main, engine.negate(engine.phi_safe)]))
    if not res.is_sat:
        raise ProvenanceGap("unsafe verdict but no violating model")
    model = total_model(res.model, main.formals)
    fact = _fact_for(engine.rho, main.name, n, model)
    pinned = {v: model[v] for v in main.formals}
    return CounterexampleTree(_expand(engine, fact, pinned, {}), n)


def _fact_for(rho, name, bound, model):
    """The first reachability fact of name up to bound that model satisfies."""
    for fact in rho.up_to(name, bound):
        if eval_formula(fact.formula, model):
            return fact
    raise ProvenanceGap(f"no reachability fact of {name} matches the model")


def _expand(engine: BndSafety, fact, pinned, nodes) -> CexNode:
    """The node replaying fact with the formals pinned, memoised in nodes
    by (fact, pinned values in formals order)."""
    key = (fact.fact_id, tuple(pinned.items()))
    if key in nodes:
        return nodes[key]
    program = engine.program
    proc = program.proc(fact.proc)
    if fact.path_index is None:
        raise ProvenanceGap(f"fact {fact.fact_id} has no path index")
    path = proc.paths[fact.path_index]
    below = fact.bound - 1
    matrix = engine.instantiated(path, engine.env("u", below))
    res = engine.solve(f_and([matrix, _pin(pinned)]))
    if not res.is_sat:
        raise ProvenanceGap(f"fact {fact.fact_id} does not replay")
    model = total_model(res.model, proc.all_vars)
    children = []
    for call in path.calls:
        callee = program.proc(call.callee)
        renamed_model = {
            formal: model[arg] for formal, arg in zip(callee.formals, call.args)
        }
        child_fact = _fact_for(engine.rho, call.callee, below, renamed_model)
        children.append(_expand(engine, child_fact, renamed_model, nodes))
    values = {v: model[v] for v in proc.all_vars}
    node = nodes[key] = CexNode(proc.name, fact.path_index, values, tuple(children))
    return node


def validate_cex(program: Program, tree: CounterexampleTree, phi_safe: Formula) -> bool:
    """Ground-truth check of an execution tree, the same for every mode.

    One walk over the distinct nodes checks that each node's path index
    names a body path, that its values assign exactly the procedure's
    variables (integral ones in integer mode), that the path's literals
    hold in them, and that every call edge goes to the callee with the
    argument values as its formals.  The height of each subtree is
    memoised by node, and the root's must be at most the bound.  A tree
    that passes is a derivation of the root valuation within the bound,
    so the root is in main's bounded semantics; it must also violate the
    property.  A node shared by several calls is walked once, so the
    cost is linear in the distinct nodes, not the unfolded tree.
    """
    heights: Dict[int, int] = {}

    def height(node: CexNode) -> int:
        """Height of a valid subtree, -1 for an invalid one."""
        if id(node) in heights:
            return heights[id(node)]
        proc = program.proc(node.proc)
        if not 0 <= node.path_index < len(proc.paths):
            return -1
        if node.values.keys() != set(proc.all_vars):
            return -1
        if program.mode is Sort.INT and any(
            val.denominator != 1 for val in node.values.values()
        ):
            return -1
        path = proc.paths[node.path_index]
        if not all(eval_literal(lit, node.values) for lit in path.literals):
            return -1
        if len(node.children) != len(path.calls):
            return -1
        below = -1
        for call, child in zip(path.calls, node.children):
            callee = program.proc(call.callee)
            if child.proc != call.callee:
                return -1
            for formal, arg in zip(callee.formals, call.args):
                if child.values.get(formal) != node.values[arg]:
                    return -1
            h = height(child)
            if h < 0:
                return -1
            below = max(below, h)
        heights[id(node)] = below + 1
        return below + 1

    root = tree.root
    if root.proc != program.main:
        return False
    if not 0 <= height(root) <= tree.bound:
        return False
    return not eval_formula(phi_safe, root.values)  # must violate the property
