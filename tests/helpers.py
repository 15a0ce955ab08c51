"""Shared test utilities: random formulas, models, brute-force oracles,
the Cooper decision of integer conjunctions, and an engine that checks
its own invariants."""

import itertools
from fractions import Fraction
from pathlib import Path
from unittest import mock

import recmc.driver
from recmc.driver import check, check_inductive
from recmc.engine import BndSafety
from recmc.errors import PreconditionFailed, SelfCheckFailed
from recmc.formula import (
    EQ,
    LE,
    LT,
    And,
    Bottom,
    BoolLit,
    Cmp,
    DivLit,
    LinTerm,
    Lit,
    Role,
    Sort,
    Top,
    Var,
    _div,
    eval_formula,
    f_and,
    f_or,
    lia_normalize,
    mk_cmp,
    mk_lit,
    negate_nnf,
)
from recmc.program import AssertionMap, instantiate, over_env, under_env
from recmc.project import cooper_cases, project
from recmc.solver import Model, entails

DATA = Path(__file__).parent / "data"


def mk_vars(names, sort, owner=""):
    return [Var(n, sort, Role.AUX, owner) for n in names]


def random_linterm(rng, vars_, integral, max_vars=2):
    coeffs = {}
    for v in rng.sample(vars_, rng.randint(1, min(max_vars, len(vars_)))):
        coeffs[v] = Fraction(rng.choice([-2, -1, 1, 2]))
    const = Fraction(rng.randint(-3, 3))
    if not integral and rng.random() < 0.25:
        const += Fraction(1, 2)
    return LinTerm.make(coeffs, const)


def random_atom(rng, vars_, mode, divides_ok=True):
    bools = [v for v in vars_ if v.sort is Sort.BOOL]
    arith = [v for v in vars_ if v.sort is not Sort.BOOL]
    if mode is Sort.BOOL or (bools and rng.random() < 0.25):
        return Lit(BoolLit(rng.choice(bools), rng.random() < 0.5))
    if mode is Sort.INT and divides_ok and rng.random() < 0.2:
        return mk_lit(
            DivLit(rng.choice([2, 3]), random_linterm(rng, arith, True))
        )
    op = rng.choice([LT, LT, LE, EQ])
    return mk_cmp(op, random_linterm(rng, arith, mode is Sort.INT))


def random_nnf(rng, vars_, mode, n_atoms, divides_ok=True):
    atoms = [random_atom(rng, vars_, mode, divides_ok) for _ in range(n_atoms)]
    while len(atoms) > 1:
        k = rng.randint(2, min(3, len(atoms)))
        group, atoms = atoms[:k], atoms[k:]
        combiner = f_and if rng.random() < 0.6 else f_or
        atoms.append(combiner(group))
    return atoms[0]


def random_conjunction(rng, vars_, mode, n_atoms, divides_ok=True):
    return f_and(
        random_atom(rng, vars_, mode, divides_ok) for _ in range(n_atoms)
    )


def random_model(rng, vars_, span=6):
    out = {}
    for v in vars_:
        if v.sort is Sort.BOOL:
            out[v] = rng.random() < 0.5
        elif v.sort is Sort.INT:
            out[v] = Fraction(rng.randint(-span, span))
        else:
            out[v] = Fraction(rng.randint(-2 * span, 2 * span), rng.randint(1, 3))
    return Model(out)


def equivalent(a, b, mode):
    return entails(a, b, mode) and entails(b, a, mode)


def truth_table_sat(f, bool_vars):
    """Propositional satisfiability by enumeration."""
    for bits in itertools.product((False, True), repeat=len(bool_vars)):
        if eval_formula(f, dict(zip(bool_vars, bits))):
            return True
    return False


def window_sat_int(f, vars_, lo, hi):
    """Integer satisfiability with every variable in [lo, hi]."""
    rng = [Fraction(k) for k in range(lo, hi + 1)]
    for vals in itertools.product(rng, repeat=len(vars_)):
        if eval_formula(f, dict(zip(vars_, vals))):
            return True
    return False


# --------------------------------------------------------------------------
# The differential oracle for integer conjunctions: a depth-first walk over
# the Cooper disjuncts that project.cooper_cases yields for one variable at
# a time.  Substituting a test term into a conjunction gives another
# conjunction, so elimination never materializes the full disjunction;
# branches that fold to false are pruned before recursing and the first
# satisfiable case returns immediately with its witness.
# --------------------------------------------------------------------------

# Cooper nodes of one decision; past it the oracle raises _CooperBudget.
COOPER_NODE_BUDGET = 30_000


class _CooperBudget(Exception):
    pass


def _conj_literals(f):
    if isinstance(f, And):
        return [a.lit for a in f.args]
    if isinstance(f, Lit):
        return [f.lit]
    return []


def _pick_int_var(lits):
    eq_best = None
    counts = {}
    for lit in lits:
        if isinstance(lit, BoolLit):
            continue
        for v, c in lit.term.coeffs:
            counts[v] = counts.get(v, 0) + 1
            if isinstance(lit, Cmp) and lit.op == EQ:
                cand = (abs(c), v.key(), v)
                if eq_best is None or cand < eq_best:
                    eq_best = cand
    if eq_best is not None:
        return eq_best[2]
    return min(counts, key=lambda v: (counts[v], v.key()))


def _icsat(f, counter):
    # every call is a node, also a case that folded to a constant: its
    # substitution was work too, and the budget bounds all of it
    if counter[0] <= 0:
        raise _CooperBudget()
    counter[0] -= 1
    if isinstance(f, Bottom):
        return None
    if isinstance(f, Top):
        return {}
    x = _pick_int_var(_conj_literals(f))
    g, mult, y = lia_normalize(x, f)
    if isinstance(g, Bottom):
        return None
    for case, witness in cooper_cases(y, g):
        m = _icsat(case, counter)
        if m is not None:
            yval = witness(m)
            if yval.denominator != 1 or yval % mult != 0:
                raise SelfCheckFailed(f"Cooper witness {yval} for {x!r} is not a multiple of {mult}")
            m = dict(m)
            m[x] = _div(yval, mult)
            return m
    return None


def int_conjunction_sat(lits):
    """Witness for a conjunction of integer literals, or None.

    Complete (Cooper's method underneath); raises _CooperBudget past
    COOPER_NODE_BUDGET nodes, where every case tested is a node.
    """
    f = f_and([mk_lit(l) for l in lits])
    model = _icsat(f, [COOPER_NODE_BUDGET])
    if model is None:
        return None
    out = {}
    for lit in lits:
        for v in (lit.term.vars if not isinstance(lit, BoolLit) else ()):
            out[v] = model.get(v, 0)
    if not all(eval_formula(mk_lit(l), out) for l in lits):
        raise SelfCheckFailed(f"Cooper model {out!r} fails {lits!r}")
    return out


def exists_window_int(f, x, model, lo, hi):
    """Does some integer value of x in [lo, hi] satisfy f under model?"""
    base = dict(model.items())
    for k in range(lo, hi + 1):
        base[x] = Fraction(k)
        if eval_formula(f, base):
            return True
    return False


def fact_valuations(formula, formals):
    """All valuations of boolean formals satisfying the formula."""
    out = set()
    for bits in itertools.product((False, True), repeat=len(formals)):
        if eval_formula(formula, dict(zip(formals, bits))):
            out.add(bits)
    return out


def qe_all(vars_, f):
    """Exact projection of all given variables (oracle side)."""
    return project(list(vars_), f, None, strategy="qe")


class CheckedBndSafety(BndSafety):
    """A BndSafety that checks the rules' invariants around every step:
    sum and reach never both apply to the query on top; the work set is a
    stack with bounds strictly decreasing toward the top, and query 0
    stays at its bottom until sum pops it or a reach fact meets it; and
    no query left queued is already refuted by summaries or witnessed by
    reachability facts.  Its queries count in solver_calls.

    After every step it also checks the state kept across steps: every
    kept environment entry equals a fresh under_env or over_env entry,
    and every memoised instantiation a fresh instantiate in a fresh
    environment."""

    def check_kept_state(self):
        for kind, bound in list(self._envs):
            env = self.env(kind, bound)  # reads the facts added since the last step
            build, amap = (under_env, self.rho) if kind == "u" else (over_env, self.sigma)
            fresh = build(amap, bound, self.program)
            for name, entry in env.items():
                if entry != fresh[name]:
                    raise PreconditionFailed(f"stale {kind} entry of {name} at {bound}")
            for target, instance in env.instances.items():
                if instance != instantiate(target, fresh, self.program):
                    raise PreconditionFailed(f"stale instance at {kind} {bound}: {target!r}")

    def _entails(self, a, b):
        return self._sat(f_and([a, negate_nnf(b)])).is_unsat

    def step(self):
        q = self.queue[-1]
        proc = self.program.proc(q.proc)
        body_over = instantiate(proc.body, self.env("o", q.bound - 1), self.program)
        env_u = self.env("u", q.bound - 1)
        if self._entails(body_over, negate_nnf(q.goal)) and any(
            self._sat(f_and([instantiate(path, env_u, self.program), q.goal])).is_sat
            for path in proc.paths
        ):
            raise PreconditionFailed("sum and reach both applicable")
        event = super().step()
        stack = self.queue
        if any(lo.bound <= hi.bound for lo, hi in zip(stack, stack[1:])):
            raise PreconditionFailed("bounds on the stack do not decrease toward the top")
        if stack and stack[0].qid != 0 and event.rule != "reach":
            raise PreconditionFailed("query 0 is not at the bottom of the stack")
        for q2 in self.queue:
            if self._entails(self.env("o", q2.bound)[q2.proc], negate_nnf(q2.goal)):
                raise PreconditionFailed(f"queued query q{q2.qid} already refuted by summaries")
            if not self._entails(self.env("u", q2.bound)[q2.proc], negate_nnf(q2.goal)):
                raise PreconditionFailed(
                    f"queued query q{q2.qid} already witnessed by reachability facts"
                )
        self.check_kept_state()
        return event


def full_sweep(engine, n):
    """check_inductive's push sweep over every (procedure, level) with
    facts, on a copy of engine's summary map; returns the copy and
    whether every level-n fact moved."""
    sigma = AssertionMap()
    for fact in engine.sigma.log:
        sigma.add(fact.proc, fact.bound, fact.formula)
    program, inductive = engine.program, True
    for b in range(n + 1):
        env = over_env(sigma, b, program)
        for name, proc in program.procedures.items():
            body = instantiate(proc.body, env, program)
            for fact in sigma.at(name, b):
                if engine.solve(f_and([body, negate_nnf(fact.formula)])).is_unsat:
                    sigma.add(name, b + 1, fact.formula)
                elif b == n:
                    inductive = False
    return sigma, inductive


def checked_check_inductive(engine, n):
    """check_inductive, which revisits only the (procedure, level) whose
    inputs changed, compared with a full sweep: the same answer, and the
    same summary facts added in the same order."""
    want, want_inductive = full_sweep(engine, n)
    got_inductive = check_inductive(engine, n)
    if got_inductive != want_inductive:
        raise PreconditionFailed(f"check_inductive answered {got_inductive} at {n}")
    got = [(f.proc, f.bound, f.formula) for f in engine.sigma.log]
    if got != [(f.proc, f.bound, f.formula) for f in want.log]:
        raise PreconditionFailed(f"check_inductive pushed other facts than a full sweep at {n}")
    if isinstance(engine, CheckedBndSafety):
        engine.check_kept_state()
    return got_inductive


def checked_check(program, phi_safe, max_bound, config=None):
    """driver.check, run on a CheckedBndSafety, with checked_check_inductive."""
    with mock.patch.object(recmc.driver, "BndSafety", CheckedBndSafety), mock.patch.object(
        recmc.driver, "check_inductive", checked_check_inductive
    ):
        return check(program, phi_safe, max_bound, config)
