"""Quantifier elimination and model-based projection.

Rational variables are eliminated with the Loos-Weispfenning test-point
method: ∃x.f is the disjunction of f with x virtually substituted by
each equality term e, by l + epsilon for each strict lower bound l, and
by minus infinity.  Integer variables are eliminated with Cooper's
method after rescaling coefficients to +-1; divisibility literals give
the period D over which the test points are repeated.  Boolean
variables use Shannon expansion.

Each arithmetic theory has one enumeration of its disjuncts, in a fixed
order with terms sorted by a syntactic term ordering: _lw_cases for
rationals, cooper_cases for integers.  Exact elimination takes all of
them.  Model-based projection takes, for a model M of the matrix, the
first disjunct in that order that M satisfies.  Each such disjunct is
satisfied by M, implies the exact elimination, and is one of finitely
many, so the image over all models is finite and covers the
elimination.  A substitution case x := t holds in M exactly when the
matrix holds at x = t(M), so projection tests it there and builds only
the disjunct it picks.  The solver's complete integer decision walks
cooper_cases depth first and keeps the first satisfiable disjunct with
its witness.  Identical inputs always produce identical outputs.

The virtual values epsilon and minus infinity never appear in outputs;
they exist only through the substitution tables below.
"""

from __future__ import annotations

from math import ceil, lcm
from typing import Dict, List, Optional, Sequence

from .errors import ModelMismatch, SelfCheckFailed, WrongMode
from .formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    Cmp,
    DivLit,
    Formula,
    LinTerm,
    Lit,
    Number,
    Or,
    Sort,
    Var,
    _div,
    _num,
    eval_formula,
    f_and,
    f_or,
    free_vars,
    lia_normalize,
    mk_cmp,
    mk_lit,
    normalize_for,
    subst_arith,
    subst_bool,
)


def _map_literals(f: Formula, fn) -> Formula:
    if isinstance(f, Lit):
        return fn(f.lit)
    if isinstance(f, And):
        return f_and(_map_literals(a, fn) for a in f.args)
    if isinstance(f, Or):
        return f_or(_map_literals(a, fn) for a in f.args)
    return f


def split_weak_bounds(x: Var, f: Formula) -> Formula:
    """Rewrite weak bounds on x into strict-or-equal (rational mode)."""

    def fn(lit):
        if isinstance(lit, Cmp) and lit.op == LE and lit.term.coeff(x) != 0:
            return f_or([mk_cmp(LT, lit.term), mk_cmp(EQ, lit.term)])
        return mk_lit(lit)

    return _map_literals(f, fn)


def _collect(x: Var, f: Formula, mode: Sort):
    """Equality terms, lower bounds, upper bounds, divisor lcm for x."""
    eqs: Dict[object, LinTerm] = {}
    lows: Dict[object, LinTerm] = {}
    highs: Dict[object, LinTerm] = {}
    divisors: List[int] = []

    def walk(g):
        if isinstance(g, Lit):
            tag = normalize_for(x, g.lit, mode)
            if tag[0] == "eq":
                eqs.setdefault(tag[1].key(), tag[1])
            elif tag[0] == "lo":
                lows.setdefault(tag[1].key(), tag[1])
            elif tag[0] == "hi":
                highs.setdefault(tag[1].key(), tag[1])
            elif tag[0] == "div":
                divisors.append(tag[1])
        elif isinstance(g, (And, Or)):
            for a in g.args:
                walk(a)

    walk(f)
    eq_terms = [eqs[k] for k in sorted(eqs)]
    lo_terms = [lows[k] for k in sorted(lows)]
    hi_terms = [highs[k] for k in sorted(highs)]
    period = lcm(*divisors) if divisors else 1
    return eq_terms, lo_terms, hi_terms, period


def _subst_lower_eps(x: Var, f: Formula, low: LinTerm) -> Formula:
    """Virtual substitution x := low + epsilon (rational mode).

    Table: (x = e) -> false, (l' < x) -> (l' <= low), (x < u) -> (low < u).
    """

    def fn(lit):
        tag = normalize_for(x, lit, Sort.RAT)
        if tag[0] == "free":
            return mk_lit(lit)
        if tag[0] == "eq":
            return FALSE
        if tag[0] == "lo":
            return mk_cmp(LE, tag[1].sub(low))
        return mk_cmp(LT, low.sub(tag[1]))

    return _map_literals(f, fn)


def _subst_minus_inf(x: Var, f: Formula) -> Formula:
    """Virtual substitution x := -infinity (rational mode).

    Table: (x = e) -> false, (l < x) -> false, (x < u) -> true.
    """

    def fn(lit):
        tag = normalize_for(x, lit, Sort.RAT)
        if tag[0] == "free":
            return mk_lit(lit)
        if tag[0] == "eq" or tag[0] == "lo":
            return FALSE
        return TRUE

    return _map_literals(f, fn)


def _subst_minus_inf_int(x: Var, f: Formula, i: int) -> Formula:
    """x := -infinity with residue i (integer mode): bounds and equalities
    vanish, divisibility literals keep x := i."""

    def fn(lit):
        tag = normalize_for(x, lit, Sort.INT)
        if tag[0] == "free":
            return mk_lit(lit)
        if tag[0] in ("eq", "lo"):
            return FALSE
        if tag[0] == "hi":
            return TRUE
        _, d, w, pos = tag
        return mk_lit(DivLit(d, w.add(LinTerm.of_const(i)), pos))

    return _map_literals(f, fn)


def _lw_cases(x: Var, f: Formula):
    """Loos-Weispfenning disjuncts of exists x. f (weak bounds on x
    split), in order: x := each equality term, x := l + epsilon for each
    lower bound l, then x := minus infinity, terms in _collect's order.

    Yields (t, build) pairs: t is the term of a case x := t, None for a
    virtual one, and build() makes the disjunct."""
    eqs, lows, _, _ = _collect(x, f, Sort.RAT)
    for e in eqs:
        yield e, lambda e=e: subst_arith(f, {x: e})
    for l in lows:
        yield None, lambda l=l: _subst_lower_eps(x, f, l)
    yield None, lambda: _subst_minus_inf(x, f)


def _first_holding(x: Var, f: Formula, cases, model) -> Formula:
    """The first disjunct of the elimination of x from f that the model
    satisfies, of cases as _lw_cases yields them.  A case x := t is tested
    as f at x = t(model), and built only when it holds."""
    for t, build in cases:
        if t is not None:
            if eval_formula(f, {**model, x: t.evaluate(model)}):
                return build()
            continue
        case = build()
        if eval_formula(case, model):
            return case
    raise SelfCheckFailed(f"no disjunct of the elimination of {x!r} holds in the model")


def lw_qe(x: Var, matrix: Formula) -> Formula:
    """Loos-Weispfenning elimination of a rational variable."""
    if x.sort is not Sort.RAT:
        raise WrongMode(f"{x!r} is not rational")
    f = split_weak_bounds(x, matrix)
    if x not in free_vars(f):
        return f
    return f_or(build() for _, build in _lw_cases(x, f))


def lra_proj(x: Var, matrix: Formula, model) -> Formula:
    """The first disjunct of lw_qe(x, matrix), in _lw_cases order, that
    the model satisfies.  The model must satisfy the matrix: project()
    checks that once, and this function does not check it again."""
    if x.sort is not Sort.RAT:
        raise WrongMode(f"{x!r} is not rational")
    f = split_weak_bounds(x, matrix)
    if x not in free_vars(f):
        return f
    return _first_holding(x, f, _lw_cases(x, f), model)


def _value(term: LinTerm, model) -> Number:
    """term under model, reading variables the model leaves out as 0."""
    total = term.const
    for v, c in term.coeffs:
        total += c * model.get(v, 0)
    return _num(total)


def cooper_cases(x: Var, g: Formula):
    """Cooper's disjuncts of exists x. g (coefficients of x +-1), in order.

    Yields (disjunct, witness) pairs: x := each equality term, x := l+1
    .. l+D for each lower bound l, then x := minus infinity with residue
    0 .. D-1, terms in _collect's order.  witness maps a model of the
    disjunct (absent variables read as 0) to a value of x that satisfies
    g.  When a literal conjunct of g is an equality or lower bound on x,
    every minus-infinity disjunct is false and none is yielded.

    The one integer enumeration: cooper_qe takes every disjunct and
    lia_proj the first its model satisfies; the tests' Cooper decision
    (tests/helpers.py) takes the first satisfiable one with its witness.
    """
    for _, build, witness in _cooper_cases(x, g):
        yield build(), witness


def _cooper_cases(x: Var, g: Formula):
    """cooper_cases as (t, build, witness) triples: t is the term of a
    case x := t, None for a minus-infinity one, and build() makes the
    disjunct."""
    eqs, lows, highs, period = _collect(x, g, Sort.INT)
    for e in eqs:
        yield e, lambda e=e: subst_arith(g, {x: e}), lambda m, e=e: _value(e, m)
    for l in lows:
        for i in range(period):
            t = l.add(LinTerm.of_const(1 + i))
            yield t, lambda t=t: subst_arith(g, {x: t}), lambda m, t=t: _value(t, m)
    conjuncts = g.args if isinstance(g, And) else (g,)
    if any(
        isinstance(a, Lit) and normalize_for(x, a.lit, Sort.INT)[0] in ("eq", "lo")
        for a in conjuncts
    ):
        return
    bounds = eqs + lows + highs

    def below(m, i):
        # x = i (mod D), below every bound term so that each literal
        # takes its minus-infinity value
        v = i
        if bounds:
            ub = min(_value(t, m) for t in bounds)
            if v >= ub:
                v -= period * ceil(_div(v - ub + 1, period))
        return v

    for i in range(period):
        yield None, lambda i=i: _subst_minus_inf_int(x, g, i), lambda m, i=i: below(m, i)


def cooper_qe(x: Var, matrix: Formula) -> Formula:
    """Cooper elimination of an integer variable (coefficients +-1)."""
    if x.sort is not Sort.INT:
        raise WrongMode(f"{x!r} is not integer")
    if x not in free_vars(matrix):
        return matrix
    return f_or(case for case, _ in cooper_cases(x, matrix))


def lia_proj(x: Var, matrix: Formula, model) -> Formula:
    """The first disjunct of cooper_qe(x, matrix), in cooper_cases order,
    that the model satisfies.  The model must satisfy the matrix:
    project() checks that once, and this function does not check it
    again."""
    if x.sort is not Sort.INT:
        raise WrongMode(f"{x!r} is not integer")
    if x not in free_vars(matrix):
        return matrix
    return _first_holding(x, matrix, ((t, build) for t, build, _ in _cooper_cases(x, matrix)), model)


def project(
    vars_: Sequence[Var],
    matrix: Formula,
    model=None,
    strategy: str = "mbp",
    stats: Optional[dict] = None,
) -> Formula:
    """Eliminate variables one at a time, in reverse of the given order.

    strategy "qe" computes the exact existential projection; "mbp" takes,
    per variable, the first disjunct of its elimination that the model
    satisfies (for a Boolean, the Shannon case of its value).  The model
    must satisfy the matrix.  With "mbp" the model keeps satisfying every
    intermediate result, so the output is satisfied by the model and
    implies the QE result.  stats, passed only with "mbp", counts the
    eliminations in stats["mbp_calls"].  Any other strategy raises
    ValueError.
    """
    if strategy not in ("mbp", "qe"):
        raise ValueError(f"unknown projection strategy {strategy!r}")
    cur = matrix
    work = model
    if strategy == "mbp" and not eval_formula(matrix, model):
        raise ModelMismatch("model does not satisfy matrix")
    for x in reversed(list(vars_)):
        if x not in free_vars(cur):
            continue
        if stats is not None:
            stats["mbp_calls"] = stats.get("mbp_calls", 0) + 1
        if x.sort is Sort.BOOL:
            if strategy == "mbp":
                cur = subst_bool(cur, {x: bool(work[x])})
            else:
                cur = f_or([subst_bool(cur, {x: True}), subst_bool(cur, {x: False})])
        elif x.sort is Sort.RAT:
            cur = lra_proj(x, cur, work) if strategy == "mbp" else lw_qe(x, cur)
        else:
            g, mult, y = lia_normalize(x, cur)
            if strategy == "mbp":
                if y is not x:
                    work = {**work, y: _num(mult * work[x])}
                cur = lia_proj(y, g, work)
            else:
                cur = cooper_qe(y, g)
    return cur
