"""Quantifier elimination and model-based projection.

project() is the one elimination loop.  It eliminates the variables one
at a time, and for each it enumerates the disjuncts of its elimination
by sort:

* Boolean: Shannon expansion, x := true and x := false.
* Rational: the Loos-Weispfenning test points (_lw_cases), after weak
  bounds on x are split into strict-or-equal.  exists x. f is the
  disjunction of f with x virtually substituted by each equality term
  e, by l + epsilon for each strict lower bound l, and by minus
  infinity.
* Integer: Cooper's test points (_cooper_cases), after lia_normalize
  rescales the coefficients of x to +-1.  Divisibility literals give the
  period D over which the test points are repeated.

The disjuncts come in a fixed order, with terms sorted by a syntactic
term ordering.  Exact elimination ("qe") takes all of them.  Model-based
projection ("mbp") takes, for a model M of the matrix, the first
disjunct in that order that M satisfies (_first_holding), and for a
Boolean the case of its value in M.  Each such disjunct is satisfied by
M, implies the exact elimination, and is one of finitely many, so the
image over all models is finite and covers the elimination.  A
substitution case x := t holds in M exactly when the matrix holds at
x = t(M), so projection tests it there and builds only the disjunct it
picks.  The tests' complete integer decision walks _cooper_cases depth
first and keeps the first satisfiable disjunct with its witness.
Identical inputs always produce identical outputs.

The virtual values epsilon and minus infinity never appear in outputs;
they exist only through the substitution tables below.
"""

from __future__ import annotations

from math import ceil, lcm
from typing import Dict, List, Optional, Sequence

from .errors import ModelMismatch, SelfCheckFailed
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
    Sort,
    Var,
    _div,
    _num,
    eval_formula,
    f_or,
    free_vars,
    leaves,
    lia_normalize,
    map_literals,
    mk_cmp,
    mk_lit,
    normalize_for,
    subst_arith,
    subst_bool,
)


def split_weak_bounds(x: Var, f: Formula) -> Formula:
    """Rewrite weak bounds on x into strict-or-equal (rational mode)."""

    def rule(g):
        lit = g.lit
        if isinstance(lit, Cmp) and lit.op == LE and lit.term.coeff(x) != 0:
            return f_or([mk_cmp(LT, lit.term), mk_cmp(EQ, lit.term)])
        return g

    return map_literals(f, rule)


def _collect(x: Var, f: Formula, mode: Sort):
    """Equality terms, lower bounds, upper bounds, divisor lcm for x."""
    eqs: Dict[object, LinTerm] = {}
    lows: Dict[object, LinTerm] = {}
    highs: Dict[object, LinTerm] = {}
    divisors: List[int] = []

    for g in leaves(f):
        if not isinstance(g, Lit):
            continue
        tag = normalize_for(x, g.lit, mode)
        if tag[0] == "eq":
            eqs.setdefault(tag[1].key(), tag[1])
        elif tag[0] == "lo":
            lows.setdefault(tag[1].key(), tag[1])
        elif tag[0] == "hi":
            highs.setdefault(tag[1].key(), tag[1])
        elif tag[0] == "div":
            divisors.append(tag[1])
    eq_terms = [eqs[k] for k in sorted(eqs)]
    lo_terms = [lows[k] for k in sorted(lows)]
    hi_terms = [highs[k] for k in sorted(highs)]
    period = lcm(*divisors) if divisors else 1
    return eq_terms, lo_terms, hi_terms, period


def _subst_lower_eps(x: Var, f: Formula, low: LinTerm) -> Formula:
    """Virtual substitution x := low + epsilon (rational mode).

    Table: (x = e) -> false, (l' < x) -> (l' <= low), (x < u) -> (low < u).
    """

    def rule(g):
        tag = normalize_for(x, g.lit, Sort.RAT)
        if tag[0] == "free":
            return g
        if tag[0] == "eq":
            return FALSE
        if tag[0] == "lo":
            return mk_cmp(LE, tag[1].sub(low))
        return mk_cmp(LT, low.sub(tag[1]))

    return map_literals(f, rule)


def _subst_minus_inf(x: Var, f: Formula, mode: Sort, i: int) -> Formula:
    """Virtual substitution x := -infinity, with residue i in integer mode.

    Table: (x = e) -> false, (l < x) -> false, (x < u) -> true, and
    (d | x + w) -> (d | i + w), which only integer mode has.
    """

    def rule(g):
        tag = normalize_for(x, g.lit, mode)
        if tag[0] == "free":
            return g
        if tag[0] in ("eq", "lo"):
            return FALSE
        if tag[0] == "hi":
            return TRUE
        _, d, w, pos = tag
        return mk_lit(DivLit(d, w.add(LinTerm.of_const(i)), pos))

    return map_literals(f, rule)


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
    yield None, lambda: _subst_minus_inf(x, f, Sort.RAT, 0)


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


def _value(term: LinTerm, model) -> Number:
    """term under model, reading variables the model leaves out as 0."""
    total = term.const
    for v, c in term.coeffs:
        total += c * model.get(v, 0)
    return _num(total)


def _cooper_cases(x: Var, g: Formula):
    """Cooper's disjuncts of exists x. g (coefficients of x +-1), in order.

    Yields (t, build, witness) triples: x := each equality term, x := l+1
    .. l+D for each lower bound l, then x := minus infinity with residue
    0 .. D-1, terms in _collect's order.  t is the term of a case x := t,
    None for a minus-infinity one, and build() makes the disjunct.
    witness maps a model of the disjunct (absent variables read as 0) to
    a value of x that satisfies g.  When a literal conjunct of g is an
    equality or lower bound on x, every minus-infinity disjunct is false
    and none is yielded.
    """
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
        yield None, lambda i=i: _subst_minus_inf(x, g, Sort.INT, i), lambda m, i=i: below(m, i)


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
    mbp = strategy == "mbp"
    if mbp and not eval_formula(matrix, model):
        raise ModelMismatch("model does not satisfy matrix")
    cur = matrix
    work = model
    for x in reversed(list(vars_)):
        if x not in free_vars(cur):
            continue
        if stats is not None:
            stats["mbp_calls"] = stats.get("mbp_calls", 0) + 1
        if x.sort is Sort.BOOL:
            # the Shannon cases, or under mbp the one of x's model value
            values = (bool(work[x]),) if mbp else (True, False)
            cur = f_or([subst_bool(cur, {x: b}) for b in values])
            continue
        if x.sort is Sort.RAT:
            f = split_weak_bounds(x, cur)
            cases = _lw_cases(x, f)
        else:
            f, mult, y = lia_normalize(x, cur)
            if mbp and y is not x:
                work = {**work, y: _num(mult * work[x])}
            x = y
            cases = ((t, build) for t, build, _ in _cooper_cases(x, f))
        cur = _first_holding(x, f, cases, work) if mbp else f_or(build() for _, build in cases)
    return cur
