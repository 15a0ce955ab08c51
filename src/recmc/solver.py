"""Satisfiability of quantifier-free, call-free formulas.

Lazy SMT in the classic shape: a DPLL search over the boolean skeleton
of the formula, with conjunctions of arithmetic literals checked by an
exact simplex procedure in the style of Dutertre and de Moura (general
simplex over delta-rationals, Bland's rule for termination).  Theory
conflicts come back as blocking clauses, and a conflict's explanation
is its set of bounds: the search reads only the literals they came
from.  Farkas multipliers are needed only for interpolation, which
refutes the conjunction of a path pair directly with
refute_conjunction; only there is a rational conflict's certificate
built and replayed.

A query is clausified without auxiliaries at the top: each conjunct of a
top-level And, or the formula itself when it is no And, is one clause,
a literal a unit clause that goes straight onto the search's level-0
trail and an Or the clause of its arguments' literals.  Only an And or
Or below that level gets an auxiliary (Plaisted-Greenbaum, positive
side).  Atoms are numbered before auxiliaries, in the order they are
met, so the search, which decides the smallest unassigned variable
first, tries atoms before auxiliaries.  In Boolean mode every atom is a
Boolean literal: the first full assignment is a model, and no theory
check or simplex is built.

Before the search, comparison atoms on one linear form get valid
clauses between them: the theory propagation of Dutertre and de Moura.
Each atom is read as its canonical form, coprime integer coefficients
with the first one positive, times a scale, so that it bounds the form
from above, from below or to a point; in integer mode t < 0 reads as
t + 1 <= 0 and the bound is rounded inward.  Chains of implications
through the upper and through the lower bounds, a clause between each
upper bound and the weakest lower bound that clashes with it, and
clauses between each equality and its nearest bounds and the other
equalities let the search propagate implied bounds, and it never
asserts two atoms of one form whose bounds clash.  The simplex keys its
slack rows by the same form, so t, -t and 2t bound one slack.  An atom
whose variables no other comparison atom has costs one dictionary entry,
and Boolean mode has no such pass.

Integer mode first solves the rational relaxation, which holds the
comparison literals only: a divisibility literal constrains nothing over
the rationals.  An equality whose coefficients' gcd does not divide its
constant is refuted alone before it reaches the simplex, and a
relaxation conflict keeps its Farkas certificate.  Then the root test
takes the relaxation's values when they are integral and satisfy every
literal; otherwise the Omega test (Pugh, CACM 1992) decides the
conjunction over the integers, completely.  It writes t < 0 as
t + 1 <= 0, d | t as t = d*k and not d | t as t = d*k + r with
1 <= r <= d - 1, and eliminates every equality (the GCD test,
substitution of a unit-coefficient variable, the mod-hat step
otherwise).  It divides each inequality by its coefficients' gcd,
rounding its constant up, and turns opposite inequalities into
equalities.  Then it eliminates the variables of the inequalities one at
a time:
- a variable bounded on one side only goes with its rows;
- one with coefficient 1 in all its lower, or all its upper, rows by
  Fourier-Motzkin, which is exact over the integers then;
- otherwise the dark shadow is tried, whose integer points all lie over
  an integer value of the variable, and if it has none, each splinter of
  the grey shadow: an equality b*x = L + i that goes back to equality
  elimination on a copy of the rows.
Each row carries the mask of the literals it follows from, so a conflict
anywhere is a core of literals; an inexact step is refuted by the union
of its branches' cores.  The model comes by back-substitution through
the eliminated variables.

The only budgets are the search's, the module constants below; they are
read at call time, so a test can lower them with monkeypatch.

Everything is exact, with no floats.  Numbers follow the rule of the
whole arithmetic layer (see formula): tableau coefficients, values and
bounds, like term coefficients and model values, are Python ints when
integral and Fractions only when not, so the common small-integer
tableau or model costs no gcd or allocation per operation.  Only
certificate multipliers are handed out as Fractions.
"""

from __future__ import annotations

import copy
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ResourceLimit, SelfCheckFailed, WrongMode
from .formula import (
    EQ,
    LE,
    LT,
    And,
    BoolLit,
    Bottom,
    Cmp,
    DivLit,
    Formula,
    LinTerm,
    Lit,
    Literal,
    Number,
    Or,
    Sort,
    Top,
    Var,
    _div,
    _num,
    eval_formula,
    eval_literal,
    f_and,
    negate_nnf,
)


# Decisions of one check_sat search; past it the result is unknown.
MAX_DECISIONS = 500_000
# Full assignments theory-checked in one check_sat search; past it the
# result is unknown.
MAX_THEORY_CHECKS = 100_000


class Model(dict):
    """Total assignment for the free variables of a query."""

    __slots__ = ()

    def extended(self, extra: Dict[Var, object]) -> "Model":
        return Model({**self, **extra})

    def __repr__(self):
        inner = ", ".join(f"{v!r}={x}" for v, x in sorted(self.items(), key=lambda it: it[0].key()))
        return "{" + inner + "}"


def default_value(sort: Sort):
    return False if sort is Sort.BOOL else 0


def total_model(model: Model, vars_) -> Model:
    """model with each variable of vars_ it leaves out at its default."""
    extra = {v: default_value(v.sort) for v in vars_ if v not in model}
    return model.extended(extra) if extra else model


@dataclass(frozen=True)
class FarkasCert:
    """Nonnegative combination of literals deriving 0 < 0 or 0 <= -c, c > 0.

    Entries are (literal, multiplier, negated); multiplier >= 0, and
    negated may only be set for equality literals (an equality can be
    used in either direction).
    """

    entries: tuple  # tuple[(Cmp, Fraction, bool), ...]

    @property
    def literals(self) -> tuple:
        """The refuted conjunction as (literal, True) pairs, as in ClausalCore."""
        return tuple((lit, True) for lit, _, _ in self.entries)

    def replay(self) -> bool:
        for lit, mu, negated in self.entries:
            if mu < 0 or not isinstance(lit, Cmp):
                return False
            if negated and lit.op != EQ:
                return False
        total, strict = farkas_sum(self.entries)
        if not total.is_const():
            return False
        return total.const > 0 or (total.const == 0 and strict)


def farkas_sum(entries) -> Tuple[LinTerm, bool]:
    """The sum of multiplier times term over (literal, multiplier, negated)
    entries, a negated equality counting with its term negated, and
    whether it is strict: some strict literal has a positive multiplier."""
    total = LinTerm.of_const(0)
    strict = False
    for lit, mu, negated in entries:
        term = lit.term.scale(-1) if negated else lit.term
        total = total.add(term.scale(mu))
        if lit.op == LT and mu > 0:
            strict = True
    return total, strict


@dataclass(frozen=True)
class ClausalCore:
    """Jointly unsatisfiable set of (literal, assigned value) pairs."""

    literals: tuple  # tuple[(Literal, bool), ...]


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Model] = None
    reason: str = ""

    @property
    def is_sat(self):
        return self.status == "sat"

    @property
    def is_unsat(self):
        return self.status == "unsat"

    @property
    def is_unknown(self):
        return self.status == "unknown"


# --------------------------------------------------------------------------
# Delta-rationals: pairs (q, d) standing for q + d*delta with delta an
# infinitesimal positive.  Plain tuples; lexicographic comparison is the
# right order.
# --------------------------------------------------------------------------

DR_ZERO = (0, 0)


def dr_add(a, b):
    return (_num(a[0] + b[0]), _num(a[1] + b[1]))


def dr_sub(a, b):
    return (_num(a[0] - b[0]), _num(a[1] - b[1]))


def dr_scale(a, k):
    return (_num(a[0] * k), _num(a[1] * k))


# --------------------------------------------------------------------------
# Simplex over asserted bounds.
# --------------------------------------------------------------------------


@dataclass
class _Bound:
    val: tuple  # delta-rational
    cid: int
    negated: bool  # equality used in the lower-bound direction


class _Constraint:
    __slots__ = ("cid", "source", "_scale")

    def __init__(self, cid, source, scale):
        self.cid = cid
        self.source = source  # the asserted literal
        self._scale = scale

    def scale(self) -> Number:
        """|s| for the scale s of the literal's canonical form: its term
        is s * (v - q) for the variable v of the form and the bound q
        that it puts on v, so a conflict row's weight over |s| is the
        literal's Farkas multiplier."""
        return self._scale


def _beyond(kind, a, b) -> bool:
    """a lies past b on side kind: above it for "hi", below it for "lo"."""
    return a > b if kind == "hi" else a < b


def _toward(kind, a) -> str:
    """The side a nonbasic variable with row coefficient a moves to when
    its basic variable is pulled back inside its violated kind bound."""
    return "hi" if (a > 0) == (kind == "lo") else "lo"


def _canonical(coeffs) -> Tuple[tuple, Number]:
    """The canonical form of a term's (variable, coefficient) pairs, and
    its scale s: coprime integer coefficients, the first one positive,
    with each coefficient s times the form's.  Terms that differ by a
    nonzero factor, such as t, -t and 2t, have one form."""
    if len(coeffs) == 1:
        return ((coeffs[0][0], 1),), coeffs[0][1]
    nums = [c for _, c in coeffs]
    den = 1
    for c in nums:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den > 1:
        nums = [int(c * den) for c in nums]
    g = gcd(*nums)
    if nums[0] < 0:
        g = -g
    elif g == 1 and den == 1:
        return coeffs, 1
    return tuple([(v, n // g) for (v, _), n in zip(coeffs, nums)]), _div(g, den)


class Simplex:
    """General simplex with upper/lower bounds on variables.

    There is one slack variable per canonical form (_canonical) of more
    than one variable, defined by a tableau row, and a one-variable form
    is its variable.  A constraint bounds the variable of its form, from
    above or below by the sign of its scale, so t, -t and 2t bound one
    variable and a clash between them needs no pivot; asserting a
    constraint just tightens a bound.
    Asserting a bound, repairing a violated one and explaining a conflict
    are one routine each for both sides ("lo" and "hi"), as in Dutertre
    and de Moura.

    Row coefficients, values and bound values, and concrete_values, are
    ints where integral (_num) and every quotient is taken by _div.  A
    conflict is a list of (constraint id, weight, negated) rows, one per
    bound: the weight is the row coefficient that the bound enters the
    conflict with, and a Farkas multiplier is built from it only for a
    certificate (_Conflict.certificate).
    """

    def __init__(self):
        self.var_ids: Dict[Var, int] = {}
        self.id_vars: List[Optional[Var]] = []
        self.slack_by_key: Dict[object, int] = {}
        self.rows: Dict[int, Dict[int, Number]] = {}
        self.cols: Dict[int, set] = {}
        self.values: Dict[int, tuple] = {}
        self.lo: Dict[int, _Bound] = {}
        self.hi: Dict[int, _Bound] = {}
        self.constraints: List[_Constraint] = []

    # -- variables ---------------------------------------------------------

    def _new_id(self, v: Optional[Var]) -> int:
        vid = len(self.id_vars)
        self.id_vars.append(v)
        self.values[vid] = DR_ZERO
        self.cols.setdefault(vid, set())
        return vid

    def var_id(self, v: Var) -> int:
        vid = self.var_ids.get(v)
        if vid is None:
            vid = self._new_id(v)
            self.var_ids[v] = vid
        return vid

    def _row_of_linear(self, coeffs) -> Dict[int, object]:
        """Express (variable, coefficient) pairs over the current nonbasic
        variables."""
        row: Dict[int, object] = {}

        def put(vid, c):
            if vid in self.rows:  # basic: expand its row
                for j, a in self.rows[vid].items():
                    row[j] = _num(row.get(j, 0) + c * a)
                    if row[j] == 0:
                        del row[j]
            else:
                row[vid] = _num(row.get(vid, 0) + c)
                if row[vid] == 0:
                    del row[vid]

        for v, c in coeffs:
            put(self.var_id(v), c)
        return row

    def _slack_for(self, form) -> int:
        """The variable whose value is the canonical form: its one
        variable, or the slack that one tableau row defines."""
        if len(form) == 1:
            return self.var_id(form[0][0])
        sid = self.slack_by_key.get(form)
        if sid is None:
            row = self._row_of_linear(form)
            sid = self._new_id(None)
            self.slack_by_key[form] = sid
            self.rows[sid] = row
            for j in row:
                self.cols[j].add(sid)
            val = DR_ZERO
            for j, a in row.items():
                val = dr_add(val, dr_scale(self.values[j], a))
            self.values[sid] = val
        return sid

    # -- asserting ---------------------------------------------------------

    def add_constraint(self, const: Number, op: str, source, canon) -> Optional[list]:
        """Assert t op 0 for the term t = scale * form + const, where canon
        is (form, scale) as _canonical gives them, or None when t is the
        constant.  Returns a conflict (list of rows) or None."""
        cid = len(self.constraints)
        if canon is None:
            self.constraints.append(_Constraint(cid, source, 1))
            ok = const < 0 if op == LT else (const <= 0 if op == LE else const == 0)
            return None if ok else [(cid, 1, False)]
        form, scale = canon
        self.constraints.append(_Constraint(cid, source, abs(scale)))
        vid = self._slack_for(form)
        # t = scale * (form - q): an upper bound on the form when the
        # scale is positive, a lower one when it is negative
        q = _div(-const, scale)
        if op == EQ:
            conflict = self._assert(vid, "hi", (q, 0), cid, scale < 0)
            if conflict:
                return conflict
            return self._assert(vid, "lo", (q, 0), cid, scale > 0)
        if scale > 0:
            return self._assert(vid, "hi", (q, -1 if op == LT else 0), cid, False)
        return self._assert(vid, "lo", (q, 1 if op == LT else 0), cid, False)

    def _side(self, kind) -> Dict[int, _Bound]:
        return self.lo if kind == "lo" else self.hi

    def _assert(self, vid, kind, val, cid, negated) -> Optional[list]:
        own, other = self._side(kind), self._side("hi" if kind == "lo" else "lo")
        cur = own.get(vid)
        if cur is not None and not _beyond(kind, cur.val, val):
            return None
        opp = other.get(vid)
        if opp is not None and _beyond(kind, opp.val, val):
            return [(cid, 1, negated), (opp.cid, 1, opp.negated)]
        own[vid] = _Bound(val, cid, negated)
        if vid not in self.rows and _beyond(kind, self.values[vid], val):
            self._update(vid, val)
        return None

    # -- pivoting ----------------------------------------------------------

    def _update(self, vid, val):
        delta = dr_sub(val, self.values[vid])
        self.values[vid] = val
        for bid in self.cols.get(vid, ()):
            a = self.rows[bid].get(vid)
            if a:
                self.values[bid] = dr_add(self.values[bid], dr_scale(delta, a))

    def _pivot(self, bid, nid):
        row = self.rows.pop(bid)
        a = row.pop(nid)
        for j in row:
            self.cols[j].discard(bid)
        self.cols[nid].discard(bid)
        # nid = (bid - sum_j row[j] * j) / a
        new_row = {bid: _div(1, a)}
        for j, c in row.items():
            new_row[j] = _div(-c, a)
        self.rows[nid] = new_row
        self.cols.setdefault(bid, set()).add(nid)
        for j in row:
            self.cols[j].add(nid)
        # substitute nid away in every other row
        for other in list(self.cols[nid]):
            if other == nid:
                continue
            orow = self.rows[other]
            c = orow.pop(nid, None)
            if c is None:
                continue
            self.cols[nid].discard(other)
            for j, cc in new_row.items():
                nv = _num(orow.get(j, 0) + c * cc)
                if nv == 0:
                    if j in orow:
                        del orow[j]
                        self.cols[j].discard(other)
                else:
                    if j not in orow:
                        self.cols[j].add(other)
                    orow[j] = nv

    def _pivot_and_update(self, bid, nid, val):
        a = self.rows[bid][nid]
        theta = dr_scale(dr_sub(val, self.values[bid]), _div(1, a))
        self.values[bid] = val
        self.values[nid] = dr_add(self.values[nid], theta)
        for other in self.cols.get(nid, ()):
            if other != bid:
                c = self.rows[other].get(nid)
                if c:
                    self.values[other] = dr_add(self.values[other], dr_scale(theta, c))
        self._pivot(bid, nid)

    def check(self) -> Optional[list]:
        """Returns None when feasible, otherwise a conflict as a list of
        (constraint id, weight, negated) rows."""
        while True:
            broken = None
            for vid in sorted(self.rows):  # Bland: smallest id first
                lo, hi = self.lo.get(vid), self.hi.get(vid)
                if lo is not None and self.values[vid] < lo.val:
                    broken = (vid, "lo")
                    break
                if hi is not None and self.values[vid] > hi.val:
                    broken = (vid, "hi")
                    break
            if broken is None:
                return None
            vid, kind = broken
            row = self.rows[vid]
            pivot = None
            for j in sorted(row):
                side = _toward(kind, row[j])
                b = self._side(side).get(j)
                if b is None or _beyond(side, b.val, self.values[j]):
                    pivot = j
                    break
            if pivot is None:
                return self._conflict(vid, kind)
            self._pivot_and_update(vid, pivot, self._side(kind)[vid].val)

    def _conflict(self, vid, kind) -> list:
        """The violated bound of vid and, for each nonbasic variable of its
        row, the bound that stops it from moving toward repair."""
        b = self._side(kind)[vid]
        rows = [(b.cid, 1, b.negated)]
        for j, a in self.rows[vid].items():
            bj = self._side(_toward(kind, a))[j]
            rows.append((bj.cid, abs(a), bj.negated))
        return rows

    # -- models ------------------------------------------------------------

    def concrete_values(self) -> Dict[Var, Number]:
        """Pick a concrete positive value for delta and read off values."""
        delta = 1
        for vid, val in self.values.items():
            for bound, sense in ((self.lo.get(vid), 1), (self.hi.get(vid), -1)):
                if bound is None or bound.val[1] == val[1]:
                    continue  # equal delta parts cannot limit delta
                # need sense * (val - bound.val) >= 0 concretely
                dq = sense * (val[0] - bound.val[0])
                dd = sense * (val[1] - bound.val[1])
                if dd < 0 and dq > 0:
                    delta = min(delta, _div(dq, -2 * dd))
        out = {}
        for v, vid in self.var_ids.items():
            q, d = self.values[vid]
            out[v] = _num(q + d * delta) if d else q
        return out


# --------------------------------------------------------------------------
# Theory checks for conjunctions of literals.
# --------------------------------------------------------------------------


class _Conflict:
    """A conflict of the rational relaxation: the simplex's conflict rows,
    each with the constraint it bounds.  The search reads only its
    literals; certificate() builds and replays the Farkas multipliers,
    which interpolation alone needs."""

    __slots__ = ("rows",)

    def __init__(self, simplex: Simplex, rows):
        self.rows = [(simplex.constraints[cid], weight, negated) for cid, weight, negated in rows]

    @property
    def literals(self) -> tuple:
        """The refuted conjunction as (literal, True) pairs, each once, in
        the order of the rows."""
        return tuple(dict.fromkeys((con.source, True) for con, _, _ in self.rows))

    def certificate(self):
        """A FarkasCert that replays, else (an integer conflict through a
        tightened strict literal) the ClausalCore of the literals."""
        by_cid = {}
        for con, weight, negated in self.rows:
            by_cid.setdefault(con.cid, (con.source, Fraction(weight, con.scale()), negated))
        cert = FarkasCert(tuple(by_cid.values()))
        return cert if cert.replay() else ClausalCore(self.literals)


class _TheoryCheck:
    """One conjunction of valued literals, checked over LRA or LIA.  The
    theory checks of one check_sat call share forms, the canonical form
    and scale of each comparison atom, so each is computed once."""

    def __init__(self, mode: Sort, forms=None):
        self.mode = mode
        self.simplex = Simplex()
        self.forms = {} if forms is None else forms  # atom -> (form, scale)

    def decide(self, asserted) -> Tuple[str, object]:
        """Decide the conjunction of canonical (atom, value) pairs.
        Returns ("sat", values) or ("unsat", conflict).  A conflict is a
        ClausalCore or a _Conflict; both name the refuted literals in
        .literals."""
        conflict = self._relax(asserted)
        if conflict is not None:
            return "unsat", conflict
        values = self.simplex.concrete_values()
        if self.mode is not Sort.INT:
            return "sat", values
        if all(type(val) is int for val in values.values()):
            # the root test: the relaxation's values are an integer model
            for lit, _ in asserted:
                for v in lit.term.vars:
                    values.setdefault(v, 0)
            if all(eval_literal(lit, values) == value for lit, value in asserted):
                return "sat", values
        return _IntPresolve(asserted).solve()

    def _relax(self, asserted):
        """Assert the comparison literals in order and check their
        relaxation over the rationals; the first conflict, or None."""
        for lit, value in asserted:
            if isinstance(lit, DivLit):
                if self.mode is not Sort.INT:
                    raise WrongMode("divisibility literal outside integer mode")
                continue  # over the rationals any term is d times something
            if not isinstance(lit, Cmp):
                raise TypeError(f"not a theory literal: {lit!r}")
            if not value:
                # comparison atoms only occur positively in NNF
                raise AssertionError("negated comparison literal in conjunction")
            op, const = lit.op, lit.term.const
            canon = self.forms.get(lit)
            if canon is None and lit.term.coeffs:
                canon = self.forms[lit] = _canonical(lit.term.coeffs)
            if self.mode is Sort.INT:
                if op == LT:
                    # t < 0 over the integers is t <= -1
                    const, op = const + 1, LE
                elif op == EQ and canon is not None and const % canon[1]:
                    # no integer lies on the hyperplane of the form: a
                    # one-literal core, before any conflict the relaxation finds
                    return ClausalCore(((lit, True),))
            rows = self.simplex.add_constraint(const, op, lit, canon)
            if rows is not None:
                return _Conflict(self.simplex, rows)
        rows = self.simplex.check()
        return None if rows is None else _Conflict(self.simplex, rows)


# --------------------------------------------------------------------------
# The Omega test (Pugh, CACM 1992) on an integer conjunction.
# --------------------------------------------------------------------------


def _mod_hat(a: int, m: int) -> int:
    """a - m * floor(a/m + 1/2), the residue of a modulo m nearest 0."""
    return a - m * ((2 * a + m) // (2 * m))


class _Row:
    """sum coeffs[v] * v + const, = 0 or <= 0 over the integers.  Bit i of
    mask is set when the row follows from the i-th asserted literal."""

    __slots__ = ("coeffs", "const", "mask")

    def __init__(self, coeffs: Dict[Var, int], const: int, mask: int):
        self.coeffs = coeffs  # no zero entries
        self.const = const
        self.mask = mask

    def add(self, k: int, other: "_Row") -> None:
        """Add k times other to this row, and other's mask."""
        coeffs = self.coeffs
        for v, c in other.coeffs.items():
            n = coeffs.get(v, 0) + k * c
            if n:
                coeffs[v] = n
            else:
                coeffs.pop(v, None)
        self.const += k * other.const
        self.mask |= other.mask

    def subst(self, x: Var, definition: "_Row") -> None:
        """Replace x by the term of definition, which says x = term."""
        a = self.coeffs.pop(x, 0)
        if a:
            self.add(a, definition)


def _splinters(x: Var, lows: List[_Row], highs: List[_Row]) -> List[_Row]:
    """The grey shadow of x, as equalities: an integer point of the rows
    outside their dark shadow has b*x = L + i for a lower row L <= b*x and
    0 <= i <= (a_max*b - a_max - b) / a_max, where a_max is the largest
    upper coefficient of x (Pugh)."""
    a_max = max(row.coeffs[x] for row in highs)
    return [
        _Row(dict(low.coeffs), low.const + i, low.mask)
        for low in lows
        for i in range((-a_max * low.coeffs[x] - a_max + low.coeffs[x]) // a_max + 1)
    ]


class _IntPresolve:
    """An integer conjunction as equalities and inequalities over integer
    variables, decided by the Omega test: every equality is eliminated,
    then the variables of the inequalities one at a time.

    t < 0 becomes t + 1 <= 0, d | t becomes t = d*k and not d | t
    becomes t = d*k + r with 1 <= r <= d - 1, for fresh k and r (a term
    with fractions is first scaled to integers, together with d).  Fresh
    variables are named from a counter of this presolve, rows and
    eliminated variables are kept in lists, and a variable to eliminate
    is chosen with ties broken by Var.key(), so the result does not
    depend on set or hash order.

    Each eliminated variable x goes to defs with rows that bound it: an
    equality's definition as x >= term, or the inequalities that a
    projection removed.  The model comes by back-substitution in reverse
    order, x at its greatest lower bound or, with none, at its least
    upper bound; each projection guarantees that this meets all of x's
    rows.
    """

    def __init__(self, asserted):
        self.asserted = asserted
        self.n_fresh = 0
        self.eqs: List[_Row] = []
        self.ineqs: List[_Row] = []
        self.defs: List[Tuple[Var, List[_Row]]] = []  # in elimination order
        for i, (lit, value) in enumerate(asserted):
            scale = lcm(lit.term.const.denominator, *(c.denominator for _, c in lit.term.coeffs))
            coeffs = {v: int(c * scale) for v, c in lit.term.coeffs}
            const = int(lit.term.const * scale)
            mask = 1 << i
            if isinstance(lit, Cmp):
                if lit.op == EQ:
                    self.eqs.append(_Row(coeffs, const, mask))
                else:
                    self.ineqs.append(_Row(coeffs, const + 1 if lit.op == LT else const, mask))
                continue
            d = lit.divisor * scale
            coeffs[self._fresh()] = -d
            if lit.positive != value:
                r = self._fresh()
                coeffs[r] = -1
                self.ineqs.append(_Row({r: -1}, 1, mask))
                self.ineqs.append(_Row({r: 1}, 1 - d, mask))
            self.eqs.append(_Row(coeffs, const, mask))

    def _fresh(self) -> Var:
        self.n_fresh += 1
        return Var(f"#{self.n_fresh}", Sort.INT)

    def _core(self, mask: int) -> ClausalCore:
        return ClausalCore(tuple(pair for i, pair in enumerate(self.asserted) if mask >> i & 1))

    def solve(self):
        """("sat", values) or ("unsat", core)."""
        status, payload = self._decide()
        if status == "unsat":
            return status, self._core(payload)
        model = {}
        for lit, _ in self.asserted:
            for v in lit.term.vars:
                model[v] = payload.get(v, 0)
        if not all(eval_literal(lit, model) == value for lit, value in self.asserted):
            raise SelfCheckFailed(f"presolve model {model!r} fails {self.asserted!r}")
        return "sat", model

    def _decide(self):
        """Reduce, then eliminate the variables of the inequalities one at
        a time, by an exact projection or else by _shadows: ("sat", values
        of every variable) or ("unsat", mask)."""
        while True:
            mask = self._reduce()
            if mask is not None:
                return "unsat", mask
            if not self.ineqs:
                return "sat", self._values()
            x, lows, highs, inexact = self._pick()
            if inexact:
                return self._shadows(x, lows, highs)
            self._project(x, lows, highs, False)

    def _values(self) -> Dict[Var, int]:
        values: Dict[Var, int] = {}
        for x, rows in reversed(self.defs):
            lows, highs = [], []
            for row in rows:
                a = row.coeffs[x]  # a*x + rest <= 0
                rest = row.const + sum(c * values.get(v, 0) for v, c in row.coeffs.items() if v is not x)
                if a < 0:
                    lows.append(-(rest // a))
                else:
                    highs.append(-rest // a)
            values[x] = max(lows) if lows else min(highs)
        return values

    def _pick(self):
        """The variable of the inequalities to eliminate next, its lower
        rows (negative coefficient), its upper rows, and whether its
        projection is inexact: the integer and real shadows agree when x
        has no lower or no upper rows, or coefficient 1 in all of one side.
        An exact variable comes first, with the fewest pairs of a lower
        and an upper row (none for one bounded on one side), then the one
        with the fewest splinters."""
        lows: Dict[Var, List[_Row]] = {}
        highs: Dict[Var, List[_Row]] = {}
        for row in self.ineqs:
            for v, c in row.coeffs.items():
                (lows if c < 0 else highs).setdefault(v, []).append(row)

        def rank(v):
            lo, hi = lows.get(v, []), highs.get(v, [])
            if all(r.coeffs[v] == -1 for r in lo) or all(r.coeffs[v] == 1 for r in hi):
                return False, len(lo) * len(hi), v.key()
            return True, len(_splinters(v, lo, hi)), v.key()

        x = min({**lows, **highs}, key=rank)
        return x, lows.get(x, []), highs.get(x, []), rank(x)[0]

    def _project(self, x: Var, lows: List[_Row], highs: List[_Row], dark: bool) -> None:
        """Fourier-Motzkin: replace the rows of x by a*L + b*U for each
        lower row L, -b*x + ... <= 0, and upper row U, a*x + ... <= 0, its
        constant raised by (a - 1)(b - 1) in the dark shadow, where an
        integer x lies between any two such bounds."""
        self.ineqs = [row for row in self.ineqs if x not in row.coeffs]
        for low in lows:
            b = -low.coeffs[x]
            for high in highs:
                a = high.coeffs[x]
                row = _Row({v: a * c for v, c in low.coeffs.items()}, a * low.const, low.mask)
                row.add(b, high)
                if dark:
                    row.const += (a - 1) * (b - 1)
                self.ineqs.append(row)
        self.defs.append((x, lows + highs))

    def _shadows(self, x: Var, lows: List[_Row], highs: List[_Row]):
        """Decide an inexact elimination of x: its dark shadow, then each
        splinter of its grey shadow on a copy of the rows.  A point that
        meets a lower and an upper row of x and no splinter of the lower
        one meets their dark row, so the union of the branches' masks
        refutes."""
        dark = self._branch([])
        dark._project(x, lows, highs, True)
        mask = 0
        for branch in itertools.chain([dark], (self._branch([eq]) for eq in _splinters(x, lows, highs))):
            status, payload = branch._decide()
            if status == "sat":
                return status, payload
            mask |= payload
        return "unsat", mask

    def _branch(self, eqs: List[_Row]) -> _IntPresolve:
        """A copy of this problem with eqs as its equalities."""
        branch = copy.copy(self)
        branch.eqs = eqs
        branch.ineqs = [_Row(dict(r.coeffs), r.const, r.mask) for r in self.ineqs]
        branch.defs = list(self.defs)
        return branch

    def _reduce(self) -> Optional[int]:
        """Eliminate every equality and tighten the inequalities; the mask
        of a refuted subset of the literals, or None."""
        while True:
            while self.eqs:
                mask = self._eliminate(self.eqs.pop(0))
                if mask is not None:
                    return mask
            mask = self._tighten()
            if mask is not None or not self.eqs:
                return mask

    def _substitute(self, x: Var, definition: _Row) -> None:
        for row in self.eqs:
            row.subst(x, definition)
        for row in self.ineqs:
            row.subst(x, definition)
        self.defs.append((x, [_Row({x: -1, **definition.coeffs}, definition.const, definition.mask)]))

    def _eliminate(self, row: _Row) -> Optional[int]:
        """Divide the equality row by its gcd, then substitute away a
        variable with a unit coefficient, or take Pugh's mod-hat step and
        put the smaller equality back; a mask on conflict, else None."""
        coeffs = row.coeffs
        if not coeffs:
            return None if row.const == 0 else row.mask
        g = gcd(*coeffs.values())
        if row.const % g:
            return row.mask  # no integer lies on the hyperplane
        if g > 1:
            coeffs = {v: c // g for v, c in coeffs.items()}
            row = _Row(coeffs, row.const // g, row.mask)
        units = [v for v, c in coeffs.items() if c == 1 or c == -1]
        if units:
            unit = min(units, key=lambda v: sum(v in r.coeffs for r in self.ineqs))
            a = coeffs.pop(unit)  # unit = -a * (rest + const)
            definition = _Row({v: -a * c for v, c in coeffs.items()}, -a * row.const, row.mask)
            self._substitute(unit, definition)
            return None
        x = min(coeffs, key=lambda v: abs(coeffs[v]))
        if coeffs[x] < 0:
            row = _Row({v: -c for v, c in coeffs.items()}, -row.const, row.mask)
            coeffs = row.coeffs
        # with m = a_x + 1, the equality taken modulo m reads
        # x = -m*sigma + sum_v (a_v mod^ m)*v + (const mod^ m)
        m = coeffs[x] + 1
        definition = _Row({}, _mod_hat(row.const, m), row.mask)
        for v, c in coeffs.items():
            if v is not x and _mod_hat(c, m):
                definition.coeffs[v] = _mod_hat(c, m)
        definition.coeffs[self._fresh()] = -m
        self._substitute(x, definition)
        row.subst(x, definition)
        self.eqs.insert(0, row)
        return None

    def _tighten(self) -> Optional[int]:
        """Divide each inequality by the gcd of its coefficients, rounding
        its constant up; keep the tightest of those with one left side and
        turn two with opposite left sides and constants into an equality.
        The mask of a refuted inequality or pair, or None."""
        best: Dict[tuple, Optional[_Row]] = {}
        for row in self.ineqs:
            if not row.coeffs:
                if row.const > 0:
                    return row.mask
                continue
            g = gcd(*row.coeffs.values())
            if g > 1:
                row.coeffs = {v: c // g for v, c in row.coeffs.items()}
                row.const = -(-row.const // g)
            key = tuple(sorted(row.coeffs.items(), key=lambda it: it[0].key()))
            cur = best.get(key)
            if cur is None or row.const > cur.const:
                best[key] = row
        self.ineqs = []
        for key, row in best.items():
            if row is None:
                continue
            neg = tuple((v, -c) for v, c in key)
            other = best.get(neg)
            if other is not None and row.const + other.const >= 0:
                mask = row.mask | other.mask
                if row.const + other.const > 0:
                    return mask
                self.eqs.append(_Row(dict(row.coeffs), row.const, mask))
                best[neg] = None
                continue
            self.ineqs.append(row)
        return None


# --------------------------------------------------------------------------
# Boolean skeleton: atoms, clauses, DPLL.
# --------------------------------------------------------------------------


def _atom_of(lit: Literal) -> Tuple[Literal, bool]:
    """The positive atom of a literal and the literal's sign; a positive
    literal is its own atom."""
    if isinstance(lit, Cmp) or lit.positive:
        return lit, True
    if isinstance(lit, BoolLit):
        return BoolLit(lit.var, True), False
    return DivLit(lit.divisor, lit.term, True), False


def literal_of(atom: Literal, value: bool) -> Literal:
    """The literal saying that the canonical atom takes value; the inverse
    of _atom_of on theory literals.  Comparison atoms are only ever true."""
    if isinstance(atom, DivLit):
        return DivLit(atom.divisor, atom.term, value)
    return atom


class _Skeleton:
    def __init__(self):
        self.atom_ids: Dict[Literal, int] = {}
        self.atoms: List[Literal] = []
        self.negated: Dict[Literal, int] = {}  # negative literal -> its atom's id
        self.clauses: List[List[int]] = []
        self.n_aux = 0

    def atom(self, lit: Literal) -> int:
        aid = self.atom_ids.get(lit)
        if aid is None:
            aid = len(self.atoms)
            self.atom_ids[lit] = aid
            self.atoms.append(lit)
        return aid

    def build(self, f: Formula) -> None:
        """Clausify an NNF formula: each conjunct of a top-level And, or f
        itself when it is no And, is one clause, a literal a unit clause
        and an Or the clause of its arguments; each And or Or below that
        gets an auxiliary (Plaisted-Greenbaum, positive side).  No clause
        repeats a literal: f_and and f_or drop repeated arguments, distinct
        literals have distinct atoms or signs, and auxiliaries are fresh."""
        def lit_of(g) -> int:
            if isinstance(g, Lit):
                lit = g.lit
                if isinstance(lit, Cmp) or lit.positive:
                    return self.atom(lit) + 1  # its own atom
                aid = self.negated.get(lit)
                if aid is None:
                    aid = self.negated[lit] = self.atom(_atom_of(lit)[0])
                return -(aid + 1)
            if isinstance(g, And):
                aux = self._aux()
                for a in g.args:
                    self.clauses.append([-aux, lit_of(a)])
                return aux
            if isinstance(g, Or):
                aux = self._aux()
                clause = [-aux]
                for a in g.args:
                    clause.append(lit_of(a))
                self.clauses.append(clause)
                return aux
            raise TypeError(f"unexpected node in NNF formula: {g!r}")

        for g in f.args if isinstance(f, And) else (f,):
            self.clauses.append([lit_of(a) for a in g.args] if isinstance(g, Or) else [lit_of(g)])

    def _aux(self) -> int:
        # aux variables live above the atom range; ids fixed after build
        self.n_aux += 1
        return 10_000_000 + self.n_aux

    def finalize(self):
        """Renumber aux vars to follow atoms; return total var count."""
        n_atoms = len(self.atoms)
        if not self.n_aux:
            return n_atoms
        mapping = {}
        for clause in self.clauses:
            for i, lit in enumerate(clause):
                v = abs(lit)
                if v > 10_000_000:
                    if v not in mapping:
                        mapping[v] = n_atoms + len(mapping) + 1
                    clause[i] = mapping[v] if lit > 0 else -mapping[v]
        return n_atoms + len(mapping)


def _bound_axioms(atoms: List[Literal], mode: Sort, forms) -> List[List[int]]:
    """Valid clauses between the comparison atoms of atoms that share a
    canonical form, over atom ids + 1 as in the skeleton's clauses.

    Each such atom bounds its form: from above (f <= b or f < b), from
    below (f >= b or f > b) or to a point (f = b), with b a
    delta-rational; in integer mode the form takes integer values, so
    t < 0 reads as t + 1 <= 0 and b is rounded inward.  An equality
    that no integer meets is negated alone; per form there come
    - a chain of implications from each upper bound to the next looser
      one, and one through the lower bounds;
    - the negation of each upper bound and the weakest lower bound that
      clashes with it, which every tighter lower bound implies;
    - for each equality, on either side, the implication of the
      tightest bound it meets and the negation of it and the weakest
      bound it clashes with, and the negation of it and each equality
      with another constant.
    So two atoms of one form whose bounds clash are never both true, and
    unit propagation sets the bounds that true atoms imply.

    An atom whose tuple of variables no other comparison atom has gets
    no form here; the forms computed are stored in forms.  The clauses
    come by form in the order of their first atoms, then by bound and
    atom id.
    """
    by_vars: Dict[object, List[int]] = {}  # a variable or a tuple of them
    for aid, atom in enumerate(atoms):
        if type(atom) is Cmp and atom.term.coeffs:
            coeffs = atom.term.coeffs
            key = coeffs[0][0] if len(coeffs) == 1 else tuple([v for v, _ in coeffs])
            group = by_vars.get(key)
            if group is None:
                by_vars[key] = [aid]
            else:
                group.append(aid)
    clauses: List[List[int]] = []
    by_form: Dict[tuple, Tuple[list, list, list]] = {}
    integer = mode is Sort.INT
    for aids in by_vars.values():
        if len(aids) < 2:
            continue
        for aid in aids:
            atom = atoms[aid]
            form, scale = forms[atom] = _canonical(atom.term.coeffs)
            op, const, lit = atom.op, atom.term.const, aid + 1
            bounds = by_form.get(form)
            if bounds is None:
                bounds = by_form[form] = ([], [], [])
            # the atom says scale * (form - q) op 0 for q = -const / scale
            if integer:
                # the form takes integer values: t < 0 is t + 1 <= 0, an
                # upper bound is floor(q) and a lower one ceil(q), which
                # is kept negated as floor(-q)
                if op == LT:
                    const += 1
                if op != EQ:
                    if scale > 0:
                        bounds[0].append((-const // scale, 0, lit))
                    else:
                        bounds[1].append((const // scale, 0, lit))
                elif const % scale:
                    clauses.append([-lit])
                else:
                    bounds[2].append((-const // scale, 0, lit))
                continue
            q = _div(-const, scale)
            if op == EQ:
                bounds[2].append((q, 0, lit))
            elif scale > 0:
                bounds[0].append((q, -1 if op == LT else 0, lit))
            else:
                bounds[1].append((-q, -1 if op == LT else 0, lit))
    for his, los, eqs in by_form.values():
        if len(his) + len(los) + len(eqs) > 1:
            clauses += _form_axioms(his, los, eqs)
    return clauses


def _form_axioms(his, los, eqs) -> List[List[int]]:
    """The clauses of _bound_axioms for one form's upper, lower and
    equality bounds, as (q, d, atom) for the bound q + d*delta; a lower
    bound is negated, so that ascending order is tightest first on both
    sides.  A bisection by (q, d) counts the bounds below q + d*delta."""
    clauses = []
    for chain in (his, los):
        if len(chain) > 1:
            chain.sort()
            clauses += [[-a[2], b[2]] for a, b in zip(chain, chain[1:])]
    if los:
        for q, d, a in his:
            k = bisect_left(los, (-q, -d))  # the lower bounds above q + d*delta
            if k:
                clauses.append([-a, -los[k - 1][2]])
    eqs.sort()
    for i, (q, _, a) in enumerate(eqs):
        k = bisect_left(his, (q, 0))  # the upper bounds below q
        if k:
            clauses.append([-a, -his[k - 1][2]])
        if k < len(his):
            clauses.append([-a, his[k][2]])
        k = bisect_left(los, (-q, 0))  # the lower bounds above q
        if k:
            clauses.append([-a, -los[k - 1][2]])
        if k < len(los):
            clauses.append([-a, los[k][2]])
        clauses += [[-a, -b] for other, _, b in eqs[i + 1:] if other != q]
    return clauses


class _CDCL:
    """Conflict-driven clause learning over the skeleton.

    Two watched literals per clause, first-UIP learning with
    non-chronological backjumping, deterministic decisions (smallest
    unassigned variable, false first, read from a cursor that moves up
    past assigned variables and down on backjumps).  Theory conflicts
    arrive as blocking clauses through the on_full callback and are
    treated like learned clauses.
    """

    def __init__(self, nvars: int, clauses: List[List[int]]):
        self.nvars = nvars
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: Dict[int, bool] = {}
        self.level: Dict[int, int] = {}
        self.reason: Dict[int, Optional[int]] = {}
        self.trail: List[int] = []  # assigned literals in order
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.cursor = 1  # every variable below it is assigned
        self.decisions = 0
        self.ok = True
        for c in clauses:  # duplicate-free, as _Skeleton and _bound_axioms build them
            if len(c) == 1:
                self._unit(c[0])
            else:
                self._store(c)

    # -- plumbing ------------------------------------------------------

    def _value(self, lit: int):
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def _assign(self, lit: int, reason: Optional[int]):
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _unit(self, lit: int) -> bool:
        """Assert a unit clause at level 0; returns False if that makes
        the instance unsat."""
        self._backjump(0)
        val = self._value(lit)
        if val is None:
            self._assign(lit, None)
        elif val is False:
            self.ok = False
            return False
        return True

    def _store(self, clause: List[int]) -> int:
        """Store a clause of two or more literals, watching its first two;
        returns its index."""
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(ci)
        self.watches.setdefault(clause[1], []).append(ci)
        return ci

    def _backjump(self, target_level: int):
        if len(self.trail_lim) <= target_level:
            return
        cut = self.trail_lim[target_level]
        cursor = self.cursor
        for lit in self.trail[cut:]:
            var = abs(lit)
            del self.assign[var]
            del self.level[var]
            del self.reason[var]
            if var < cursor:
                cursor = var
        self.cursor = cursor
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _propagate(self) -> Optional[int]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            ws = self.watches.get(neg, [])
            kept = []
            idx = 0
            while idx < len(ws):
                ci = ws[idx]
                idx += 1
                clause = self.clauses[ci]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(first) is False:
                    kept.extend(ws[idx:])
                    self.watches[neg] = kept
                    return ci
                self._assign(first, ci)
            self.watches[neg] = kept
        return None

    def _analyze(self, conflict: int):
        """First-UIP conflict analysis; returns (learned, backjump level)."""
        cur = len(self.trail_lim)
        seen = set()
        learned: List[int] = []
        counter = 0
        reason_lits = list(self.clauses[conflict])
        index = len(self.trail) - 1
        uip = None
        while True:
            for lit in reason_lits:
                var = abs(lit)
                if var in seen or self.level.get(var, 0) == 0:
                    continue
                seen.add(var)
                if self.level[var] == cur:
                    counter += 1
                else:
                    learned.append(lit)
            while abs(self.trail[index]) not in seen:
                index -= 1
            p = self.trail[index]
            var = abs(p)
            seen.discard(var)
            counter -= 1
            if counter == 0:
                uip = p
                break
            ante = self.reason[var]
            if ante is None:
                raise SelfCheckFailed("decision literal on the conflict side")
            reason_lits = [l for l in self.clauses[ante] if abs(l) != var]
            index -= 1
        learned = [-uip] + learned
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[abs(l)] for l in learned[1:])
        # put a literal of the backjump level in the second watch slot
        for i, l in enumerate(learned[1:], start=1):
            if self.level[abs(l)] == back:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, back

    def _learn(self, learned: List[int], back: int) -> bool:
        self._backjump(back)
        if len(learned) == 1:
            return self._unit(learned[0])
        ci = self._store(learned)
        if self._value(learned[0]) is None:
            self._assign(learned[0], ci)
        return True

    def add_blocking(self, clause: List[int]):
        """Theory conflict clause: all literals are currently false.

        Returns False for the empty clause, an int clause index when the
        clause is still conflicting after the backjump (the two highest
        literals share a level), True otherwise.
        """
        clause = list(dict.fromkeys(clause))
        if not clause:
            return False
        if len(clause) == 1:
            return self._unit(clause[0])
        clause.sort(key=lambda l: -self.level.get(abs(l), 0))
        back = self.level.get(abs(clause[1]), 0)
        ci = self._store(clause)
        self._backjump(back)
        if self._value(clause[0]) is False:
            return ci  # conflicts at the backjump level; analyze there
        if self._value(clause[0]) is None and all(
            self._value(l) is False for l in clause[1:]
        ):
            self._assign(clause[0], ci)
        return True

    def search(self, on_full):
        """on_full(assignment) -> None to accept, "budget", or a clause."""
        if not self.ok:
            return "unsat", None
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return "unsat", None
                learned, back = self._analyze(conflict)
                if not self._learn(learned, back):
                    return "unsat", None
                continue
            var, assign = self.cursor, self.assign
            while var in assign:
                var += 1
            self.cursor = var
            if var > self.nvars:
                block = on_full(self.assign)
                if block is None:
                    return "sat", dict(self.assign)
                if block == "budget":
                    return "unknown", None
                added = self.add_blocking(block)
                if added is False or not self.ok:
                    return "unsat", None
                if added is not True:  # clause index: conflict to analyze
                    if not self.trail_lim:
                        return "unsat", None
                    learned, back = self._analyze(added)
                    if not self._learn(learned, back):
                        return "unsat", None
                continue
            self.decisions += 1
            if self.decisions > MAX_DECISIONS:
                return "unknown", None
            self.trail_lim.append(len(self.trail))
            self._assign(-var, None)  # false first


# --------------------------------------------------------------------------
# Public entry points.
# --------------------------------------------------------------------------


def _accept(assign: Dict[int, bool]) -> None:
    """on_full of a query with no theory atoms: every full assignment is a
    model."""
    return None


def check_sat(f: Formula, mode: Sort) -> SatResult:
    """Decide a call-free NNF formula; produce a model when it is sat."""
    if isinstance(f, Top):
        return SatResult("sat", Model({}))
    if isinstance(f, Bottom):
        return SatResult("unsat")

    skel = _Skeleton()
    skel.build(f)
    nvars = skel.finalize()
    # the theory atoms with their search variables; none in Boolean mode,
    # where the first full assignment is a model
    theory = [(aid + 1, atom) for aid, atom in enumerate(skel.atoms) if type(atom) is not BoolLit]
    on_full = _accept
    # the values of the accepted full assignment; a list and not an
    # attribute of on_full, which would make the closure a reference
    # cycle that holds the skeleton until a full garbage collection
    result = [{}]
    if theory:
        forms: Dict[Cmp, tuple] = {}
        if mode is not Sort.BOOL:
            skel.clauses += _bound_axioms(skel.atoms, mode, forms)
        theory_checks = [0]

        def on_full(assign: Dict[int, bool]):
            theory_checks[0] += 1
            if theory_checks[0] > MAX_THEORY_CHECKS:
                return "budget"
            # a false comparison atom carries no obligation: comparisons
            # occur only positively in NNF
            asserted = [
                (atom, val) for var, atom in theory if (val := assign[var]) or type(atom) is not Cmp
            ]
            status, payload = _TheoryCheck(mode, forms).decide(asserted)
            if status == "sat":
                result[0] = payload
                return None
            # blocking clause: negate the conjunction that was refuted
            clause = []
            for lit, val in payload.literals:
                aid = skel.atom_ids[lit] + 1
                clause.append(-aid if val else aid)
            return clause

    status, assign = _CDCL(nvars, skel.clauses).search(on_full)
    if status == "unsat":
        return SatResult("unsat")
    if status == "unknown":
        return SatResult("unknown", reason="decision budget exhausted")
    # the atoms have exactly the variables of f
    model = Model()
    for aid, atom in enumerate(skel.atoms):
        if type(atom) is BoolLit:
            model[atom.var] = assign[aid + 1]
    arith_vals = result[0]
    for _, atom in theory:
        for v, _ in atom.term.coeffs:
            val = model[v] = arith_vals.get(v, 0)
            if mode is Sort.INT and val.denominator != 1:
                raise SelfCheckFailed(f"non-integral value {val} for {v!r}")
    # a solver bug becomes a loud failure, not a wrong answer
    if not eval_formula(f, model):
        raise SelfCheckFailed(f"model check failed for {f!r} -> {model!r}")
    return SatResult("sat", model)


def refute_conjunction(literals: Sequence[Tuple[Literal, bool]], mode: Sort):
    """Theory-check a conjunction of valued theory literals directly.

    Returns ("sat", values) or ("unsat", cert), where cert is a
    FarkasCert or a ClausalCore.  A Boolean literal
    raises TypeError: interpolation calls this only in rational and
    integer mode, where every variable is arithmetic.
    """
    asserted = []
    for lit, val in literals:
        atom, sign = _atom_of(lit)
        asserted.append((atom, val == sign))
    status, payload = _TheoryCheck(mode).decide(asserted)
    if isinstance(payload, _Conflict):
        payload = payload.certificate()
    return status, payload


def entails(a: Formula, b: Formula, mode: Sort) -> bool:
    """Valid implication a => b, decided as unsatisfiability of a and not b."""
    res = check_sat(f_and([a, negate_nnf(b)]), mode)
    if res.is_unknown:
        raise ResourceLimit(res.reason)
    return res.is_unsat
