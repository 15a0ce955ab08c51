"""Terms, literals and formulas in negation normal form.

The engine works on quantifier-free formulas over linear arithmetic
(exact rationals or integers) or propositional atoms, extended with
positive call atoms naming procedures.  Negation exists only inside
literals: boolean and divisibility literals carry a polarity flag, and
negated comparisons are rewritten at construction time
(not(a < b) becomes b <= a, not(a = b) becomes a < b or b < a).

One number rule holds throughout the arithmetic layer (terms, normal
forms, Cooper and model-based projection, the simplex) and for every
value it hands out (LinTerm.evaluate, Cooper witnesses, models): a
number is a Python int when it is integral and a Fraction only when it
is not, so the common small-integer term or model costs no gcd per
operation.  _num reasserts the rule after an operation that may leave an
integral Fraction, and _div is the one exact division (/ between two
ints would give a float).  Only certificate multipliers are handed out
as Fractions.  An integral number compares and hashes alike as an int
and as a Fraction, and str prints it alike, so keys, set orders and
printed formulas do not depend on which of the two it is; repr does not
print it alike, so a renderer that uses repr on values takes them
through Fraction first.

Everything here is an immutable value; no operation mutates its input.
Nodes are slotted frozen dataclasses that hash once: the first hash of a
node is stored in a slot of its own, which takes no part in construction,
equality or repr.  The stored value is the field hash, hash((field1,
field2, ...)), that the generated dataclass hash would return, so sets
and dicts of nodes iterate in the same order as without the cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, is_
from typing import Iterable, Mapping, Union

from .errors import NotNormalized, PathExplosion, UnassignedVar


class Sort(enum.Enum):
    BOOL = "bool"
    RAT = "rat"
    INT = "int"


class Role(enum.Enum):
    IN = "in"
    OUT = "out"
    LOCAL = "local"
    AUX = "aux"


def _node(cls):
    """Make cls a frozen, slotted dataclass that keeps its field hash in
    an extra `_hash` slot, filled on first use.

    Without it every f_and and f_or dedupe and every set or dict lookup
    rehashes the whole subtree.
    """
    cls.__annotations__["_hash"] = "Optional[int]"
    cls._hash = field(default=None, init=False, repr=False, compare=False)
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls) if f.compare)
    get = attrgetter(*names)
    single = len(names) == 1

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((get(self),) if single else get(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Var:
    name: str
    sort: Sort
    role: Role = Role.AUX
    # "" for none: hash(None) is an address on Python 3.11, which would make
    # the hash of an owner-less Var, and set orders, differ between processes
    owner: str = ""

    def key(self):
        return (self.owner, self.name)

    def __repr__(self):
        if self.owner:
            return f"{self.owner}::{self.name}"
        return self.name


# A number inside the arithmetic layer: an int when integral, else a Fraction.
Number = Union[int, Fraction]
# A model's value: a bool, or an arithmetic value under the number rule.
Value = Union[bool, Number]


def _num(x: Number) -> Number:
    """x as an int when it is integral, else as it is (a Fraction)."""
    return x.numerator if x.denominator == 1 else x


def _div(a: Number, b: Number) -> Number:
    """The exact quotient a / b, as an int when it is integral.  Two ints
    never meet /, which would make a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _num(a / b)


@_node
class LinTerm:
    """Linear combination of arithmetic variables plus a constant.

    Coefficients and the constant are Numbers: ints where integral,
    Fractions where not.  Zero coefficients are never stored and entries
    are kept sorted by variable key so that structurally equal terms
    compare equal.
    """

    coeffs: tuple  # tuple[(Var, Number), ...] sorted by Var.key()
    const: Number

    @staticmethod
    def make(coeffs: Mapping[Var, Number], const: Number = 0) -> "LinTerm":
        items = tuple(
            sorted(
                ((v, _num(c)) for v, c in coeffs.items() if c != 0),
                key=lambda it: it[0].key(),
            )
        )
        return LinTerm(items, _num(const))

    @staticmethod
    def of_var(v: Var) -> "LinTerm":
        return LinTerm(((v, 1),), 0)

    @staticmethod
    def of_const(c: Number) -> "LinTerm":
        return LinTerm((), _num(c))

    def coeff(self, v: Var) -> Number:
        for w, c in self.coeffs:
            if w == v:
                return c
        return 0

    @property
    def vars(self):
        return tuple(v for v, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinTerm") -> "LinTerm":
        if not other.coeffs:  # constant shift: coefficients stay canonical
            return LinTerm(self.coeffs, _num(self.const + other.const))
        acc = {v: c for v, c in self.coeffs}
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return LinTerm.make(acc, self.const + other.const)

    def sub(self, other: "LinTerm") -> "LinTerm":
        return self.add(other.scale(-1))

    def scale(self, k: Number) -> "LinTerm":
        k = _num(k)
        if k == 0:
            return LinTerm((), 0)
        return LinTerm(
            tuple((v, _num(c * k)) for v, c in self.coeffs), _num(self.const * k)
        )

    def subst(self, mapping: Mapping[Var, "LinTerm"]) -> "LinTerm":
        """Replace each mapped variable by its term, in one pass.

        Returns self when no variable of the term is in the mapping.
        """
        if not any(v in mapping for v, _ in self.coeffs):
            return self
        acc = {}
        const = self.const
        for v, c in self.coeffs:
            rep = mapping.get(v)
            if rep is None:
                acc[v] = acc.get(v, 0) + c
            else:
                for w, d in rep.coeffs:
                    acc[w] = acc.get(w, 0) + c * d
                const += c * rep.const
        return LinTerm.make(acc, const)

    def evaluate(self, model: Mapping[Var, Value]) -> Number:
        total = self.const
        for v, c in self.coeffs:
            if v not in model:
                raise UnassignedVar(repr(v))
            total += c * model[v]
        return total if type(total) is int else _num(total)

    def key(self):
        return (
            tuple((v.key(), c) for v, c in self.coeffs),
            self.const,
        )

    def is_integral(self) -> bool:
        return self.const.denominator == 1 and all(
            c.denominator == 1 for _, c in self.coeffs
        )

    def __repr__(self):
        parts = [f"{c}*{v!r}" for v, c in self.coeffs]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


# --------------------------------------------------------------------------
# Literals.  A comparison literal means "term op 0" and is always stored
# with positive polarity; boolean and divisibility literals keep a flag.
# --------------------------------------------------------------------------

LT, LE, EQ = "<", "<=", "="


@_node
class Cmp:
    op: str  # one of LT, LE, EQ
    term: LinTerm

    def key(self):
        return ("cmp", self.op, self.term.key())

    def __repr__(self):
        return f"({self.term!r} {self.op} 0)"


@_node
class BoolLit:
    var: Var
    positive: bool = True

    def key(self):
        return ("bool", self.var.key(), self.positive)

    def __repr__(self):
        return repr(self.var) if self.positive else f"!{self.var!r}"


@_node
class DivLit:
    divisor: int  # >= 1
    term: LinTerm
    positive: bool = True

    def key(self):
        return ("div", self.divisor, self.term.key(), self.positive)

    def __repr__(self):
        s = f"({self.divisor} | {self.term!r})"
        return s if self.positive else f"!{s}"


Literal = Union[Cmp, BoolLit, DivLit]


def eval_literal(lit: Literal, model: Mapping[Var, Value]) -> bool:
    if isinstance(lit, Cmp):
        v = lit.term.evaluate(model)
        if lit.op == LT:
            return v < 0
        if lit.op == LE:
            return v <= 0
        return v == 0
    if isinstance(lit, BoolLit):
        if lit.var not in model:
            raise UnassignedVar(repr(lit.var))
        return bool(model[lit.var]) == lit.positive
    v = lit.term.evaluate(model)
    divisible = v.denominator == 1 and v.numerator % lit.divisor == 0
    return divisible == lit.positive


def literal_vars(lit: Literal):
    if isinstance(lit, BoolLit):
        return (lit.var,)
    return lit.term.vars


# --------------------------------------------------------------------------
# Formulas.
# --------------------------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    def __repr__(self):
        return "false"


TRUE = Top()
FALSE = Bottom()


@_node
class Lit(Formula):
    lit: Literal

    def __repr__(self):
        return repr(self.lit)


@_node
class And(Formula):
    args: tuple

    def __repr__(self):
        return "(and " + " ".join(map(repr, self.args)) + ")"


@_node
class Or(Formula):
    args: tuple

    def __repr__(self):
        return "(or " + " ".join(map(repr, self.args)) + ")"


@_node
class Call(Formula):
    callee: str
    args: tuple  # tuple[Var, ...]

    def __repr__(self):
        return f"({self.callee} " + " ".join(map(repr, self.args)) + ")"


def _sym_mod(c: int, d: int) -> int:
    """Residue of c modulo d in the range (-d/2, d/2]."""
    r = c % d
    return r - d if 2 * r > d else r


def _canonical_div(lit: DivLit) -> Formula:
    """Canonical form of a divisibility literal with an integral term."""
    d = lit.divisor
    coeffs = [(v, _sym_mod(c.numerator, d)) for v, c in lit.term.coeffs]
    coeffs = [(v, c) for v, c in coeffs if c != 0]
    const = lit.term.const.numerator % d
    g = gcd(d, *(c for _, c in coeffs))
    if const % g:
        # every value of the linear part is a multiple of g, the constant is not
        return FALSE if lit.positive else TRUE
    d //= g
    if d == 1:
        return TRUE if lit.positive else FALSE
    sign = -1 if coeffs[0][1] < 0 else 1
    term = LinTerm(
        tuple((v, _sym_mod(sign * c // g, d)) for v, c in coeffs),
        sign * const // g % d,
    )
    return Lit(DivLit(d, term, lit.positive))


def mk_lit(lit: Literal) -> Formula:
    """Wrap a literal, folding away constant comparisons.

    Equalities get a positive first coefficient.  A divisibility literal
    (d | t) with an integral term is rewritten to its canonical form:
    coefficients are reduced modulo d into (-d/2, d/2] and the constant
    into [0, d); their common divisor g with d is divided out, or the
    literal folds to a constant when g does not divide the constant (or
    d becomes 1); finally the term is negated if its first coefficient
    is negative.  Equivalent literals such as (3 | z - y) and (3 | y - z)
    thus become equal, and a coefficient of +-1 stays +-1.
    """
    if isinstance(lit, Cmp) and lit.term.is_const():
        c = lit.term.const
        ok = c < 0 if lit.op == LT else (c <= 0 if lit.op == LE else c == 0)
        return TRUE if ok else FALSE
    if isinstance(lit, DivLit):
        if lit.term.is_integral():
            return _canonical_div(lit)
        if lit.term.is_const():
            return FALSE if lit.positive else TRUE  # a non-integer is never divisible
    if isinstance(lit, Cmp) and lit.op == EQ:
        # canonical sign for equalities: first coefficient positive
        if lit.term.coeffs and lit.term.coeffs[0][1] < 0:
            lit = Cmp(EQ, lit.term.scale(-1))
    return Lit(lit)


def mk_cmp(op: str, term: LinTerm) -> Formula:
    return mk_lit(Cmp(op, term))


def f_and(args: Iterable[Formula]) -> Formula:
    """Conjunction, flattened, with TRUE dropped, FALSE absorbing and
    repeated arguments dropped in first-occurrence order."""
    flat = []
    for a in args:
        if isinstance(a, And):
            flat.extend(a.args)
        elif isinstance(a, Top):
            continue
        elif isinstance(a, Bottom):
            return FALSE
        else:
            flat.append(a)
    if len(flat) > 1:
        flat = tuple(dict.fromkeys(flat))  # one hash per argument
        return And(flat) if len(flat) > 1 else flat[0]
    return flat[0] if flat else TRUE


def f_or(args: Iterable[Formula]) -> Formula:
    """Disjunction, the dual of f_and."""
    flat = []
    for a in args:
        if isinstance(a, Or):
            flat.extend(a.args)
        elif isinstance(a, Bottom):
            continue
        elif isinstance(a, Top):
            return TRUE
        else:
            flat.append(a)
    if len(flat) > 1:
        flat = tuple(dict.fromkeys(flat))
        return Or(flat) if len(flat) > 1 else flat[0]
    return flat[0] if flat else FALSE


def negate_literal(lit: Literal) -> Formula:
    if isinstance(lit, Cmp):
        if lit.op == LT:
            return mk_cmp(LE, lit.term.scale(-1))
        if lit.op == LE:
            return mk_cmp(LT, lit.term.scale(-1))
        # not(t = 0)  ==>  t < 0 or -t < 0
        return f_or([mk_cmp(LT, lit.term), mk_cmp(LT, lit.term.scale(-1))])
    if isinstance(lit, BoolLit):
        return Lit(BoolLit(lit.var, not lit.positive))
    return mk_lit(DivLit(lit.divisor, lit.term, not lit.positive))


def negate_nnf(f: Formula) -> Formula:
    """Negation of an NNF formula, again in NNF: And and Or swap and each
    literal is negated.  Calls occur only positively, so a call atom here
    is a programming error (TypeError)."""
    if isinstance(f, Lit):
        return negate_literal(f.lit)
    if isinstance(f, And):
        return f_or(negate_nnf(a) for a in f.args)
    if isinstance(f, Or):
        return f_and(negate_nnf(a) for a in f.args)
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bottom):
        return TRUE
    raise TypeError(f"cannot negate {f!r}")


def map_literals(f: Formula, fn) -> Formula:
    """f with each literal node g replaced by fn(g), rebuilt through f_and
    and f_or; calls and constants are kept.

    An And or Or whose arguments all come back unchanged is returned
    itself, so f is returned when fn returns every literal node it is
    given.  As in f_and and f_or, a false argument decides an And and a
    true one an Or, and the arguments after it are not mapped.  Nesting
    is held in a list of frames, not on the call stack."""
    if not isinstance(f, (And, Or)):
        return fn(f) if isinstance(f, Lit) else f
    stack = []  # (node, next argument, arguments mapped) of the nodes above
    node, i, done = f, 0, []
    while True:
        args = node.args
        decides = Bottom if isinstance(node, And) else Top
        out = None
        while i < len(args):
            a = args[i]
            i += 1
            if isinstance(a, Lit):
                a = fn(a)
            elif isinstance(a, (And, Or)):
                stack.append((node, i, done))
                node, i, done = a, 0, []
                break
            if isinstance(a, decides):
                out = a
                break
            done.append(a)
        else:
            out = node if all(map(is_, done, args)) else (f_and if decides is Bottom else f_or)(done)
        # out is None when an argument was entered, else the value of node,
        # an argument of the node above; when it decides that node too, it
        # is that node's value
        while out is not None:
            if not stack:
                return out
            node, i, done = stack.pop()
            if not isinstance(out, Bottom if isinstance(node, And) else Top):
                done.append(out)
                out = None


def leaves(f: Formula):
    """The literal and call nodes of f, left to right, in bounded stack."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Lit):
            yield g
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif isinstance(g, Call):
            yield g


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Lit):  # the common single literal, without a walk
        return frozenset(literal_vars(f.lit))
    out = set()
    for g in leaves(f):
        out.update(literal_vars(g.lit) if isinstance(g, Lit) else g.args)
    return frozenset(out)


def has_calls(f: Formula) -> bool:
    return any(isinstance(g, Call) for g in leaves(f))


def eval_formula(f: Formula, model: Mapping[Var, Value]) -> bool:
    """Standard semantics; the formula must be call-free."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Lit):
        return eval_literal(f.lit, model)
    if isinstance(f, And):
        return all(eval_formula(a, model) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, model) for a in f.args)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def implicant(f: Formula, model: Mapping[Var, Value]) -> Formula:
    """The conjunction of the literals through which model satisfies f:
    every conjunct of an And, and the first disjunct of an Or that model
    satisfies.  It implies f and holds in model; FALSE when model
    falsifies f."""
    lits: list = []
    return f_and(lits) if _implicant_lits(f, model, lits) else FALSE


def _implicant_lits(f: Formula, model, out: list) -> bool:
    """Whether model satisfies f; if so, f's implicant literals are
    appended to out, else out is left as it was."""
    if isinstance(f, Lit):
        if eval_literal(f.lit, model):
            out.append(f)
            return True
        return False
    if isinstance(f, And):
        mark = len(out)
        for a in f.args:
            if not _implicant_lits(a, model, out):
                del out[mark:]
                return False
        return True
    if isinstance(f, Or):
        return any(_implicant_lits(a, model, out) for a in f.args)
    return isinstance(f, Top)


# --------------------------------------------------------------------------
# Substitutions.
# --------------------------------------------------------------------------


def rename_vars(f: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Variable-for-variable renaming of a call-free formula."""

    def rule(g):
        lit = g.lit
        if isinstance(lit, BoolLit):
            w = mapping.get(lit.var)
            return g if w is None else Lit(BoolLit(w, lit.positive))
        return subst_arith(g, {v: LinTerm.of_var(mapping[v]) for v in lit.term.vars if v in mapping})

    return map_literals(f, rule)


def subst_arith(f: Formula, mapping: Mapping[Var, LinTerm]) -> Formula:
    """Replace arithmetic variables by terms in a call-free formula."""

    def rule(g):
        lit = g.lit
        if isinstance(lit, BoolLit):
            assert lit.var not in mapping, "cannot substitute a term for a boolean"
            return g
        term = lit.term.subst(mapping)
        if term is lit.term:
            return g  # built by mk_lit, so already canonical
        if isinstance(lit, Cmp):
            return mk_cmp(lit.op, term)
        return mk_lit(DivLit(lit.divisor, term, lit.positive))

    return map_literals(f, rule)


def subst_bool(f: Formula, mapping: Mapping[Var, bool]) -> Formula:
    """Replace boolean variables by constants, folding the result."""

    def rule(g):
        lit = g.lit
        if isinstance(lit, BoolLit) and lit.var in mapping:
            return TRUE if mapping[lit.var] == lit.positive else FALSE
        return g

    return map_literals(f, rule)


# --------------------------------------------------------------------------
# Paths: DNF disjuncts of a procedure body.
# --------------------------------------------------------------------------

PATH_LIMIT = 4096  # read at call time, so a test can lower it


@_node
class Path:
    literals: tuple  # tuple[Literal, ...]
    calls: tuple  # tuple[Call, ...] in body order

    def formula(self) -> Formula:
        return f_and([mk_lit(l) for l in self.literals] + list(self.calls))

    def __repr__(self):
        return repr(self.formula())


def dnf_paths(body: Formula):
    """Expand an NNF body into its DNF disjuncts.

    Each returned path is a conjunction of literals and calls; their
    disjunction is equivalent to the body.  Raises PathExplosion past
    PATH_LIMIT paths rather than truncating, since truncation would
    silently break that equivalence.
    """

    def expand(f):
        if isinstance(f, Top):
            return [((), ())]
        if isinstance(f, Bottom):
            return []
        if isinstance(f, Lit):
            return [((f.lit,), ())]
        if isinstance(f, Call):
            return [((), (f,))]
        if isinstance(f, Or):
            out = []
            for a in f.args:
                out.extend(expand(a))
                if len(out) > PATH_LIMIT:
                    raise PathExplosion(f"more than {PATH_LIMIT} paths")
            return out
        if isinstance(f, And):
            acc = [((), ())]
            for a in f.args:
                sub = expand(a)
                nxt = []
                for lits1, calls1 in acc:
                    for lits2, calls2 in sub:
                        nxt.append((lits1 + lits2, calls1 + calls2))
                        if len(nxt) > PATH_LIMIT:
                            raise PathExplosion(f"more than {PATH_LIMIT} paths")
                acc = nxt
            return acc
        raise TypeError(f"body not in NNF: {f!r}")

    paths = []
    seen = set()
    for lits, calls in expand(body):
        # drop duplicate literals while keeping first-occurrence order
        uniq, lseen = [], set()
        for l in lits:
            if l not in lseen:
                lseen.add(l)
                uniq.append(l)
        p = Path(tuple(uniq), calls)
        if p not in seen:
            seen.add(p)
            paths.append(p)
    return paths


# --------------------------------------------------------------------------
# Normal forms for variable elimination.
# --------------------------------------------------------------------------


def _drop_var(term: LinTerm, x: Var) -> LinTerm:
    """term minus its x part, without re-sorting the coefficients."""
    return LinTerm(tuple(it for it in term.coeffs if it[0] != x), term.const)


def normalize_for(x: Var, lit: Literal, mode: Sort):
    """Classify a literal relative to x.

    Returns one of
        ("free", lit)        x does not occur
        ("eq", e)            x = e
        ("lo", l)            l < x
        ("hi", u)            x < u
        ("div", d, w, pos)   d | x + w   (integer mode, coefficient +1)

    In rational mode the coefficient of x is divided out; weak bounds on
    x must have been split into strict-or-equal beforehand.  In integer
    mode the coefficient must already be +-1 (see lia_normalize); weak
    bounds are shifted by one into strict ones.
    """
    assert x.sort is not Sort.BOOL
    if isinstance(lit, BoolLit):
        return ("free", lit)
    c = lit.term.coeff(x)
    if c == 0:
        return ("free", lit)
    if isinstance(lit, DivLit):
        if mode is not Sort.INT:
            raise NotNormalized("divisibility outside integer mode")
        if abs(c) != 1:
            raise NotNormalized(f"divisibility coefficient {c} for {x!r}")
        term = lit.term if c > 0 else lit.term.scale(-1)
        return ("div", lit.divisor, _drop_var(term, x), lit.positive)
    rest = _drop_var(lit.term, x)
    if mode is Sort.INT:
        if abs(c) != 1:
            raise NotNormalized(f"coefficient {c} of {x!r} is not +-1")
        if lit.op == EQ:
            return ("eq", rest.scale(-c))  # 1/c = c when |c| = 1
        shift = 1 if lit.op == LE else 0
        # c*x + rest (<|<=) 0 over integers, with |c| = 1
        if c > 0:
            # x < -rest (+1 if weak)
            return ("hi", rest.scale(-1).add(LinTerm.of_const(shift)))
        # rest (-1 if weak) < x
        return ("lo", rest.sub(LinTerm.of_const(shift)))
    # rational mode: divide by |c|
    r = rest.scale(_div(1, abs(c)))
    if lit.op == EQ:
        return ("eq", rest.scale(_div(-1, c)))
    if lit.op == LE:
        raise NotNormalized("weak bound on eliminated rational variable")
    if c > 0:
        return ("hi", r.scale(-1))
    return ("lo", r)


def lia_normalize(x: Var, f: Formula):
    """Rescale an integer formula so x occurs only with coefficient +-1.

    Returns (formula, multiplier, y) where y stands for multiplier * x;
    the literal (multiplier | y) is conjoined.  The result is
    equisatisfiable and projects to an equivalent formula once y is
    eliminated.  Every caller eliminates y before it returns, so y can
    take a fixed name after x, an AUX one that no parsed variable has,
    and equal calls give equal results.  A formula whose x-coefficients
    are already +-1 is returned unchanged with multiplier 1.  Raises NotNormalized when a
    coefficient of x is not integral.
    """
    coeffs = set()
    for g in leaves(f):
        if isinstance(g, Lit) and not isinstance(g.lit, BoolLit):
            c = g.lit.term.coeff(x)
            if c != 0:
                if c.denominator != 1:
                    raise NotNormalized(f"coefficient {c} of {x!r} in integer mode")
                coeffs.add(abs(c.numerator))
    if not coeffs or coeffs == {1}:
        return f, 1, x
    mult = lcm(*coeffs)
    y = Var(f"{x.name}#s", x.sort, Role.AUX, x.owner)
    yterm = LinTerm.of_var(y)

    def rewrite(g):
        lit = g.lit
        if isinstance(lit, BoolLit):
            return g
        c = lit.term.coeff(x)
        if c == 0:
            return g
        m = mult // abs(c)  # an int: mult is a multiple of every |c|
        scaled = lit.term.scale(m)  # coefficient of x is now +-mult
        cx = scaled.coeff(x)
        newterm = scaled.sub(LinTerm(((x, cx),), 0)).add(
            yterm.scale(_div(cx, mult))
        )
        if isinstance(lit, Cmp):
            return mk_cmp(lit.op, newterm)
        return mk_lit(DivLit(lit.divisor * m, newterm, lit.positive))

    out = f_and([map_literals(f, rewrite), mk_lit(DivLit(mult, yterm, True))])
    return out, mult, y


# --------------------------------------------------------------------------
# Canonical keys (used to deduplicate stored facts).
# --------------------------------------------------------------------------


def formula_size(f: Formula) -> int:
    if isinstance(f, (And, Or)):
        return 1 + sum(formula_size(a) for a in f.args)
    return 1


def canon_key(f: Formula):
    if isinstance(f, Top):
        return ("true",)
    if isinstance(f, Bottom):
        return ("false",)
    if isinstance(f, Lit):
        return ("lit", f.lit.key())
    if isinstance(f, Call):
        return ("call", f.callee, tuple(v.key() for v in f.args))
    tag = "and" if isinstance(f, And) else "or"
    return (tag, tuple(sorted(canon_key(a) for a in f.args)))
