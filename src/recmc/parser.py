"""Reading and writing the s-expression program format.

    (program
      (mode bool|rat|int)
      (procedure NAME (in v ...) (out v ...) (local v ...) (body EXPR))
      ...
      (main NAME)
      (assert-safe EXPR))

Formula syntax: (< a b), (<= a b), (= a b), (divides d t) in integer
mode, (and ...), (or ...), (not ...), (call NAME v ...), true, false,
and bare variable names as boolean atoms.  Terms: (+ t ...), (- a b),
(- a), (* c t), (/ p q), numbers, variables.  (> a b) and (>= a b) are
accepted as sugar for the flipped forms.  Comments run from ';' to the
end of the line.

parse reads, checks and normalizes a program in one pass.  It is the
only entry point that checks a program, and nothing downstream checks a
rule again.  Each rule is checked where its text is read, in this order:

  - the top-level forms, then the procedure headers: a mode, a main and
    an assert-safe are present once each, headers are well formed with
    each section at most once, no procedure is declared twice; then main
    must be declared;
  - each body, in file order: variables are declared once, in scope and
    of the right sort; a call names a declared procedure with its arity
    and is not under a negation (reported with its position); a negated
    divisibility literal is rejected unless it folds to a constant; the
    body has at most formula.PATH_LIMIT paths (else PathExplosion);
  - assert-safe, in main's scope: it calls nothing, and mentions only
    main's formals.

Syntax, scope and sort errors are RplSyntaxErrors with their position;
the other rules raise ValidationError or its subclasses ArityMismatch
and PathExplosion.

A formula is built in NNF as it is read: (not ...) flips the polarity of
its argument, and and or swap under a negation, and a literal leaf under
a negation is negated as it is built (negate_nnf).

The text is read in one regex scan, with its comments blanked, and one
loop over the tokens that keeps the open lists on a stack.  A token
holds its index, not its line and column: a position is computed, by
scanning the text again, only for an error message.

Parentheses may nest at most MAX_NESTING = 256 deep, counting the
(program ...) form itself; a deeper '(' is an RplSyntaxError at its
position.  The formula walkers recurse, up to three Python frames per
level for an alternating (and i (or i ...)) body, so at the limit the
deepest walk takes about 770 frames: within Python's default recursion
limit of 1000.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .errors import ArityMismatch, RplSyntaxError, ValidationError
from .formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    BoolLit,
    Bottom,
    Call,
    Cmp,
    DivLit,
    Formula,
    LinTerm,
    Lit,
    Number,
    Or,
    Role,
    Sort,
    Top,
    Var,
    _div,
    f_and,
    f_or,
    free_vars,
    mk_cmp,
    mk_lit,
    negate_nnf,
)
from .program import Program, make_procedure


@dataclass
class SourceUnit:
    text: str
    program: Program
    mode: Sort
    phi_safe: Formula


# -- reader ------------------------------------------------------------------

_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")
_COMMENT = re.compile(r";[^\n]*")
MAX_NESTING = 256


class _Tok:
    """An atom, or the '(' that opens a list: its text, and its index
    among the tokens of src, the source with its comments blanked."""

    __slots__ = ("text", "src", "index")

    def __init__(self, text: str, src: str, index: int):
        self.text = text
        self.src = src
        self.index = index

    def pos(self) -> Tuple[int, int]:
        """(line, col), found by scanning src again: only a newline ends
        a line, and every other character is one column."""
        off = next(islice(_TOKEN.finditer(self.src), self.index, None)).start()
        return self.src.count("\n", 0, off) + 1, off - self.src.rfind("\n", 0, off)


def _read_sexprs(text: str) -> list:
    """The forms of text.  A list is a pair ('(' token, items)."""
    src = _COMMENT.sub(lambda m: " " * len(m[0]), text)  # keeps every offset
    out, stack = [], []
    items = out
    for i, t in enumerate(_TOKEN.findall(src)):
        if t == "(":
            node = (_Tok(t, src, i), [])
            if len(stack) == MAX_NESTING:
                raise _err(node, f"parentheses nested deeper than {MAX_NESTING}")
            items.append(node)
            stack.append(node)
            items = node[1]
        elif t == ")":
            if not stack:
                raise _err(_Tok(t, src, i), "unmatched ')'")
            stack.pop()
            items = stack[-1][1] if stack else out
        else:
            items.append(_Tok(t, src, i))
    if stack:
        raise _err(stack[-1], "unclosed '('")
    return out


def _is_list(node) -> bool:
    return isinstance(node, tuple)


def _head(node) -> str:
    if not _is_list(node) or not node[1] or not isinstance(node[1][0], _Tok):
        return ""
    return node[1][0].text


def _err(node, msg) -> RplSyntaxError:
    tok = node[0] if _is_list(node) else node
    return RplSyntaxError(*tok.pos(), msg)


# -- numbers and terms -------------------------------------------------------


def _is_numeral(s: str) -> bool:
    """A nonempty run of ASCII digits.  str.isdigit alone also accepts
    superscripts, which int rejects, and other scripts' digits."""
    return s.isascii() and s.isdigit()


def _parse_number(tok: _Tok) -> Optional[Number]:
    s = tok.text
    neg = s.startswith("-")
    body = s[1:] if neg else s
    if "/" in body:
        p, _, q = body.partition("/")
        if _is_numeral(p) and _is_numeral(q) and int(q) != 0:
            return _div(-int(p) if neg else int(p), int(q))
        return None
    if _is_numeral(body):
        return -int(body) if neg else int(body)
    return None


class _Scope:
    """What a formula is read against: the mode, the variables in scope,
    and in a body its procedure's name and every procedure's arity.  In
    assert-safe proc is "", and no call is allowed."""

    def __init__(
        self, mode: Sort, vars_: Dict[str, Var], proc: str = "", arities=None
    ):
        self.mode = mode
        self.vars = vars_
        self.proc = proc
        self.arities = arities

    def lookup(self, tok: _Tok) -> Var:
        v = self.vars.get(tok.text)
        if v is None:
            raise _err(tok, f"unknown variable '{tok.text}'")
        return v


def _parse_term(node, scope: _Scope) -> LinTerm:
    if isinstance(node, _Tok):
        num = _parse_number(node)
        if num is not None:
            if scope.mode is Sort.INT and num.denominator != 1:
                raise _err(node, "non-integer constant in integer mode")
            return LinTerm.of_const(num)
        return LinTerm.of_var(scope.lookup(node))
    head = _head(node)
    items = node[1]
    if head == "+":
        acc = LinTerm.of_const(0)
        for arg in items[1:]:
            acc = acc.add(_parse_term(arg, scope))
        return acc
    if head == "-":
        if len(items) == 2:
            return _parse_term(items[1], scope).scale(-1)
        if len(items) == 3:
            return _parse_term(items[1], scope).sub(_parse_term(items[2], scope))
        raise _err(node, "'-' takes one or two arguments")
    if head == "*":
        if len(items) != 3:
            raise _err(node, "'*' takes a constant and a term")
        c = _parse_number(items[1]) if isinstance(items[1], _Tok) else None
        if c is None and _is_list(items[1]) and _head(items[1]) == "/":
            c = _parse_const(items[1], scope)
        if c is None:
            raise _err(node, "first argument of '*' must be a constant")
        if scope.mode is Sort.INT and c.denominator != 1:
            raise _err(node, "non-integer coefficient in integer mode")
        return _parse_term(items[2], scope).scale(c)
    if head == "/":
        return LinTerm.of_const(_parse_const(node, scope))
    raise _err(node, f"unknown term operator '{head}'")


def _parse_const(node, scope) -> Number:
    items = node[1]
    if len(items) != 3:
        raise _err(node, "'/' takes two integers")
    p = _parse_number(items[1]) if isinstance(items[1], _Tok) else None
    q = _parse_number(items[2]) if isinstance(items[2], _Tok) else None
    if p is None or q is None or q == 0 or p.denominator != 1 or q.denominator != 1:
        raise _err(node, "'/' takes two integers")
    if scope.mode is Sort.INT:
        raise _err(node, "rational constant in integer mode")
    return _div(p, q)


# -- formulas ----------------------------------------------------------------

_CMP_OPS = {"<": LT, "<=": LE, "=": EQ, ">": LT, ">=": LE}


def _parse_expr(node, scope: _Scope, negated: bool = False) -> Formula:
    """The NNF of node, or of its negation when negated is set."""
    if isinstance(node, _Tok):
        if node.text == "true":
            return FALSE if negated else TRUE
        if node.text == "false":
            return TRUE if negated else FALSE
        v = scope.lookup(node)
        if v.sort is not Sort.BOOL:
            raise _err(node, f"'{node.text}' is not boolean")
        return Lit(BoolLit(v, not negated))
    head = _head(node)
    items = node[1]
    if head in ("and", "or"):
        args = [_parse_expr(a, scope, negated) for a in items[1:]]
        return f_and(args) if (head == "and") != negated else f_or(args)
    if head == "not":
        if len(items) != 2:
            raise _err(node, "'not' takes one argument")
        return _parse_expr(items[1], scope, not negated)
    if head in _CMP_OPS:
        if len(items) != 3:
            raise _err(node, f"'{head}' takes two arguments")
        if scope.mode is Sort.BOOL:
            raise _err(node, "comparison in a boolean program")
        lhs = _parse_term(items[1], scope)
        rhs = _parse_term(items[2], scope)
        if head in (">", ">="):
            lhs, rhs = rhs, lhs
        leaf = mk_cmp(_CMP_OPS[head], lhs.sub(rhs))
    elif head == "divides":
        if scope.mode is not Sort.INT:
            raise _err(node, "'divides' requires integer mode")
        if len(items) != 3 or not isinstance(items[1], _Tok):
            raise _err(node, "'divides' takes a positive integer and a term")
        d = _parse_number(items[1])
        if d is None or d.denominator != 1 or d <= 0:
            raise _err(node, "divisor must be a positive integer")
        leaf = mk_lit(DivLit(int(d), _parse_term(items[2], scope)))
        if negated and scope.proc and isinstance(leaf, Lit):
            raise ValidationError("negated divisibility in input")
    elif head == "call":
        return _parse_call(node, scope, negated)
    else:
        raise _err(node, f"unknown operator '{head}'")
    return negate_nnf(leaf) if negated else leaf


def _parse_call(node, scope: _Scope, negated: bool) -> Call:
    items = node[1]
    if len(items) < 2 or not isinstance(items[1], _Tok):
        raise _err(node, "'call' takes a procedure name and variables")
    args = []
    for a in items[2:]:
        if not isinstance(a, _Tok):
            raise _err(node, "call arguments must be variables")
        args.append(scope.lookup(a))
    callee = items[1].text
    if not scope.proc:
        raise ValidationError("assert-safe must not call procedures")
    if negated:
        line, col = node[0].pos()
        raise ValidationError(f"{line}:{col}: call to {callee} under a negation")
    arity = scope.arities.get(callee)
    if arity is None:
        raise ValidationError(f"{scope.proc} calls undeclared procedure {callee!r}")
    if len(args) != arity:
        raise ArityMismatch(
            f"call to {callee} in {scope.proc}: {len(args)} args, {arity} formals"
        )
    return Call(callee, tuple(args))


# -- program -----------------------------------------------------------------

_MODES = {"bool": Sort.BOOL, "rat": Sort.RAT, "int": Sort.INT}


def parse(text: str) -> SourceUnit:
    forms = _read_sexprs(text)
    if len(forms) != 1 or _head(forms[0]) != "program":
        msg = "expected a single (program ...) form"
        raise _err(forms[0], msg) if forms and _is_list(forms[0]) else RplSyntaxError(1, 1, msg)
    items = forms[0][1][1:]

    mode: Optional[Sort] = None
    proc_forms = []
    main_name: Optional[str] = None
    safe_form = None
    seen = set()
    for item in items:
        head = _head(item)
        if head in seen:
            raise _err(item, f"duplicate ({head} ...)")
        if head != "procedure":
            seen.add(head)
        if head == "mode":
            if len(item[1]) != 2 or not isinstance(item[1][1], _Tok):
                raise _err(item, "(mode bool|rat|int)")
            m = _MODES.get(item[1][1].text)
            if m is None:
                raise _err(item, f"unknown mode '{item[1][1].text}'")
            mode = m
        elif head == "procedure":
            proc_forms.append(item)
        elif head == "main":
            if len(item[1]) != 2 or not isinstance(item[1][1], _Tok):
                raise _err(item, "(main NAME)")
            main_name = item[1][1].text
        elif head == "assert-safe":
            if len(item[1]) != 2:
                raise _err(item, "(assert-safe EXPR)")
            safe_form = item[1][1]
        else:
            raise _err(item, f"unexpected form '{head}'")
    if mode is None:
        raise RplSyntaxError(1, 1, "missing (mode ...)")
    if main_name is None:
        raise RplSyntaxError(1, 1, "missing (main ...)")
    if safe_form is None:
        raise RplSyntaxError(1, 1, "missing (assert-safe ...)")

    headers = {}
    for pf in proc_forms:
        name, sections = _proc_header(pf)
        if name in headers:
            raise _err(pf, f"duplicate procedure '{name}'")
        headers[name] = sections

    if main_name not in headers:
        raise ValidationError(f"main procedure {main_name!r} is not declared")
    arities = {
        name: len(sections.get("in", ())) + len(sections.get("out", ()))
        for name, sections in headers.items()
    }

    procedures = {}
    for name, sections in headers.items():
        declared = {}
        groups = {}
        for role_name, role in (("in", Role.IN), ("out", Role.OUT), ("local", Role.LOCAL)):
            vs = []
            for tok in sections.get(role_name, ()):
                if tok.text in declared:
                    raise _err(tok, f"duplicate variable '{tok.text}' in {name}")
                v = Var(tok.text, mode, role, name)
                declared[tok.text] = v
                vs.append(v)
            groups[role_name] = tuple(vs)
        body = _parse_expr(sections["body"], _Scope(mode, declared, name, arities))
        procedures[name] = make_procedure(
            name, groups["in"], groups["out"], groups["local"], body
        )

    main = procedures[main_name]
    phi_safe = _parse_expr(safe_form, _Scope(mode, {v.name: v for v in main.all_vars}))
    if not free_vars(phi_safe) <= set(main.formals):
        raise ValidationError("assert-safe mentions non-formal variables")
    program = Program(procedures, main_name, mode)
    return SourceUnit(text, program, mode, phi_safe)


def _proc_header(pf):
    items = pf[1]
    if len(items) < 3 or not isinstance(items[1], _Tok):
        raise _err(pf, "(procedure NAME sections...)")
    name = items[1].text
    sections = {}
    for sec in items[2:]:
        head = _head(sec)
        if head in sections:
            raise _err(sec, f"duplicate ({head} ...) in procedure {name}")
        if head in ("in", "out", "local"):
            vs = []
            for tok in sec[1][1:]:
                if not isinstance(tok, _Tok):
                    raise _err(sec, "variable lists contain names only")
                vs.append(tok)
            sections[head] = vs
        elif head == "body":
            if len(sec[1]) != 2:
                raise _err(sec, "(body EXPR)")
            sections["body"] = sec[1][1]
        else:
            raise _err(sec, f"unknown procedure section '{head}'")
    if "body" not in sections:
        raise _err(pf, f"procedure {name} has no body")
    return name, sections


# -- printing ----------------------------------------------------------------


def _num_str(c: Number) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _term_side(parts: List[str]) -> str:
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _summands(term: LinTerm) -> Tuple[List[str], List[str]]:
    """The positive summands of term and the magnitudes of its negative
    ones, each in term order with the constant last."""
    pos, neg = [], []
    for v, c in term.coeffs:
        side, mag = (pos, c) if c > 0 else (neg, -c)
        side.append(v.name if mag == 1 else f"(* {_num_str(mag)} {v.name})")
    c = term.const
    if c > 0:
        pos.append(_num_str(c))
    elif c < 0:
        neg.append(_num_str(-c))
    return pos, neg


def print_cmp(lit: Cmp) -> str:
    # term op 0, rendered with the negative part moved to the right
    pos, neg = _summands(lit.term)
    return f"({lit.op} {_term_side(pos)} {_term_side(neg)})"


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Lit):
        lit = f.lit
        if isinstance(lit, BoolLit):
            return lit.var.name if lit.positive else f"(not {lit.var.name})"
        if isinstance(lit, DivLit):
            pos, neg = _summands(lit.term)
            inner = _term_side(pos)
            if neg:
                inner = f"(- {inner} {_term_side(neg)})"
            s = f"(divides {lit.divisor} {inner})"
            return s if lit.positive else f"(not {s})"
        return print_cmp(lit)
    if isinstance(f, And):
        return "(and " + " ".join(print_formula(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(print_formula(a) for a in f.args) + ")"
    if isinstance(f, Call):
        return "(call " + f.callee + "".join(" " + a.name for a in f.args) + ")"
    raise TypeError(f"cannot print {f!r}")


def print_program(program: Program, phi_safe: Formula) -> str:
    lines = ["(program", f"  (mode {program.mode.value})"]
    for proc in program.procedures.values():
        lines.append(f"  (procedure {proc.name}")
        for label, vs in (("in", proc.inputs), ("out", proc.outputs), ("local", proc.locals_)):
            if vs:
                lines.append(f"    ({label} " + " ".join(v.name for v in vs) + ")")
        lines.append(f"    (body {print_formula(proc.body)}))")
    lines.append(f"  (main {program.main})")
    lines.append(f"  (assert-safe {print_formula(phi_safe)}))")
    return "\n".join(lines) + "\n"
