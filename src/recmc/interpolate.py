"""Craig interpolation for unsatisfiable pairs.

Given a and b with a ∧ b unsatisfiable and the shared vocabulary, an
interpolant is a formula psi over the shared variables with a => psi
and psi ∧ b unsatisfiable.  The mode alone picks the method:

* Boolean: psi is the strongest interpolant, the existential projection
  of a onto the shared variables, computed by quantifier elimination.

* Rational and integer: per DNF path of a, combine the path's literals
  with the Farkas multipliers of its conflict against each DNF path of
  b.  The combination cancels the a-local variables, giving a single
  inequality per conflict; this typically generalizes much better than
  the exact projection.  A certificate is used only when it replays, so
  the rational relaxation of the path pair is infeasible; the
  combination is then implied by a over the rationals, hence over the
  integers too.  In integer mode it is scaled by the lcm of its
  denominators, so that the interpolant keeps integral coefficients.
  A clausal conflict contributes the literals of a that it names.  A
  path falls back to its strongest interpolant when the combination or
  the named literals mention a-local variables.  A path of a whose pair
  with a path of b is satisfiable makes a ∧ b satisfiable, and raises
  NotUnsat at once.

The contract (a => psi, psi ∧ b unsat, vars ⊆ shared) is re-checked
with the solver on every call.  When it holds, a ∧ b is unsat, so that
query is solved only when the contract fails, to tell the two errors
apart: a satisfiable a ∧ b raises NotUnsat, an input error; otherwise
the violation raises InterpolationError, a bug guard.
"""

from __future__ import annotations

from math import lcm
from typing import FrozenSet, Optional

from .errors import InterpolationError, NotUnsat, PathExplosion
from .formula import (
    LE,
    LT,
    TRUE,
    Formula,
    Sort,
    Var,
    dnf_paths,
    f_and,
    f_or,
    free_vars,
    has_calls,
    literal_vars,
    mk_cmp,
    mk_lit,
)
from .project import project
from .solver import (
    ClausalCore,
    FarkasCert,
    check_sat,
    entails,
    farkas_sum,
    literal_of,
    refute_conjunction,
)


def itp(a: Formula, b: Formula, shared: FrozenSet[Var], mode: Sort) -> Formula:
    assert not has_calls(a) and not has_calls(b)
    if mode is Sort.BOOL:
        psi = _strongest(a, shared)
    else:
        psi = _farkas_itp(a, b, shared, mode)

    # contract, always on; when it holds, a ∧ b is unsat
    if not free_vars(psi) <= shared:
        raise InterpolationError(f"interpolant leaks variables: {psi!r}")
    if not entails(a, psi, mode):
        problem = "a does not imply interpolant"
    elif not check_sat(f_and([psi, b]), mode).is_unsat:
        problem = "interpolant consistent with b"
    else:
        return psi
    if check_sat(f_and([a, b]), mode).is_sat:
        raise NotUnsat("interpolation query is satisfiable")
    raise InterpolationError(f"{problem}: {psi!r}")


def _strongest(a: Formula, shared: FrozenSet[Var]) -> Formula:
    locals_ = sorted(free_vars(a) - shared, key=lambda v: v.key())
    return project(locals_, a, None, strategy="qe")


def _farkas_itp(a, b, shared, mode) -> Formula:
    try:
        a_paths = dnf_paths(a)
        b_paths = dnf_paths(b)
    except PathExplosion:
        return _strongest(a, shared)
    if not b_paths:
        return TRUE  # b is false; anything over shared works
    parts = []
    for pa in a_paths:
        assert not pa.calls
        a_lits = set(pa.literals)
        conjuncts = []
        for pb in b_paths:
            assert not pb.calls
            valued = [(l, True) for l in pa.literals] + [(l, True) for l in pb.literals]
            status, cert = refute_conjunction(valued, mode)
            if status != "unsat":
                raise NotUnsat("interpolation query is satisfiable")
            conj = _conjunct_from_cert(cert, a_lits, shared, mode)
            if conj is None:
                conjuncts = [_strongest(pa.formula(), shared)]
                break
            conjuncts.append(conj)
        parts.append(f_and(conjuncts))
    return f_or(parts)


def _conjunct_from_cert(cert, a_lits, shared, mode) -> Optional[Formula]:
    if isinstance(cert, FarkasCert):
        combo, strict = farkas_sum(e for e in cert.entries if e[0] in a_lits)
        if not all(v in shared for v in combo.vars):
            return None
        if mode is Sort.INT:
            combo = combo.scale(
                lcm(combo.const.denominator, *(c.denominator for _, c in combo.coeffs))
            )
        return mk_cmp(LT if strict else LE, combo)
    if isinstance(cert, ClausalCore):
        picked = []
        for atom, val in cert.literals:
            lit = literal_of(atom, val)
            if lit in a_lits:
                picked.append(lit)
        if any(v not in shared for l in picked for v in literal_vars(l)):
            return None
        return f_and([mk_lit(l) for l in picked])
    return None
