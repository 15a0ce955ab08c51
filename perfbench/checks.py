"""Output checks made apart from the checker.

Nothing here calls the engine, the driver or the solver.  Verdicts of
Boolean programs are compared with the explicit-state least fixed point;
proofs and counterexamples are replayed by evaluating formulas on
concrete values; MBP images are compared, point by point, with a search
over the eliminated variable.  Each check raises CheckFailed with the
reason.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, lcm

from recmc.formula import (
    EQ,
    LE,
    LT,
    And,
    DivLit,
    Lit,
    Or,
    Sort,
    Top,
    eval_formula,
    eval_literal,
    free_vars,
    lia_normalize,
    literal_vars,
)
from recmc.program import bool_bounded_semantics, bool_unbounded_semantics
from recmc.project import _collect, split_weak_bounds

# Sample values for the pointwise checks of arithmetic proofs and images.
RAT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))
INT_GRID = tuple(Fraction(k) for k in range(-3, 4))


class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _points(vars_, grid):
    for vals in itertools.product(grid, repeat=len(vars_)):
        yield dict(zip(vars_, vals))


def _path_points(path, vars_, grid):
    """The grid points where every literal of the path holds, found by
    assigning the variables in order and testing each literal as soon as
    its last variable has a value."""
    pos = {v: i for i, v in enumerate(vars_)}
    due = [[] for _ in vars_]
    for lit in path.literals:
        idx = [pos[v] for v in literal_vars(lit)]
        if not idx:
            if not eval_literal(lit, {}):
                return
            continue
        due[max(idx)].append(lit)
    values = {}

    def extend(i):
        if i == len(vars_):
            yield dict(values)
            return
        for val in grid:
            values[vars_[i]] = val
            if all(eval_literal(lit, values) for lit in due[i]):
                yield from extend(i + 1)
        del values[vars_[i]]

    yield from extend(0)


def check_proof(program, phi_safe, env, grid) -> None:
    """Safe and inductive on every point of the grid.  With the grid
    (False, True) of a Boolean program this covers every valuation, so
    the check is exact there.  A point satisfies a procedure body when it
    satisfies the literals of one of its paths and each call's callee
    formula holds on the call's arguments."""
    main = program.proc(program.main)
    _require(set(env) == set(program.procedures), "proof does not cover every procedure")
    for values in _points(main.formals, grid):
        _require(
            not eval_formula(env[main.name], values) or eval_formula(phi_safe, values),
            f"proof of {main.name} admits a bad state {values}",
        )
    for proc in program.procedures.values():
        for path in proc.paths:
            for values in _path_points(path, proc.all_vars, grid):
                if all(
                    eval_formula(
                        env[call.callee],
                        dict(zip(program.proc(call.callee).formals, (values[a] for a in call.args))),
                    )
                    for call in path.calls
                ):
                    _require(
                        eval_formula(env[proc.name], values),
                        f"proof of {proc.name} is not inductive at {values}",
                    )


def check_cex(program, phi_safe, tree) -> None:
    """Replay a counterexample tree node by node."""
    main = program.proc(program.main)
    integral = program.mode is Sort.INT

    def walk(node, depth):
        _require(depth <= tree.bound, "counterexample deeper than its stack bound")
        proc = program.proc(node.proc)
        _require(0 <= node.path_index < len(proc.paths), f"bad path index in {proc.name}")
        _require(set(node.values) == set(proc.all_vars), f"values of {proc.name} incomplete")
        if integral:
            _require(all(v.denominator == 1 for v in node.values.values()), "non-integer value")
        path = proc.paths[node.path_index]
        for lit in path.literals:
            _require(eval_literal(lit, node.values), f"{proc.name}: {lit!r} fails")
        _require(len(node.children) == len(path.calls), f"{proc.name}: call count differs")
        for call, child in zip(path.calls, node.children):
            _require(child.proc == call.callee, f"{proc.name}: wrong callee")
            callee = program.proc(call.callee)
            for formal, arg in zip(callee.formals, call.args):
                _require(child.values[formal] == node.values[arg], f"{call.callee}: argument differs")
            walk(child, depth + 1)

    _require(tree.root.proc == main.name, "counterexample does not start in main")
    walk(tree.root, 0)
    _require(not eval_formula(phi_safe, tree.root.values), "counterexample satisfies the property")
    if program.mode is Sort.BOOL:
        reachable = bool_bounded_semantics(program, main.name, tree.bound)
        valuation = tuple(bool(tree.root.values[v]) for v in main.formals)
        _require(valuation in reachable, "root valuation is not reachable within the bound")


def bool_oracle(program, phi_safe) -> str:
    """SAFE or UNSAFE from the explicit-state least fixed point."""
    main = program.proc(program.main)
    reachable = bool_unbounded_semantics(program)[main.name]
    for bits in reachable:
        if not eval_formula(phi_safe, dict(zip(main.formals, bits))):
            return "UNSAFE"
    return "SAFE"


def check_verdict(case, verdict, oracle=None) -> None:
    """The verdict, with its witness replayed.

    oracle is the explicit-state answer of a Boolean program, and the
    verdict must equal it whatever its status: on a Boolean program at
    the case's bound an UNKNOWN is a wrong answer, as in the Boolean
    differential acceptance test.  A shipped program is held to its
    documented answer.  On an arithmetic program UNKNOWN claims nothing
    and is left to the count of failed operations.
    """
    program, phi = case.unit.program, case.unit.phi_safe
    if oracle is not None:
        _require(verdict.status == oracle, f"{case.label}: {verdict.status}, expected {oracle}")
    if verdict.status == "UNKNOWN":
        return
    if case.expected is not None:
        _require(
            verdict.status == case.expected,
            f"{case.label}: {verdict.status}, expected {case.expected}",
        )
    if verdict.status == "SAFE":
        _require(verdict.proof is not None, f"{case.label}: SAFE without a proof")
        grid = (False, True) if program.mode is Sort.BOOL else (
            INT_GRID if program.mode is Sort.INT else RAT_GRID
        )
        check_proof(program, phi, verdict.proof.env, grid)
    elif verdict.status == "UNSAFE":
        _require(verdict.cex is not None, f"{case.label}: UNSAFE without a counterexample")
        check_cex(program, phi, verdict.cex)
    else:
        raise CheckFailed(f"{case.label}: unknown status {verdict.status!r}")


# --------------------------------------------------------------------------
# MBP images.
# --------------------------------------------------------------------------


def finiteness_bound(case) -> int:
    """Criterion 03's bound on the number of distinct MBP disjuncts."""
    x, f = case.var, case.formula
    if case.mode is Sort.RAT:
        eqs, lows, _, _ = _collect(x, split_weak_bounds(x, f), Sort.RAT)
        return len(eqs) + len(lows) + 1
    g, _, y = lia_normalize(x, f)
    eqs, lows, _, period = _collect(y, g, Sort.INT)
    return len(eqs) + period * len(lows) + period


def _leaves(f, lits):
    """f with each literal replaced by its index in lits."""
    if isinstance(f, Lit):
        lits.append(f.lit)
        return len(lits) - 1
    if isinstance(f, (And, Or)):
        return (isinstance(f, And), [_leaves(a, lits) for a in f.args])
    return isinstance(f, Top)


def _holds(tree, test, v) -> bool:
    if isinstance(tree, bool):
        return tree
    if isinstance(tree, int):
        return test[tree](v)
    conj, args = tree
    if conj:
        return all(_holds(a, test, v) for a in args)
    return any(_holds(a, test, v) for a in args)


def _tester(lit, c, r):
    """The literal as a test on x, where its term is c*x + r."""
    if isinstance(lit, DivLit):
        d, pos = lit.divisor, lit.positive

        def divides(v):
            t = c * v + r
            return (t.denominator == 1 and t.numerator % d == 0) == pos

        return divides
    if c == 0:
        truth = r < 0 if lit.op == LT else r <= 0 if lit.op == LE else r == 0
        return lambda v: truth
    root = -r / c
    if lit.op == EQ:
        return lambda v: v == root
    if c > 0:
        return (lambda v: v < root) if lit.op == LT else (lambda v: v <= root)
    return (lambda v: v > root) if lit.op == LT else (lambda v: v >= root)


def exists_witness(f, x, point, mode) -> bool:
    """Whether some value of x satisfies f at point, by search.

    Each literal changes truth only at the root of its term in x, so the
    roots, the midpoints between them and one point beyond each end decide
    the rational case.  Over the integers, divisibility literals repeat
    with the lcm of their divisors; every integer from one period below
    the lowest root to one period above the highest covers all cases.
    At the point each literal's term is c*x + r, and the search tests
    candidates against that with its own code, not the checker's
    evaluator.
    """
    lits = []
    tree = _leaves(f, lits)
    values = {v.name: val for v, val in point.items()}
    test = []
    roots = set()
    period = 1
    for lit in lits:
        c, r = 0, lit.term.const
        for v, k in lit.term.coeffs:
            if v.name == x.name:
                c = k
            else:
                r += k * values[v.name]
        test.append(_tester(lit, c, r))
        if c == 0:
            continue
        if isinstance(lit, DivLit):
            period = lcm(period, lit.divisor)
        else:
            roots.add(-r / c)
    ordered = sorted(roots) or [Fraction(0)]
    if mode is Sort.RAT:
        candidates = list(ordered) + [ordered[0] - 1, ordered[-1] + 1]
        candidates += [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    else:
        lo, hi = floor(ordered[0]) - period, ceil(ordered[-1]) + period
        candidates = [Fraction(k) for k in range(lo, hi + 1)]
    return any(_holds(tree, test, v) for v in candidates)


def check_image(case, image) -> None:
    """Membership, elimination, finiteness and pointwise exactness."""
    keep = frozenset(case.keep)
    bound = finiteness_bound(case)
    _require(len(image) <= bound, f"{case.label}: {len(image)} disjuncts, bound {bound}")
    for model, d in image:
        _require(eval_formula(d, model), f"{case.label}: model does not satisfy its projection")
        _require(free_vars(d) <= keep, f"{case.label}: projection keeps {case.var!r}")
    grid = INT_GRID if case.mode is Sort.INT else RAT_GRID
    for point in _points(case.keep, grid):
        covered = any(eval_formula(d, point) for _, d in image)
        _require(
            covered == exists_witness(case.formula, case.var, point, case.mode),
            f"{case.label}: image and search disagree at {point}",
        )
