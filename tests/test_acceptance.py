"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is exact (entailments over exact arithmetic)
except the stated wall-clock targets.
"""

import random
import time
from fractions import Fraction

from helpers import equivalent, fact_valuations, mk_vars, random_nnf
from recmc.driver import SafetyProof, check, validate_cex, validate_proof
from recmc.engine import BndSafety, EngineConfig, bounded_safety
from recmc.formula import (
    EQ,
    LE,
    LT,
    TRUE,
    And,
    BoolLit,
    LinTerm,
    Lit,
    Sort,
    eval_formula,
    f_and,
    f_or,
    free_vars,
    lia_normalize,
    mk_cmp,
    negate_nnf,
)
from recmc.generators import (
    gen_bebop,
    gen_gpdr_divergence,
    overview,
    random_arith_program,
    random_bool_program,
)
from recmc.interpolate import _strongest, itp
from recmc.parser import parse
from recmc.program import bool_bounded_semantics, bool_unbounded_semantics
from recmc.project import _collect, lw_qe, project, split_weak_bounds
from recmc.solver import check_sat, entails

PASS = "criterion {n}: PASS - {msg}"


def _var(program, proc, name):
    return next(v for v in program.proc(proc).all_vars if v.name == name)


def _term(program, proc, name):
    return LinTerm.of_var(_var(program, proc, name))


def test_criterion_01_overview_end_to_end():
    unit = overview()
    t0 = time.monotonic()
    verdict = check(unit.program, unit.phi_safe, max_bound=8)
    elapsed = time.monotonic() - t0
    assert verdict.status == "SAFE" and verdict.bound == 1
    assert elapsed < 5.0
    program, env = unit.program, verdict.proof.env
    m0, m = _term(program, "M", "m0"), _term(program, "M", "m")
    t0_, t = _term(program, "T", "t0"), _term(program, "T", "t")
    d0, d = _term(program, "D", "d0"), _term(program, "D", "d")
    assert entails(env["M"], mk_cmp(LE, m.scale(2).add(LinTerm.of_const(4)).sub(m0)), Sort.RAT)
    assert entails(env["T"], mk_cmp(LE, t.scale(2).sub(t0_)), Sort.RAT)
    assert entails(env["D"], mk_cmp(LE, d.sub(d0).add(LinTerm.of_const(1))), Sort.RAT)
    print(PASS.format(n=1, msg=f"overview SAFE at n=1 in {elapsed:.2f}s, proof entails documented summaries"))


def test_criterion_02_trace_regression_qe():
    unit = overview()
    engine = BndSafety(unit.program, unit.phi_safe, EngineConfig(proj="qe"))
    assert bounded_safety(engine, 0)[0] == "SAFE"
    assert bounded_safety(engine, 1)[0] == "SAFE"
    trace = engine.trace
    program = unit.program
    d_fact = mk_cmp(EQ, _term(program, "D", "d").sub(_term(program, "D", "d0")).add(LinTerm.of_const(1)))
    reach_hits = [
        e for e in trace
        if e.rule == "reach" and e.proc == "D" and e.bound == 0
        and equivalent(e.formula, d_fact, Sort.RAT)
    ]
    t_goal = mk_cmp(LT, _term(program, "T", "t0").sub(_term(program, "T", "t").scale(2)))
    query_hits = [
        e for e in trace
        if e.rule == "query" and " T 0" in e.outcome and equivalent(e.formula, t_goal, Sort.RAT)
    ]
    assert reach_hits, "missing reach step for d = d0 - 1 at (D, 0)"
    assert query_hits, "missing query step creating (T, t0 < 2t, 0)"
    print(PASS.format(n=2, msg="qe trace shows reach fact d=d0-1 at (D,0) and query (T, t0<2t, 0)"))


def _mbp_instances(mode, vars_, count, seed):
    """(matrix, model) pairs with satisfiable matrices."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        f = random_nnf(rng, vars_, mode, rng.randint(1, 6))
        res = check_sat(f, mode)
        if not res.is_sat:
            continue
        model = res.model
        missing = {
            v: (False if v.sort is Sort.BOOL else Fraction(0))
            for v in free_vars(f)
            if v not in model
        }
        if missing:
            model = model.extended(missing)
        made += 1
        yield f, model


def _image(f, x, mode, limit=400):
    disjuncts = []
    cur = f
    for _ in range(limit):
        res = check_sat(cur, mode)
        if res.is_unsat:
            return disjuncts
        model = res.model
        missing = {
            v: (False if v.sort is Sort.BOOL else Fraction(0))
            for v in free_vars(f)
            if v not in model
        }
        if missing:
            model = model.extended(missing)
        d = project([x], f, model, strategy="mbp")
        assert eval_formula(d, model)
        disjuncts.append(d)
        cur = f_and([cur, negate_nnf(d)])
    raise AssertionError("image enumeration exceeded the finiteness limit")


def test_criterion_03_mbp_property_suite():
    t0 = time.monotonic()
    x, y, z = mk_vars(["x", "y", "z"], Sort.RAT)
    xi, yi, zi = mk_vars(["x", "y", "z"], Sort.INT)
    halves = {}
    for mode, vars_, seed in ((Sort.RAT, [x, y, z], 101), (Sort.INT, [xi, yi, zi], 103)):
        t_half = time.monotonic()
        var = vars_[0]
        for f, model in _mbp_instances(mode, vars_, 500, seed):
            proj = project([var], f, model, strategy="mbp")
            assert eval_formula(proj, model)  # M |= Proj(M)
            qe = project([var], f, None, strategy="qe")
            assert entails(proj, qe, mode)  # under-approximation
            image = _image(f, var, mode)
            if mode is Sort.RAT:
                g = split_weak_bounds(var, f)
                eqs, lows, _, _ = _collect(var, g, Sort.RAT)
                bound = len(eqs) + len(lows) + 1
            else:
                g, _, yv = lia_normalize(var, f)
                eqs, lows, _, period = _collect(yv, g, Sort.INT)
                bound = len(eqs) + period * len(lows) + period
            if var in free_vars(f):
                assert len(image) <= bound
            assert equivalent(f_or(image), qe, mode)  # the image covers QE
        halves["LRA" if mode is Sort.RAT else "LIA"] = time.monotonic() - t_half
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, (
        f"{elapsed:.1f}s in total: LRA half {halves['LRA']:.1f}s, LIA half {halves['LIA']:.1f}s"
    )
    print(PASS.format(n=3, msg=f"500 LRA + 500 LIA projections: member/under/size/cover all exact in {elapsed:.1f}s"))


def test_criterion_04_lra_worked_example():
    x, e, l, u = mk_vars(["x", "e", "l", "u"], Sort.RAT)
    p1, p2 = mk_vars(["p1", "p2"], Sort.BOOL)
    tx, te, tl, tu = (LinTerm.of_var(v) for v in (x, e, l, u))
    matrix = f_or(
        [
            f_and([mk_cmp(EQ, tx.sub(te)), Lit(BoolLit(p1))]),
            f_and([mk_cmp(LT, tl.sub(tx)), mk_cmp(LT, tx.sub(tu))]),
            f_and([mk_cmp(LT, tx.sub(tu)), Lit(BoolLit(p2))]),
        ]
    )
    from recmc.project import lra_proj
    from recmc.solver import Model

    expansions = {
        "equality": (
            Model({x: Fraction(0), e: Fraction(0), l: Fraction(5), u: Fraction(1), p1: True, p2: False}),
            f_or(
                [
                    Lit(BoolLit(p1)),
                    f_and([mk_cmp(LT, tl.sub(te)), mk_cmp(LT, te.sub(tu))]),
                    f_and([mk_cmp(LT, te.sub(tu)), Lit(BoolLit(p2))]),
                ]
            ),
        ),
        "lower+eps": (
            Model({x: Fraction(1), e: Fraction(5), l: Fraction(0), u: Fraction(2), p1: False, p2: False}),
            f_or([mk_cmp(LT, tl.sub(tu)), f_and([mk_cmp(LT, tl.sub(tu)), Lit(BoolLit(p2))])]),
        ),
        "minus-infinity": (
            Model({x: Fraction(-1), e: Fraction(5), l: Fraction(0), u: Fraction(0), p1: False, p2: True}),
            Lit(BoolLit(p2)),
        ),
    }
    for name, (model, want) in expansions.items():
        got = lra_proj(x, matrix, model)
        assert equivalent(got, want, Sort.RAT), name
    whole = lw_qe(x, matrix)
    target = f_or([Lit(BoolLit(p1)), mk_cmp(LT, tl.sub(tu)), Lit(BoolLit(p2))])
    assert equivalent(whole, target, Sort.RAT)
    print(PASS.format(n=4, msg="all three projection branches match the documented expansion lines"))


def test_criterion_05_boolean_differential():
    rng = random.Random(500)
    agreements = 0
    safes = unsafes = 0
    for _ in range(200):
        unit = random_bool_program(rng)
        program = unit.program
        verdict = check(program, unit.phi_safe, max_bound=32)
        semantics = bool_unbounded_semantics(program)[program.main]
        good = fact_valuations(unit.phi_safe, program.proc(program.main).formals)
        oracle = "SAFE" if semantics <= good else "UNSAFE"
        assert verdict.status == oracle
        agreements += 1
        safes += verdict.status == "SAFE"
        unsafes += verdict.status == "UNSAFE"
        for fact in verdict.rho.items():
            formals = program.proc(fact.proc).formals
            assert fact_valuations(fact.formula, formals) <= bool_bounded_semantics(
                program, fact.proc, fact.bound
            )
        for fact in verdict.sigma.items():
            formals = program.proc(fact.proc).formals
            assert bool_bounded_semantics(program, fact.proc, fact.bound) <= fact_valuations(
                fact.formula, formals
            )
    assert agreements == 200 and safes > 10 and unsafes > 10
    print(PASS.format(n=5, msg=f"200/200 verdicts match the explicit oracle ({safes} safe, {unsafes} unsafe); sandwich holds for every fact"))


def test_criterion_06_bebop_scaling():
    t0 = time.monotonic()
    steps = {}
    for n in range(2, 13):
        unit = gen_bebop(n)
        verdict = check(unit.program, unit.phi_safe, max_bound=2 * n + 4)
        assert verdict.status == "SAFE"
        steps[n] = verdict.stats["steps"]
    elapsed = time.monotonic() - t0
    ratio_12 = steps[12] / 12**2
    ratio_4 = steps[4] / 4**2
    assert ratio_12 <= 4 * ratio_4, (steps, ratio_12, ratio_4)
    assert elapsed < 120.0
    print(PASS.format(n=6, msg=f"steps(12)/144 = {ratio_12:.2f} <= 4 * steps(4)/16 = {4 * ratio_4:.2f}; call tree grew 2^12 in {elapsed:.1f}s"))


def test_criterion_07_gpdr_divergence_regression():
    unit = gen_gpdr_divergence()
    engine = BndSafety(unit.program, unit.phi_safe)
    res, reason = bounded_safety(engine, 2)
    stats = engine.stats
    assert res == "SAFE", reason
    assert stats["steps"] <= 50_000
    print(PASS.format(n=7, msg=f"bounded check at depth 2 is SAFE after {stats['steps']} rule applications"))


def test_criterion_08_termination_property():
    rng_rat, rng_int = random.Random(800), random.Random(801)
    budget_exhaustions = 0
    validated = {"SAFE": 0, "UNSAFE": 0}
    for mode, rng in (("rat", rng_rat), ("int", rng_int)):
        for _ in range(100):
            unit = random_arith_program(rng, mode)
            verdict = check(unit.program, unit.phi_safe, max_bound=2)
            if verdict.status == "UNKNOWN":
                assert verdict.reason == "bound exhausted", verdict.reason
                continue
            if verdict.status == "UNSAFE":
                assert validate_cex(unit.program, verdict.cex, unit.phi_safe)
            else:
                assert validate_proof(unit.program, verdict.proof, unit.phi_safe)
            validated[verdict.status] += 1
    assert budget_exhaustions == 0
    assert validated["SAFE"] > 20 and validated["UNSAFE"] > 20
    print(PASS.format(n=8, msg=f"200 bounded runs, zero budget exhaustions; {validated['UNSAFE']} counterexamples and {validated['SAFE']} proofs validated"))


def _unsat_pairs(rng, mode, shared, alocal, blocal, count):
    made = 0
    while made < count:
        a = random_nnf(rng, shared + alocal, mode, rng.randint(1, 4), divides_ok=False)
        core = negate_nnf(project(alocal, a, None, strategy="qe"))
        noise = random_nnf(rng, shared + blocal, mode, rng.randint(1, 2), divides_ok=False)
        b = f_and([core, noise]) if rng.random() < 0.5 else core
        made += 1
        yield a, b


def _interpolant(a, b, shared, mode):
    return itp(a, b, shared, mode)


def _strongest_interpolant(a, b, shared, mode):
    return _strongest(a, shared)


def test_criterion_09_interpolation_contract():
    # itp picks by mode: Farkas for rationals and integers, the strongest
    # interpolant for Booleans; on rationals the strongest one, Farkas's
    # per-path fallback, is checked as well
    specs = [
        (Sort.RAT, mk_vars(["s0", "s1"], Sort.RAT), mk_vars(["a0", "a1"], Sort.RAT), mk_vars(["b0"], Sort.RAT), (_strongest_interpolant, _interpolant)),
        (Sort.INT, mk_vars(["s0", "s1"], Sort.INT), mk_vars(["a0"], Sort.INT), mk_vars(["b0"], Sort.INT), (_interpolant,)),
        (Sort.BOOL, mk_vars(["s0", "s1"], Sort.BOOL), mk_vars(["a0", "a1"], Sort.BOOL), mk_vars(["b0"], Sort.BOOL), (_interpolant,)),
    ]
    total = 0
    for mode, shared, alocal, blocal, methods in specs:
        rng = random.Random(900 + total)
        for a, b in _unsat_pairs(rng, mode, shared, alocal, blocal, 500):
            for method in methods:
                psi = method(a, b, frozenset(shared), mode)
                assert free_vars(psi) <= frozenset(shared)
                assert entails(a, psi, mode)
                assert check_sat(f_and([psi, b]), mode).is_unsat
            total += 1
    assert total == 1500
    print(PASS.format(n=9, msg="500 unsat pairs per theory satisfy the interpolant contract exactly (Farkas and strongest on rationals)"))


def _chain(k):
    lines = ["(program (mode rat)"]
    for j in range(k):
        lines.append(f"  (procedure P{j} (in i) (out o) (local t)")
        lines.append(f"    (body (and (call P{j + 1} i t) (= o (+ t 1)))))")
    lines.append(f"  (procedure P{k} (in i) (out o) (body (= o i)))")
    lines.append("  (main P0)")
    lines.append(f"  (assert-safe (and (<= o (+ i {k})) (<= (+ i {k}) o))))")
    return parse("\n".join(lines))


def test_criterion_10_proof_mutation_detection():
    pool = [overview()] + [gen_bebop(n) for n in range(2, 9)] + [_chain(k) for k in range(1, 8)]
    mutants = []
    for unit in pool:
        verdict = check(unit.program, unit.phi_safe, max_bound=16)
        assert verdict.status == "SAFE"
        base = verdict.proof.env
        for name, f in base.items():
            conjs = list(f.args) if isinstance(f, And) else ([f] if f != TRUE else [])
            for i in range(len(conjs)):
                rest = conjs[:i] + conjs[i + 1 :]
                env = dict(base)
                env[name] = f_and(rest) if rest else TRUE
                mutants.append((unit, SafetyProof(env, verdict.proof.bound)))
    assert len(mutants) >= 100
    sample = mutants[:100]
    caught = sum(
        0 if validate_proof(unit.program, proof, unit.phi_safe) else 1
        for unit, proof in sample
    )
    assert caught >= 95, f"only {caught}/100 mutants rejected"
    print(PASS.format(n=10, msg=f"{caught}/100 single-conjunct-deletion mutants rejected"))
