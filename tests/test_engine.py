import random

import pytest

from helpers import DATA, CheckedBndSafety, equivalent, fact_valuations
from recmc.driver import check
from recmc.engine import BndSafety, EngineConfig, bounded_safety
from recmc.formula import (
    EQ,
    LT,
    And,
    LinTerm,
    Lit,
    Sort,
    eval_formula,
    formula_size,
    mk_cmp,
)
from recmc.generators import gen_bebop, overview, random_bool_program
from recmc.parser import parse
from recmc.program import bool_bounded_semantics
from recmc.project import project
from recmc.solver import check_sat, entails, total_model


def _run(unit, bound, **cfg):
    engine = CheckedBndSafety(unit.program, unit.phi_safe, EngineConfig(**cfg))
    res, reason = bounded_safety(engine, bound)
    return res, engine


def _var(program, proc, name):
    return next(v for v in program.proc(proc).all_vars if v.name == name)


@pytest.fixture(scope="module")
def run():
    unit = overview()
    # mirror the outer loop: bound 0 first, then 1, with shared maps
    engine = CheckedBndSafety(unit.program, unit.phi_safe, EngineConfig(proj="qe"))
    res0, _ = bounded_safety(engine, 0)
    assert res0 == "SAFE"
    res1, _ = bounded_safety(engine, 1)
    assert res1 == "SAFE"
    return unit, engine.trace, engine.rho, engine.sigma


class TestOverviewTraceRegression:
    """Deterministic n=1 run with exact projection."""

    def test_reach_step_adds_decrement_fact(self, run):
        unit, trace, rho, sigma = run
        program = unit.program
        d0 = LinTerm.of_var(_var(program, "D", "d0"))
        d = LinTerm.of_var(_var(program, "D", "d"))
        want = mk_cmp(EQ, d.sub(d0).add(LinTerm.of_const(1)))  # d = d0 - 1
        hits = [
            e
            for e in trace
            if e.rule == "reach" and e.proc == "D" and e.bound == 0
            and equivalent(e.formula, want, Sort.RAT)
        ]
        assert hits, "no reach step recorded d = d0 - 1 at (D, 0)"
        assert any(equivalent(f.formula, want, Sort.RAT) for f in rho.at("D", 0))

    def test_query_step_creates_tandem_query(self, run):
        unit, trace, rho, sigma = run
        program = unit.program
        t0 = LinTerm.of_var(_var(program, "T", "t0"))
        t = LinTerm.of_var(_var(program, "T", "t"))
        want = mk_cmp(LT, t0.sub(t.scale(2)))  # t0 < 2t
        hits = [
            e
            for e in trace
            if e.rule == "query" and "child" in e.outcome and " T 0" in e.outcome
            and equivalent(e.formula, want, Sort.RAT)
        ]
        assert hits, "no query step produced (T, t0 < 2t, 0)"

    def test_trace_lines_have_fixed_shape(self, run):
        _, trace, _, _ = run
        for e in trace:
            parts = e.line().split()
            assert parts[0] in ("sum", "reach", "query")
            assert parts[1].startswith("q") and parts[3].lstrip("-").isdigit()


class TestMbpQueries:
    def test_query_goal_underapproximates(self):
        """With model-based projection the pushed goal implies the exact one
        and is satisfiable."""
        unit = overview()
        engine = CheckedBndSafety(unit.program, unit.phi_safe, EngineConfig(proj="mbp"))
        bounded_safety(engine, 0)
        res, _ = bounded_safety(engine, 1)
        trace = engine.trace
        assert res == "SAFE"
        program = unit.program
        t0 = LinTerm.of_var(_var(program, "T", "t0"))
        t = LinTerm.of_var(_var(program, "T", "t"))
        exact = mk_cmp(LT, t0.sub(t.scale(2)))
        hits = [
            e for e in trace
            if e.rule == "query" and " T 0" in e.outcome
        ]
        assert hits
        for e in hits:
            assert check_sat(e.formula, Sort.RAT).is_sat
            assert entails(e.formula, exact, Sort.RAT)


class TestVerdicts:
    def test_callfree_violation_is_unsafe_at_zero(self):
        unit = parse(
            """
            (program (mode rat)
              (procedure P (in i) (out o) (body (= o (+ i 1))))
              (main P)
              (assert-safe (<= o i)))
            """
        )
        res, engine = _run(unit, 0)
        assert res == "UNSAFE"
        assert engine.rho.at("P", 0)

    def test_vacuous_when_no_callfree_paths(self):
        unit = overview()
        res, engine = _run(unit, 0)
        assert res == "SAFE"

    def test_step_budget_reports_unknown(self):
        unit = gen_bebop(4)
        engine = BndSafety(unit.program, unit.phi_safe, EngineConfig(step_budget=2))
        res, reason = bounded_safety(engine, 3)
        assert res == "UNKNOWN" and "budget" in reason


class TestMapGrowth:
    def test_no_retraction_across_bounds(self):
        unit = overview()
        engine = CheckedBndSafety(unit.program, unit.phi_safe)
        seen = set()
        for n in range(3):
            bounded_safety(engine, n)
            ids = {f.fact_id for f in engine.rho.items()} | {f.fact_id for f in engine.sigma.items()}
            assert seen <= ids
            seen = ids


class TestBooleanSandwich:
    def test_facts_bracket_explicit_semantics(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(25):
            unit = random_bool_program(rng)
            program = unit.program
            engine = CheckedBndSafety(unit.program, unit.phi_safe)
            for n in range(3):
                res, _ = bounded_safety(engine, n)
                if res == "UNSAFE":
                    break
            for fact in engine.rho.items():
                formals = program.proc(fact.proc).formals
                reach = fact_valuations(fact.formula, formals)
                sem = bool_bounded_semantics(program, fact.proc, fact.bound)
                assert reach <= sem
                checked += 1
            for fact in engine.sigma.items():
                formals = program.proc(fact.proc).formals
                summ = fact_valuations(fact.formula, formals)
                sem = bool_bounded_semantics(program, fact.proc, fact.bound)
                assert sem <= summ
                checked += 1
        assert checked > 40


class TestReachAnswersQueriesBelow:
    def test_fact_answers_queued_query_of_its_procedure(self):
        # at bound 4 the fact made for q3 (p1 at bound 1) also meets the
        # goal of q2 (p1 at bound 2), which leaves the stack without a step
        unit = parse((DATA / "reach_answers_parent.rpl").read_text())
        verdict = check(unit.program, unit.phi_safe, max_bound=8)
        assert (verdict.status, verdict.bound, len(verdict.trace)) == ("SAFE", 7, 45)
        lines = [e.line() for e in verdict.trace]
        start = lines.index("query q0 p0 4 child q1 p1 3")
        assert lines[start : start + 14] == [
            "query q0 p0 4 child q1 p1 3",
            "query q1 p1 3 child q2 p1 2",
            "query q2 p1 2 child q3 p1 1",
            "query q3 p1 1 child q4 p2 0",
            "reach q4 p2 0 fact-added",
            "reach q3 p1 1 fact-added",
            "reach q1 p1 3 fact-added",
            "query q0 p0 4 child q5 p2 3",
            "sum q5 p2 3 fact-added",
            "query q0 p0 4 child q6 p1 3",
            "query q6 p1 3 child q7 p0 2",
            "sum q7 p0 2 fact-added",
            "sum q6 p1 3 fact-added",
            "sum q0 p0 4 fact-added",
        ]


class TestCubeFacts:
    def test_countdown_facts_are_cubes_that_do_not_nest(self):
        """Each reachability fact of the countdown (tests/data/countdown30.rpl
        at K = 20) is a conjunction of literals.  A fact projected from the
        whole path instantiation nested every fact below it and doubled in
        size with each level; a cube grows by one literal per level, the
        bound n > k that each level below contributes."""
        source = (DATA / "countdown30.rpl").read_text().replace("(= n 30)", "(= n 20)")
        unit = parse(source)
        verdict = check(unit.program, unit.phi_safe, max_bound=25)
        assert (verdict.status, verdict.bound, verdict.stats["steps"]) == ("UNSAFE", 21, 104)
        facts = list(verdict.rho.items())
        assert {f.bound for f in facts} == set(range(22))
        for fact in facts:
            f = fact.formula
            assert isinstance(f, Lit) or all(isinstance(a, Lit) for a in f.args), f
            assert isinstance(f, (Lit, And))
            assert formula_size(f) <= fact.bound + 3, (fact.bound, f)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_projected_fact_holds_in_model_and_implies_exact_projection(self, bound, monkeypatch):
        """On the runs the qe tests make, model-based projection of the
        model's implicant gives a formula that holds in the model and
        implies the exact projection of the whole matrix."""
        seen = []
        real = BndSafety._project

        def spying(engine, elim, matrix, model, proc):
            got = real(engine, elim, matrix, model, proc)
            seen.append((elim, matrix, model, proc, got))
            return got

        monkeypatch.setattr(BndSafety, "_project", spying)
        unit = overview()
        engine = CheckedBndSafety(unit.program, unit.phi_safe, EngineConfig(proj="mbp"))
        for n in range(bound + 1):
            bounded_safety(engine, n)
        if bound:
            assert seen
        for elim, matrix, model, proc, got in seen:
            assert eval_formula(got, total_model(model, proc.all_vars))
            exact = project(list(elim), matrix, None, strategy="qe")
            assert entails(got, exact, unit.program.mode)
