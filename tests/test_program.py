import random

import pytest

from helpers import mk_vars
from recmc.errors import TooLarge, ValidationError
from recmc.formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    BoolLit,
    Call,
    LinTerm,
    Lit,
    Role,
    Sort,
    Var,
    canon_key,
    f_and,
    f_or,
    mk_cmp,
)
from recmc.generators import overview
from recmc.parser import parse
from recmc.program import (
    AssertionMap,
    Program,
    bool_bounded_semantics,
    bool_unbounded_semantics,
    instantiate,
    make_procedure,
    over_env,
    under_env,
)
from recmc.solver import entails


@pytest.fixture(scope="module")
def unit():
    return overview()


def _v(program, proc, name):
    p = program.proc(proc)
    return next(v for v in p.all_vars if v.name == name)


def _linterm(program, proc, name):
    return LinTerm.of_var(_v(program, proc, name))


class TestEnvironments:
    def test_under_env_collects_facts(self, unit):
        program = unit.program
        rho = AssertionMap()
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        fact = mk_cmp(EQ, d.sub(d0).add(LinTerm.of_const(1)))  # d = d0 - 1
        rho.add("D", 0, fact)
        env = under_env(rho, 0, program)
        assert env["D"] == fact
        assert env["T"] == FALSE  # no facts recorded
        assert under_env(rho, -1, program)["D"] == FALSE

    def test_over_env_collects_facts(self, unit):
        program = unit.program
        sigma = AssertionMap()
        assert over_env(sigma, 0, program)["T"] == TRUE
        t0, t = _linterm(program, "T", "t0"), _linterm(program, "T", "t")
        fact = mk_cmp(LE, t.scale(2).sub(t0))  # t0 >= 2t
        sigma.add("T", 0, fact)
        assert over_env(sigma, 0, program)["T"] == fact
        # a fact at a higher bound is included when instantiating lower
        sigma2 = AssertionMap()
        sigma2.add("T", 1, fact)
        assert over_env(sigma2, 0, program)["T"] == fact
        assert over_env(sigma2, -1, program)["T"] == FALSE

    def test_monotone_in_bound(self, unit):
        program = unit.program
        rng = random.Random(3)
        rho, sigma = AssertionMap(), AssertionMap()
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        for b in range(3):
            rho.add("D", b, mk_cmp(LE, d.sub(d0).add(LinTerm.of_const(rng.randint(0, 3)))))
            sigma.add("D", b, mk_cmp(LE, d.sub(d0).sub(LinTerm.of_const(rng.randint(0, 3)))))
        for b in range(2):
            assert entails(
                under_env(rho, b, program)["D"], under_env(rho, b + 1, program)["D"], Sort.RAT
            )
            assert entails(
                over_env(sigma, b + 1, program)["D"], over_env(sigma, b, program)["D"], Sort.RAT
            )


class TestInstantiate:
    def test_call_renaming(self, unit):
        program = unit.program
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        l0, l1 = _v(program, "M", "l0"), _v(program, "M", "l1")
        env = {"D": mk_cmp(EQ, d.sub(d0).add(LinTerm.of_const(1))), "T": TRUE, "M": TRUE}
        got = instantiate(Call("D", (l0, l1)), env, program)
        want = mk_cmp(
            EQ, LinTerm.of_var(l1).sub(LinTerm.of_var(l0)).add(LinTerm.of_const(1))
        )
        assert got == want

    def test_top_summary_gives_top(self, unit):
        program = unit.program
        m0, l0 = _v(program, "M", "m0"), _v(program, "M", "l0")
        env = {name: TRUE for name in program.procedures}
        assert instantiate(Call("T", (m0, l0)), env, program) == TRUE

    def test_call_free_unchanged(self, unit):
        program = unit.program
        f = mk_cmp(LT, _linterm(program, "M", "m0"))
        env = {name: FALSE for name in program.procedures}
        assert instantiate(f, env, program) is f

    def test_homomorphic(self, unit):
        program = unit.program
        m0 = _v(program, "M", "m0")
        l0, l1 = _v(program, "M", "l0"), _v(program, "M", "l1")
        env = {name: TRUE for name in program.procedures}
        lit = mk_cmp(LT, LinTerm.of_var(m0))
        f = f_or([f_and([lit, Call("D", (l0, l1))]), Call("T", (m0, l0))])
        assert instantiate(f, env, program) == f_or([lit, TRUE]) or instantiate(
            f, env, program
        ) == TRUE


class TestAssertionMap:
    def test_dedup_by_canonical_form(self, unit):
        program = unit.program
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        m = AssertionMap()
        f1 = f_and([mk_cmp(LT, d0), mk_cmp(LT, d)])
        f2 = f_and([mk_cmp(LT, d), mk_cmp(LT, d0)])  # same conjuncts, other order
        fact1, added1 = m.add("D", 0, f1)
        logged = len(m.log)
        fact2, added2 = m.add("D", 0, f2)
        assert added1 and not added2
        assert fact2 is fact1
        assert len(m.log) == logged
        assert len(m.at("D", 0)) == 1 and len(m) == 1
        # same formula at a different bound is a separate fact
        _, added3 = m.add("D", 1, f1)
        assert added3

    def test_changed_from_is_the_push_rule(self, unit):
        program = unit.program
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        a, b = mk_cmp(LT, d0), mk_cmp(LT, d)
        m = AssertionMap()
        for bound, formula in [
            (2, a),  # new: 0
            (3, a),  # a push, a is a fact at 2: only 3 changes
            (1, f_and([a, b])),  # new: 0
            (0, a),  # new at 0: 0
            (1, a),  # a push from 0: only 1 changes
            (4, FALSE),  # not a push: 0
            (2, b),  # b is only a conjunct at 1, not a fact: 0
        ]:
            m.add("D", bound, formula)
        assert [lowest for _, lowest in m.changed_from(0)] == [0, 3, 0, 0, 1, 0, 0]
        assert [fact.bound for fact, _ in m.changed_from(5)] == [4, 2]
        # a twin added below later on does not make (2, b) a push
        m.add("D", 1, b)
        assert [lowest for _, lowest in m.changed_from(6)] == [0, 0]
        # TRUE changes nothing; a twin that is only canonically equal is no push
        m.add("D", 5, TRUE)
        m.add("D", 0, f_or([a, b]))
        m.add("D", 1, f_or([b, a]))
        assert [lowest for _, lowest in m.changed_from(8)] == [6, 0, 0]

    def test_changed_from_covers_every_changed_over_env(self, unit):
        """Adding a fact at level l changes over_env only at levels from
        changed_from's lowest to l, on random additions.  (It may name a
        level whose conjunction did not change: 0 for a conjunction of
        conjuncts that every lower level already has.)  Disjunctions of
        two literals in either order give twins one level below that are
        canonically equal but not equal, which change the levels below."""
        program = unit.program
        d0, d = _linterm(program, "D", "d0"), _linterm(program, "D", "d")
        lits = [mk_cmp(LT, d0), mk_cmp(LT, d), mk_cmp(LE, d.sub(d0)), mk_cmp(EQ, d)]
        rng = random.Random(23)
        pushes = permuted = 0
        for _ in range(40):
            m = AssertionMap()
            for _ in range(12):
                bound = rng.randint(0, 4)
                pick = rng.random()
                if pick < 0.1:
                    formula = rng.choice([TRUE, FALSE])
                elif pick < 0.4:
                    formula = f_or(rng.sample(lits[:3], 2))
                else:
                    formula = f_and(rng.sample(lits, rng.randint(1, 3)))
                before = [over_env(m, b, program)["D"] for b in range(6)]
                below = {canon_key(f.formula): f.formula for f in m.at("D", bound - 1)}
                _, added = m.add("D", bound, formula)
                if not added:
                    continue
                after = [over_env(m, b, program)["D"] for b in range(6)]
                (_, lowest), = m.changed_from(len(m.log) - 1)
                changed = {b for b in range(6) if before[b] != after[b]}
                assert changed <= set(range(lowest, bound + 1)), (formula, bound)
                twin = below.get(canon_key(formula))
                pushes += twin == formula
                if twin is not None and twin != formula:
                    permuted += min(changed, default=bound) < bound
        assert pushes and permuted


def _bool_program(bodies, main="P"):
    """bodies: dict name -> (n_in, n_out, n_local, body builder)."""
    procs = {}
    for name, (vars_, body) in bodies.items():
        ins, outs, locs = vars_
        procs[name] = make_procedure(name, ins, outs, locs, body)
    return Program(procs, main, Sort.BOOL)


class TestBoolSemantics:
    def test_false_body_empty(self):
        i = Var("i", Sort.BOOL, Role.IN, "P")
        o = Var("o", Sort.BOOL, Role.OUT, "P")
        prog = _bool_program({"P": (((i,), (o,), ()), FALSE)})
        for b in range(3):
            assert bool_bounded_semantics(prog, "P", b) == frozenset()

    def test_call_free_stable(self):
        i = Var("i", Sort.BOOL, Role.IN, "P")
        o = Var("o", Sort.BOOL, Role.OUT, "P")
        body = f_or([Lit(BoolLit(i)), Lit(BoolLit(o))])
        prog = _bool_program({"P": (((i,), (o,), ()), body)})
        s0 = bool_bounded_semantics(prog, "P", 0)
        assert s0 == bool_bounded_semantics(prog, "P", 2)
        assert s0 == frozenset({(True, False), (True, True), (False, True)})

    def test_copy_identity(self):
        i = Var("i", Sort.BOOL, Role.IN, "P")
        o = Var("o", Sort.BOOL, Role.OUT, "P")
        same = f_or(
            [
                f_and([Lit(BoolLit(i)), Lit(BoolLit(o))]),
                f_and([Lit(BoolLit(i, False)), Lit(BoolLit(o, False))]),
            ]
        )
        prog = _bool_program({"P": (((i,), (o,), ()), same)})
        assert bool_bounded_semantics(prog, "P", 0) == frozenset(
            {(False, False), (True, True)}
        )

    def test_recursion_grows_then_stabilizes(self):
        i = Var("i", Sort.BOOL, Role.IN, "P")
        o = Var("o", Sort.BOOL, Role.OUT, "P")
        t = Var("t", Sort.BOOL, Role.LOCAL, "P")
        # P(i, o): (i and o) or (not i and call P(t, o))
        body = f_or(
            [
                f_and([Lit(BoolLit(i)), Lit(BoolLit(o))]),
                f_and([Lit(BoolLit(i, False)), Call("P", (t, o))]),
            ]
        )
        prog = _bool_program({"P": (((i,), (o,), (t,)), body)})
        s0 = bool_bounded_semantics(prog, "P", 0)
        s1 = bool_bounded_semantics(prog, "P", 1)
        assert s0 < s1
        fix = bool_unbounded_semantics(prog)["P"]
        assert s1 <= fix

    def test_enumeration_guard(self):
        vars_ = mk_vars([f"v{i}" for i in range(18)], Sort.BOOL, "P")
        prog = _bool_program({"P": ((tuple(vars_[:9]), tuple(vars_[9:]), ()), TRUE)})
        with pytest.raises(TooLarge):
            bool_bounded_semantics(prog, "P", 0)


class TestValidation:
    """parse checks each input rule where it reads the text."""

    @staticmethod
    def _parse(mode, p_body, main="P"):
        return parse(
            f"(program (mode {mode}) (procedure P (in i) (out o) (body {p_body}))"
            f" (main {main}) (assert-safe true))"
        )

    def test_unknown_callee_rejected(self):
        with pytest.raises(ValidationError, match="P calls undeclared procedure 'Q'"):
            self._parse("bool", "(call Q i o)")
        # the text is checked, also a call that folding removes
        with pytest.raises(ValidationError, match="P calls undeclared procedure 'Q'"):
            self._parse("bool", "(or o (and false (call Q i o)))")

    def test_undeclared_main_rejected(self):
        with pytest.raises(ValidationError, match="main procedure 'M' is not declared"):
            self._parse("bool", "o", main="M")

    def test_negated_divisibility_rejected(self):
        with pytest.raises(ValidationError, match="negated divisibility in input"):
            self._parse("int", "(not (divides 2 (+ i o)))")
        # a negation that folds to a constant is no literal, and is accepted
        assert self._parse("int", "(and (= o i) (not (divides 2 (* 4 i))))")
        # assert-safe may negate divisibility
        assert parse(
            "(program (mode int) (procedure P (in i) (out o) (body (= o i)))"
            " (main P) (assert-safe (not (divides 2 o))))"
        )
