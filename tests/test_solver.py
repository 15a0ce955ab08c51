import itertools
import random
from fractions import Fraction

import pytest

import helpers
from helpers import (
    _CooperBudget,
    int_conjunction_sat,
    mk_vars,
    random_conjunction,
    random_nnf,
    truth_table_sat,
    window_sat_int,
)
from recmc.errors import ResourceLimit, SelfCheckFailed
from recmc.formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    BoolLit,
    Cmp,
    DivLit,
    LinTerm,
    Lit,
    Or,
    Sort,
    eval_formula,
    eval_literal,
    f_and,
    f_or,
    mk_cmp,
    mk_lit,
)
from recmc import solver
from recmc.solver import (
    ClausalCore,
    FarkasCert,
    check_sat,
    entails,
    literal_of,
    refute_conjunction,
)

x, y, z = mk_vars(["x", "y", "z"], Sort.RAT)
tx, ty, tz = (LinTerm.of_var(v) for v in (x, y, z))
xi, yi, zi = mk_vars(["x", "y", "z"], Sort.INT)
txi, tyi, tzi = (LinTerm.of_var(v) for v in (xi, yi, zi))
p, q, r = mk_vars(["p", "q", "r"], Sort.BOOL)


def conjuncts(f):
    """The literals of a conjunction, each asserted true; None when f
    folded to a constant."""
    if isinstance(f, Lit):
        return [(f.lit, True)]
    if isinstance(f, And):
        return [(a.lit, True) for a in f.args]
    return None


class TestBasics:
    def test_rational_conflict_with_farkas(self):
        f = f_and([mk_cmp(LT, tx), mk_cmp(LT, LinTerm.of_const(1).sub(tx))])
        assert check_sat(f, Sort.RAT).is_unsat
        status, cert = refute_conjunction(conjuncts(f), Sort.RAT)
        assert status == "unsat" and isinstance(cert, FarkasCert)
        assert sorted(mu for _, mu, _ in cert.entries) == [1, 1]
        assert cert.replay()

    def test_no_integer_strictly_between(self):
        f = f_and([mk_cmp(LT, txi.scale(-1)), mk_cmp(LT, txi.sub(LinTerm.of_const(1)))])
        assert check_sat(f, Sort.INT).is_unsat
        # the rational relaxation is satisfiable
        f_rat = f_and([mk_cmp(LT, tx.scale(-1)), mk_cmp(LT, tx.sub(LinTerm.of_const(1)))])
        assert check_sat(f_rat, Sort.RAT).is_sat

    def test_boolean_sat(self):
        f = f_and([f_or([Lit(BoolLit(p)), Lit(BoolLit(q))]), Lit(BoolLit(p, False))])
        res = check_sat(f, Sort.BOOL)
        assert res.is_sat
        assert res.model[p] is False and res.model[q] is True

    def test_constants(self):
        assert check_sat(TRUE, Sort.BOOL).is_sat
        assert check_sat(FALSE, Sort.RAT).is_unsat

    def test_strict_weak_mix(self):
        # x <= y and y <= x and x < y is unsat; drop the strict part and it is sat
        base = [mk_cmp(LE, tx.sub(ty)), mk_cmp(LE, ty.sub(tx))]
        assert check_sat(f_and(base + [mk_cmp(LT, tx.sub(ty))]), Sort.RAT).is_unsat
        assert check_sat(f_and(base), Sort.RAT).is_sat

    def test_divides_via_fresh_variable(self):
        f = f_and(
            [
                mk_lit(DivLit(3, txi.add(LinTerm.of_const(1)))),
                mk_cmp(LT, txi.scale(-1)),
                mk_cmp(LT, txi.sub(LinTerm.of_const(4))),
            ]
        )
        res = check_sat(f, Sort.INT)
        assert res.is_sat and res.model[xi] == 2

    def test_negated_divides(self):
        f = f_and([mk_lit(DivLit(2, txi, False)), mk_lit(DivLit(2, txi.add(LinTerm.of_const(1)), False))])
        assert check_sat(f, Sort.INT).is_unsat


@pytest.fixture
def loaded(monkeypatch):
    """The _CDCL searches that check_sat makes, each with a copy of the
    clauses it was handed (the search reorders them in place)."""
    made = []

    class Recording(solver._CDCL):
        def __init__(self, nvars, clauses):
            self.given = [list(c) for c in clauses]
            super().__init__(nvars, clauses)
            made.append(self)

    monkeypatch.setattr(solver, "_CDCL", Recording)
    return made


def _b(v, positive=True):
    return Lit(BoolLit(v, positive))


class TestClausification:
    """Each top-level conjunct is one clause; only And and Or nodes below
    it get an auxiliary, numbered after the atoms."""

    def test_top_level_conjuncts_need_no_auxiliary(self, loaded):
        f = f_and([_b(p), _b(q, False), f_or([_b(q), _b(r), _b(p, False)])])
        assert check_sat(f, Sort.BOOL).is_sat
        (cdcl,) = loaded
        assert cdcl.nvars == 3
        assert cdcl.given == [[1], [-2], [2, 3, -1]]

    def test_top_level_disjunction_is_one_clause(self, loaded):
        # x < 0 or y < 0: atoms on different variables get no bound axiom
        f = f_or([mk_cmp(LT, tx), mk_cmp(LT, ty)])
        assert check_sat(f, Sort.RAT).is_sat
        assert loaded[0].nvars == 2 and loaded[0].given == [[1, 2]]

    def test_nested_and_under_or_gets_an_auxiliary(self, loaded):
        f = f_and([_b(p), f_or([_b(q), f_and([_b(r), _b(p, False)])])])
        assert check_sat(f, Sort.BOOL).is_sat
        assert loaded[0].nvars == 4
        assert loaded[0].given == [[1], [-4, 3], [-4, -1], [2, 4]]

    def test_contradictory_units_need_no_decision(self, loaded):
        assert check_sat(f_and([_b(p), _b(p, False)]), Sort.BOOL).is_unsat
        assert loaded[0].decisions == 0 and not loaded[0].ok

    def test_boolean_mode_builds_no_theory_check(self, monkeypatch):
        def no_theory(*args):
            raise AssertionError("theory check in Boolean mode")

        monkeypatch.setattr(solver._TheoryCheck, "__init__", no_theory)
        monkeypatch.setattr(solver.Simplex, "__init__", no_theory)
        rng = random.Random(13)
        vs = mk_vars([f"b{i}" for i in range(5)], Sort.BOOL)
        for _ in range(150):
            f = random_nnf(rng, vs, Sort.BOOL, rng.randint(1, 8))
            res = check_sat(f, Sort.BOOL)
            assert res.is_sat == truth_table_sat(f, vs)
            assert not res.is_sat or eval_formula(f, res.model)

    @pytest.mark.parametrize("mode", [Sort.BOOL, Sort.RAT, Sort.INT])
    def test_clauses_are_duplicate_free(self, mode, loaded):
        # skeleton and bound-axiom clauses go to the search as built
        rng = random.Random(19)
        vs = [x, y, z] if mode is Sort.RAT else [xi, yi, zi] if mode is Sort.INT else [p, q, r]
        for _ in range(150):
            check_sat(random_nnf(rng, vs, mode, rng.randint(1, 10)), mode)
        clauses = [c for cdcl in loaded for c in cdcl.given]
        assert len(clauses) > 500
        assert all(len(set(c)) == len(c) for c in clauses)


def _no_shadows(monkeypatch):
    """Make the Omega test's inexact step, the dark and grey shadows, raise."""

    def shadows(presolve, x, lows, highs):
        raise AssertionError(f"dark or grey shadow of {x!r} on {presolve.asserted!r}")

    monkeypatch.setattr(solver._IntPresolve, "_shadows", shadows)


@pytest.fixture()
def no_shadows(monkeypatch):
    _no_shadows(monkeypatch)


class TestIntegerPreChecks:
    """Conflicts on an unbounded relaxation, which no search over it refutes.

    Under no_shadows the Omega test's dark and grey shadows raise: unsat
    comes from the GCD pre-test on equalities or from equality
    elimination, into which divisibility literals go as equalities.
    """

    def test_gcd_refutes_equality(self, no_shadows):
        eq = mk_cmp(EQ, txi.scale(2).add(tyi.scale(2)).add(LinTerm.of_const(3)))
        assert check_sat(eq, Sort.INT).is_unsat
        assert refute_conjunction(conjuncts(eq), Sort.INT) == (
            "unsat", ClausalCore(((eq.lit, True),))
        )

    def test_residues_refute_negated_divisibility(self, no_shadows):
        f = f_and(
            [
                mk_lit(DivLit(2, tzi, False)),
                mk_lit(DivLit(2, tzi.add(LinTerm.of_const(1)), False)),
            ]
        )
        assert check_sat(f, Sort.INT).is_unsat
        status, core = refute_conjunction(conjuncts(f), Sort.INT)
        assert status == "unsat"
        assert isinstance(core, ClausalCore) and len(core.literals) == 2

    def test_residues_over_mixed_divisors(self, monkeypatch):
        # 3 | x + y and 3 | x + y + 1 clash; 2 | x + y shares their linear form
        s = txi.add(tyi)
        f = f_and(
            [
                mk_lit(DivLit(3, s)),
                mk_lit(DivLit(2, s)),
                mk_lit(DivLit(3, s.add(LinTerm.of_const(1)))),
            ]
        )
        with monkeypatch.context() as scope:
            _no_shadows(scope)
            assert check_sat(f, Sort.INT).is_unsat
        # 2 | x + y, 3 | x + y + 1 and not 4 | x + y hold at x + y = 2
        f = f_and(
            [
                mk_lit(DivLit(2, s)),
                mk_lit(DivLit(3, s.add(LinTerm.of_const(1)))),
                mk_lit(DivLit(4, s, False)),
            ]
        )
        assert check_sat(f, Sort.INT).is_sat

    def test_fallback_core_across_linear_forms(self, monkeypatch):
        # 4 | 2y - z + 3 makes z odd, which is asserted false; equality
        # elimination finds the core without branching
        div4 = DivLit(4, tyi.scale(2).sub(tzi).add(LinTerm.of_const(3)))
        z_odd = DivLit(2, tzi.add(LinTerm.of_const(1)))
        bound = mk_cmp(LE, txi.sub(LinTerm.of_const(5)))
        f = f_and([mk_lit(div4), mk_lit(DivLit(2, z_odd.term, False)), bound])
        _no_shadows(monkeypatch)
        assert check_sat(f, Sort.INT).is_unsat
        status, core = refute_conjunction(conjuncts(f), Sort.INT)
        assert status == "unsat"
        assert set(core.literals) == {(div4, True), (z_odd, False)}


class TestEqualityElimination:
    """Shapes on which depth-first branch-and-bound dives into an unbounded
    direction: the Omega test decides each, all but a narrow range on a
    form with no unit coefficient without a dark or grey shadow."""

    def test_even_coefficients_round_the_bound(self, no_shadows):
        # -2x + 2y + 3 <= 0 is y - x <= -3/2, over the integers y - x <= -2
        f = mk_cmp(LE, txi.scale(-2).add(tyi.scale(2)).add(LinTerm.of_const(3)))
        assert check_sat(f, Sort.INT).is_sat

    def test_strict_bound_with_odd_variable(self, no_shadows):
        # the relaxation's vertex x = 5/2 sends branch-and-bound down x <= 2
        f = f_and(
            [
                mk_cmp(LT, txi.scale(-2).add(tzi).add(LinTerm.of_const(3))),
                mk_lit(DivLit(2, tzi, False)),
            ]
        )
        res = check_sat(f, Sort.INT)
        assert res.is_sat and res.model[zi] % 2 == 1

    def test_line_refuted_modulo_two(self, no_shadows):
        # 2x - z + 3 = 0 makes z odd, so z + 1 is even: no branching on the
        # unbounded line refutes this, elimination does
        line = mk_cmp(EQ, txi.scale(2).sub(tzi).add(LinTerm.of_const(3)))
        odd = DivLit(2, tzi.add(LinTerm.of_const(1)))
        f = f_and([line, mk_lit(DivLit(2, odd.term, False))])
        assert check_sat(f, Sort.INT).is_unsat
        status, core = refute_conjunction(conjuncts(f), Sort.INT)
        assert status == "unsat"
        assert sorted(core.literals, key=repr) == sorted([(line.lit, True), (odd, False)], key=repr)

    def test_remainder_range_is_split(self, shadow_steps):
        # elimination leaves 2 <= 2*k4 + 3*k3 - 3*k1 <= 3 over unbounded
        # quotients, along which branch-and-bound walks without end; no
        # coefficient is 1, and the dark shadow of k4 holds
        f = f_and(
            [
                mk_lit(DivLit(3, txi, False)),
                mk_lit(DivLit(3, txi.sub(tyi).add(LinTerm.of_const(1)))),
                mk_lit(DivLit(2, tyi.add(LinTerm.of_const(1)), False)),
            ]
        )
        res = check_sat(f, Sort.INT)
        assert res.is_sat and eval_formula(f, res.model)
        assert [step for step, _ in shadow_steps] == ["dark"]

    def test_every_remainder_refuted(self, no_shadows):
        # x is 2 mod 3, so y is 0 mod 3: each remainder value is refuted
        f = f_and(
            [
                mk_lit(DivLit(3, txi, False)),
                mk_lit(DivLit(3, txi.sub(tyi).add(LinTerm.of_const(1)))),
                mk_lit(DivLit(3, tyi, False)),
                mk_lit(DivLit(3, txi.sub(LinTerm.of_const(1)), False)),
            ]
        )
        assert check_sat(f, Sort.INT).is_unsat
        status, core = refute_conjunction(conjuncts(f), Sort.INT)
        assert status == "unsat"
        assert int_conjunction_sat([literal_of(atom, val) for atom, val in core.literals]) is None

    def test_model_check(self, no_shadows, monkeypatch):
        # the presolve's model is checked against every literal; the check
        # raises, so it holds under python -O too
        monkeypatch.setattr(solver, "eval_literal", lambda lit, model: False)
        with pytest.raises(SelfCheckFailed):
            refute_conjunction([(Cmp(LE, txi.sub(LinTerm.of_const(3))), True)], Sort.INT)


def _t(cx, cy, cz, c):
    return LinTerm.make({xi: cx, yi: cy, zi: cz}, c)


class TestShadows:
    """The Omega test's inexact step, a dark shadow and then the splinters
    of a grey shadow, is taken only where no variable projects exactly."""

    @pytest.mark.parametrize(
        "conj",
        [
            # (3 | x + z + 1), not (3 | x), y + z > 3, not (3 | z + 1),
            # -2y + z - 3 <= 0; then with not (3 | z + 2) added
            [DivLit(3, _t(1, 0, 1, 1)), DivLit(3, _t(1, 0, 0, 0), False), Cmp(LT, _t(0, -1, -1, 3)),
             DivLit(3, _t(0, 0, 1, 1), False), Cmp(LE, _t(0, -2, 1, -3))],
            [DivLit(3, _t(1, 0, 1, 1)), DivLit(3, _t(1, 0, 0, 0), False), Cmp(LT, _t(0, -1, -1, 3)),
             DivLit(3, _t(0, 0, 1, 1), False), Cmp(LE, _t(0, -2, 1, -3)), DivLit(3, _t(0, 0, 1, 2), False)],
            # x + 1 < 0, x + 2y + 2 < 0, (3 | x + z + 2), not (3 | z + 2)
            [Cmp(LT, _t(1, 0, 0, 1)), Cmp(LT, _t(1, 2, 0, 2)), DivLit(3, _t(1, 0, 1, 2)),
             DivLit(3, _t(0, 0, 1, 2), False)],
        ],
        ids=["y-above-z", "y-above-z-residue", "y-below-x"],
    )
    def test_one_sided_variable_needs_no_shadow(self, conj, shadow_steps, monkeypatch):
        # depth-first branch-and-bound walks two quotients down together
        # on each of these; y is bounded on one side only once the
        # equalities are gone, and goes with its rows
        solves = []
        real = solver._IntPresolve.solve
        monkeypatch.setattr(solver._IntPresolve, "solve", lambda presolve: solves.append(1) or real(presolve))
        status, values = solver._TheoryCheck(Sort.INT).decide([solver._atom_of(lit) for lit in conj])
        assert status == "sat" and all(eval_literal(lit, values) for lit in conj)
        assert solves == [1] and shadow_steps == []

    def test_pugh_example_is_refuted_by_splinters(self, shadow_steps, monkeypatch):
        # 27 <= 11x + 13y <= 45 and -10 <= 7x - 9y <= 4 (Pugh, CACM 1992)
        # have real solutions and no integer one, and no variable projects
        # exactly: the dark shadow is empty, and so is every splinter
        forms = [_t(-11, -13, 0, 27), _t(11, 13, 0, -45), _t(-7, 9, 0, -10), _t(7, -9, 0, -4)]
        assert check_sat(f_and([mk_cmp(LE, t.subst({xi: tx, yi: ty})) for t in forms]), Sort.RAT).is_sat
        status, core = refute_conjunction([(Cmp(LE, t), True) for t in forms], Sort.INT)
        assert status == "unsat"
        steps = [step for step, _ in shadow_steps]
        assert steps[0] == "dark" and steps.count("splinter") > 1
        # the oracle needs more nodes than its default for these coefficients
        monkeypatch.setattr(helpers, "COOPER_NODE_BUDGET", 100_000)
        assert int_conjunction_sat([literal_of(atom, val) for atom, val in core.literals]) is None

    def test_inexact_cores_vs_window(self, shadow_steps):
        # two or three ranges on forms over x and y with no unit
        # coefficient, and up to two more bounds: each row that a dark
        # shadow builds carries the masks of the two rows it combines, so
        # no point of the window meets a core (Cooper's method takes too
        # long on so many large coefficients to serve as the oracle here)
        rng = random.Random(53)
        decided = {"sat": 0, "unsat": 0}
        for _ in range(400):
            lits = _non_unit_ranges(rng, (xi, yi), rng.randint(2, 3))
            for _ in range(rng.randint(0, 2)):
                g = mk_cmp(LE, _random_term(rng, rng.randint(1, 2), (xi, yi)))
                if isinstance(g, Lit):
                    lits.append(g.lit)
            f = f_and([Lit(lit) for lit in lits])
            status, payload = solver._TheoryCheck(Sort.INT).decide(list(dict.fromkeys(map(solver._atom_of, lits))))
            decided[status] += 1
            if status == "sat":
                assert eval_formula(f, payload), (lits, payload)
            else:
                core = f_and([Lit(literal_of(atom, val)) for atom, val in payload.literals])
                assert not window_sat_int(core, [xi, yi], -10, 10), (lits, payload.literals)
        assert decided["sat"] > 40 and decided["unsat"] > 200
        assert len({conj for step, conj in shadow_steps if step == "splinter"}) > 20


class TestEntailment:
    def test_examples(self):
        assert entails(mk_cmp(EQ, tx.sub(LinTerm.of_const(1))), mk_cmp(LT, tx.scale(-1)), Sort.RAT)
        assert not entails(mk_cmp(LT, tx.scale(-1)), mk_cmp(EQ, tx.sub(LinTerm.of_const(1))), Sort.RAT)
        assert entails(FALSE, mk_cmp(LT, tx), Sort.RAT)

    def test_unknown_propagates(self, monkeypatch):
        # the conjunction holds at all zeros, which the integer phase finds
        # without search, so only the theory-check budget can leave it open
        monkeypatch.setattr(solver, "MAX_THEORY_CHECKS", 0)
        vars_ = mk_vars([f"v{i}" for i in range(8)], Sort.INT)
        big = f_and(
            [mk_lit(DivLit(3, LinTerm.of_var(v).add(LinTerm.of_var(w))))
             for v in vars_ for w in vars_ if v.key() < w.key()]
        )
        with pytest.raises(ResourceLimit):
            entails(big, FALSE, Sort.INT)


def _random_term(rng, k, vars_=(xi, yi, zi), coeffs=(-3, -2, -1, 1, 2, 3)):
    """A term over k of the three vars_ with nonzero coefficients drawn
    from coeffs."""
    picked = rng.sample(vars_, k)
    return LinTerm.make({v: rng.choice(coeffs) for v in picked}, rng.randint(-4, 4))


def _random_lits(rng, mode=Sort.INT):
    """Two to five literals over xi, yi, zi, with equalities and
    divisibility literals of both signs, or comparisons over x, y, z in
    rational mode."""
    vars_, kinds = (xi, yi, zi), [LT, LE, EQ, "div", "not div"]
    if mode is Sort.RAT:
        vars_, kinds = (x, y, z), [LT, LE, EQ]
    lits = []
    for _ in range(rng.randint(2, 5)):
        term = _random_term(rng, rng.randint(1, 3), vars_)
        kind = rng.choice(kinds)
        if kind in (LT, LE, EQ):
            g = mk_cmp(kind, term)
        else:
            g = mk_lit(DivLit(rng.randint(2, 4), term, kind == "div"))
        if isinstance(g, Lit):
            lits.append(g.lit)
    return lits


def _non_unit_ranges(rng, vars_=(xi, yi, zi), forms=2):
    """forms forms over two or more of vars_ with coefficients 2 to 7 in
    absolute value, each between bounds at most 4 apart, in the shape of
    27 <= 11x + 13y <= 45 and -10 <= 7x - 9y <= 4."""
    lits = []
    for _ in range(forms):
        t = _random_term(rng, rng.randint(2, len(vars_)), vars_, (-7, -6, -5, -4, -3, -2, 2, 3, 4, 5, 6, 7))
        for g in (mk_cmp(LE, t), mk_cmp(LE, LinTerm.of_const(-rng.randint(0, 4)).sub(t))):
            if isinstance(g, Lit):
                lits.append(g.lit)
    return lits


def _decide_vs_cooper(lits):
    """Decide the integer conjunction lits with the integer phase and with
    Cooper's method alone, and check that they agree: a model satisfies
    every literal and a core is refuted.  The status, or None when Cooper
    runs out of budget."""
    asserted = list(dict.fromkeys(solver._atom_of(lit) for lit in lits))
    try:
        oracle = int_conjunction_sat(lits)
    except _CooperBudget:
        return None
    status, payload = solver._TheoryCheck(Sort.INT).decide(asserted)
    assert status == ("unsat" if oracle is None else "sat"), lits
    if status == "sat":
        model = {v: payload.get(v, Fraction(0)) for v in (xi, yi, zi)}
        assert all(eval_literal(lit, model) for lit in lits), (lits, model)
    else:
        assert set(payload.literals) <= set(asserted)
        core = [literal_of(atom, val) for atom, val in payload.literals]
        assert int_conjunction_sat(core) is None, (lits, core)
    return status


@pytest.fixture()
def shadow_steps(monkeypatch):
    """The Omega test's inexact steps, in order: ("dark", conjunction) for
    each dark shadow and ("splinter", conjunction) for each splinter of a
    grey shadow, where conjunction is the presolve's tuple of asserted
    literals."""
    steps = []
    real = solver._IntPresolve._branch

    def recorded(presolve, eqs):
        steps.append(("splinter" if eqs else "dark", tuple(presolve.asserted)))
        return real(presolve, eqs)

    monkeypatch.setattr(solver._IntPresolve, "_branch", recorded)
    return steps


class TestDifferential:
    def test_boolean_vs_truth_table(self):
        rng = random.Random(11)
        vs = mk_vars([f"b{i}" for i in range(6)], Sort.BOOL)
        for _ in range(150):
            f = random_nnf(rng, vs, Sort.BOOL, rng.randint(1, 8))
            assert check_sat(f, Sort.BOOL).is_sat == truth_table_sat(f, vs)

    def test_integer_vs_window(self):
        rng = random.Random(17)
        vs = mk_vars(["a", "b"], Sort.INT)
        for _ in range(120):
            f = random_nnf(rng, vs, Sort.INT, rng.randint(1, 4))
            res = check_sat(f, Sort.INT)
            window = window_sat_int(f, vs, -8, 8)
            if window:
                assert res.is_sat  # a window witness is a real witness
            if res.is_sat and all(abs(res.model.get(v, 0)) <= 8 for v in vs):
                assert window

    def test_model_soundness_fuzz(self):
        # check_sat re-evaluates every model internally; this drives it
        rng = random.Random(29)
        for mode, vs in (
            (Sort.RAT, [x, y, z, p]),
            (Sort.INT, [xi, yi, q]),
            (Sort.BOOL, [p, q, r]),
        ):
            sats = 0
            for _ in range(350):
                f = random_nnf(rng, vs, mode, rng.randint(1, 6))
                res = check_sat(f, mode)
                assert not res.is_unknown
                if res.is_sat:
                    sats += 1
                    assert eval_formula(f, res.model)
            assert sats > 0

    @pytest.mark.parametrize(
        "draw, min_grey",
        [pytest.param(_random_lits, 0, id="mixed-literals"), pytest.param(_non_unit_ranges, 100, id="non-unit-ranges")],
    )
    def test_theory_check_vs_cooper(self, draw, min_grey, shadow_steps):
        # conjunctions decided by the integer phase and by Cooper's method
        # alone: with equalities and divisibility literals of both signs,
        # or two-sided bounds on forms with no unit coefficient, whose
        # variables have no exact projection, so that at least min_grey
        # conjunctions reach the splinters of a grey shadow
        rng = random.Random(53)
        decided = {"sat": 0, "unsat": 0}
        for _ in range(400):
            status = _decide_vs_cooper(draw(rng))
            if status is not None:
                decided[status] += 1
        assert decided["sat"] > 100 and decided["unsat"] > 50
        assert len({conj for step, conj in shadow_steps if step == "splinter"}) >= min_grey

    @pytest.mark.parametrize(
        "mode, kinds", [(Sort.RAT, {FarkasCert}), (Sort.INT, {FarkasCert, ClausalCore})]
    )
    def test_blocked_literals_are_refuted_literals(self, mode, kinds, monkeypatch):
        # check_sat reads only a conflict's literals for its blocking
        # clause; they are, in order, the literals of the certificate or
        # core that refute_conjunction gives for the same conjunction.
        # A conjunction with two clashing atoms on one linear form is
        # refuted by the bound axioms and reaches no blocking clause
        skeletons, blocked = [], []
        finalize, add_blocking = solver._Skeleton.finalize, solver._CDCL.add_blocking

        def recorded_finalize(skel):
            skeletons.append(skel)
            return finalize(skel)

        def recorded_blocking(cdcl, clause):
            blocked.append(list(clause))
            return add_blocking(cdcl, clause)

        monkeypatch.setattr(solver._Skeleton, "finalize", recorded_finalize)
        monkeypatch.setattr(solver._CDCL, "add_blocking", recorded_blocking)
        rng = random.Random(53)
        seen = set()
        by_axioms = 0
        for _ in range(400):
            f = f_and([mk_lit(lit) for lit in _random_lits(rng, mode)])
            lits = conjuncts(f)
            if lits is None:
                continue
            skeletons.clear()
            blocked.clear()
            res = check_sat(f, mode)
            status, payload = refute_conjunction(lits, mode)
            assert status == res.status, f
            atoms = [solver._atom_of(lit) for lit, _ in lits]
            if status != "unsat" or len({atom for atom, _ in atoms}) < len(atoms):
                # sat, or an atom asserted both ways: no theory conflict
                assert blocked == []
                continue
            if not blocked:
                cmps = [atom for atom, _ in atoms if isinstance(atom, Cmp)]
                assert len({atom.term.vars for atom in cmps}) < len(cmps), f
                by_axioms += 1
                continue
            # one full assignment, refuted at level 0 by one blocking clause
            ((clause,), (skel,)) = blocked, skeletons
            got = [(skel.atoms[abs(l) - 1], l < 0) for l in clause]
            assert got == list(payload.literals), f
            seen.add(type(payload))
        assert seen == kinds and by_axioms > 10

    def test_narrow_ranges_vs_cooper(self, shadow_steps):
        # l <= t <= u of width 1 to 4 on a form over two or three
        # variables, with 2 | and 3 | literals of both signs: where no
        # variable of the range has an exact projection, the grey shadow
        # splits it
        rng = random.Random(61)
        decided = {"sat": 0, "unsat": 0}
        for _ in range(300):
            t = _random_term(rng, rng.randint(2, 3))
            width = rng.randint(1, 4)
            lits = [mk_cmp(LE, t).lit, mk_cmp(LE, LinTerm.of_const(-width).sub(t)).lit]
            for _ in range(rng.randint(2, 4)):
                g = mk_lit(DivLit(rng.choice([2, 3]), _random_term(rng, rng.randint(1, 3)), rng.random() < 0.5))
                if isinstance(g, Lit):
                    lits.append(g.lit)
            status = _decide_vs_cooper(lits)
            if status is not None:
                decided[status] += 1
        assert decided["sat"] > 100 and decided["unsat"] > 20
        assert len({conj for step, conj in shadow_steps if step == "splinter"}) > 10

    def test_integer_rational_agreement(self):
        # formulas whose rational solutions happen to be integral
        rng = random.Random(31)
        for _ in range(80):
            k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)
            f_int = f_and(
                [
                    mk_cmp(EQ, txi.sub(LinTerm.of_const(k1))),
                    mk_cmp(LE, tyi.sub(txi).sub(LinTerm.of_const(k2))),
                ]
            )
            f_rat = f_and(
                [
                    mk_cmp(EQ, tx.sub(LinTerm.of_const(k1))),
                    mk_cmp(LE, ty.sub(tx).sub(LinTerm.of_const(k2))),
                ]
            )
            assert check_sat(f_int, Sort.INT).is_sat
            assert check_sat(f_rat, Sort.RAT).is_sat


class TestCertificates:
    def test_farkas_replay_fuzz(self):
        rng = random.Random(37)
        replayed = 0
        for _ in range(300):
            f = random_conjunction(rng, [x, y, z], Sort.RAT, rng.randint(2, 5))
            lits = conjuncts(f)
            if lits is None:
                continue
            status, cert = refute_conjunction(lits, Sort.RAT)
            if status == "unsat" and isinstance(cert, FarkasCert):
                assert cert.replay()
                replayed += 1
        assert replayed > 30

    def test_clausal_cores_refute(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(200):
            f = random_conjunction(rng, [xi, yi], Sort.INT, rng.randint(2, 5))
            lits = conjuncts(f)
            if lits is None:
                continue
            status, cert = refute_conjunction(lits, Sort.INT)
            if status == "unsat" and isinstance(cert, ClausalCore) and cert.literals:
                core = [Lit(literal_of(atom, val)) for atom, val in cert.literals]
                assert check_sat(f_and(core), Sort.INT).is_unsat
                checked += 1
        assert checked > 10

    @pytest.mark.parametrize("mode, vars_", [(Sort.RAT, [x, y, z]), (Sort.INT, [xi, yi])])
    def test_refute_conjunction_agrees_with_check_sat(self, mode, vars_):
        # both decide through _TheoryCheck.decide, from different callers
        rng = random.Random(43)
        statuses = set()
        for _ in range(200):
            f = random_conjunction(rng, vars_, mode, rng.randint(1, 5))
            lits = conjuncts(f)
            if lits is None:
                continue
            status, payload = refute_conjunction(lits, mode)
            res = check_sat(f, mode)
            assert status == res.status, f
            statuses.add(status)
            if status == "sat":
                for values in (payload, res.model):
                    model = {v: values.get(v, Fraction(0)) for v in vars_}
                    assert eval_formula(f, model)
                    if mode is Sort.INT:
                        assert all(val.denominator == 1 for val in model.values())
            if status == "unsat":
                if isinstance(payload, FarkasCert):
                    assert payload.replay()
                else:
                    core = f_and([Lit(literal_of(atom, val)) for atom, val in payload.literals])
                    assert check_sat(core, mode).is_unsat
        assert statuses == {"sat", "unsat"}

    def test_refute_conjunction_direct(self):
        status, cert = refute_conjunction(
            [(Cmp(LT, tx), True), (Cmp(LT, LinTerm.of_const(1).sub(tx)), True)],
            Sort.RAT,
        )
        assert status == "unsat" and isinstance(cert, FarkasCert) and cert.replay()
        status, values = refute_conjunction([(Cmp(LT, tx), True)], Sort.RAT)
        assert status == "sat" and values[x] < 0

    @pytest.mark.parametrize("mode", [Sort.RAT, Sort.INT])
    def test_refute_conjunction_rejects_boolean_literals(self, mode):
        # interpolation refutes path pairs only in rational and integer
        # mode, whose programs have no Boolean variables
        with pytest.raises(TypeError, match="not a theory literal"):
            refute_conjunction([(BoolLit(p), True), (BoolLit(p), False)], mode)


def _same_form_atoms(rng, mode, n_forms):
    """Three to six comparison atoms on n_forms linear forms, each over
    one to three of x, y and z; each atom is a scaled or negated copy of
    its form with a random constant, such as 2x - 2y <= 3 and -x + y < 1."""
    vars_ = (xi, yi, zi) if mode is Sort.INT else (x, y, z)
    forms = [_random_term(rng, rng.randint(1, 3), vars_, (-2, -1, 1, 2)) for _ in range(n_forms)]
    consts = list(range(-4, 5))
    if mode is Sort.RAT:
        consts += [Fraction(1, 2), Fraction(-3, 2)]
    atoms = []
    for _ in range(rng.randint(3, 6)):
        term = rng.choice(forms).scale(rng.choice((1, -1, 2, -2)))
        atoms.append(Cmp(rng.choice((LT, LE, EQ)), LinTerm(term.coeffs, rng.choice(consts))))
    return list(dict.fromkeys(atoms))


def _negations(atom, value):
    """The conjunctions of literals, one of which holds when atom does not
    take value: the atom itself, or its negation with an equality split
    in two."""
    if value:
        return [[atom]]
    minus = atom.term.scale(-1)
    if atom.op == EQ:
        return [[Cmp(LT, atom.term)], [Cmp(LT, minus)]]
    return [[Cmp(LE if atom.op == LT else LT, minus)]]


def _r(cx, cy, c):
    return LinTerm.make({x: cx, y: cy}, c)


def _lits_of(f):
    if isinstance(f, Lit):
        return [f]
    if isinstance(f, (And, Or)):
        return [g for a in f.args for g in _lits_of(a)]
    return []


class TestBoundAxioms:
    """Valid clauses between comparison atoms on one canonical form, and
    one simplex slack per canonical form."""

    @pytest.mark.parametrize("mode", [Sort.RAT, Sort.INT])
    def test_every_clause_is_valid(self, mode):
        # the negation of every clause is refuted: by the theory check in
        # rational mode, by Cooper's method in integer mode
        rng = random.Random(71)
        checked = 0
        for _ in range(150):
            atoms = _same_form_atoms(rng, mode, rng.randint(1, 3))
            for clause in solver._bound_axioms(atoms, mode, {}):
                parts = [_negations(atoms[abs(l) - 1], l < 0) for l in clause]
                for pick in itertools.product(*parts):
                    lits = [lit for part in pick for lit in part]
                    if mode is Sort.RAT:
                        assert refute_conjunction([(lit, True) for lit in lits], mode)[0] == "unsat", (atoms, clause)
                    else:
                        assert int_conjunction_sat(lits) is None, (atoms, clause)
                checked += 1
        assert checked > 300

    @pytest.mark.parametrize("mode", [Sort.RAT, Sort.INT])
    def test_clashing_atoms_never_reach_the_theory(self, mode, monkeypatch):
        # an unsat conjunction of atoms on one form is refuted by unit
        # propagation over the axioms, without a theory check
        decided = []
        real = solver._TheoryCheck.decide
        monkeypatch.setattr(solver._TheoryCheck, "decide", lambda check, asserted: decided.append(1) or real(check, asserted))
        rng = random.Random(73)
        statuses = {"sat": 0, "unsat": 0}
        for _ in range(300):
            atoms = _same_form_atoms(rng, mode, 1)
            if mode is Sort.RAT:
                oracle = refute_conjunction([(atom, True) for atom in atoms], mode)[0]
            else:
                oracle = "unsat" if int_conjunction_sat(atoms) is None else "sat"
            decided.clear()
            res = check_sat(f_and([Lit(atom) for atom in atoms]), mode)
            assert res.status == oracle, atoms
            if oracle == "unsat":
                assert decided == [], atoms
            statuses[oracle] += 1
        assert statuses["sat"] > 20 and statuses["unsat"] > 100

    def test_boolean_mode_has_no_axioms(self, monkeypatch):
        def axioms(atoms, mode, forms):
            raise AssertionError("bound axioms in Boolean mode")

        monkeypatch.setattr(solver, "_bound_axioms", axioms)
        f = f_and([f_or([Lit(BoolLit(p)), Lit(BoolLit(q))]), Lit(BoolLit(p, False))])
        assert check_sat(f, Sort.BOOL).is_sat

    def test_each_form_computed_once_per_check(self, monkeypatch):
        # the theory checks of one check_sat call share the forms that
        # the axioms computed, and compute each other form once
        calls, decided = [], []
        canonical, decide = solver._canonical, solver._TheoryCheck.decide
        monkeypatch.setattr(solver, "_canonical", lambda coeffs: calls.append(coeffs) or canonical(coeffs))
        monkeypatch.setattr(solver._TheoryCheck, "decide", lambda check, asserted: decided.append(1) or decide(check, asserted))
        rng = random.Random(79)
        searches = 0
        for _ in range(200):
            f = random_nnf(rng, [x, y, z], Sort.RAT, rng.randint(6, 12))
            calls.clear()
            decided.clear()
            check_sat(f, Sort.RAT)
            atoms = {g.lit for g in _lits_of(f) if isinstance(g.lit, Cmp)}
            assert len(calls) <= len(atoms), f
            searches += len(decided) > 1
        assert searches > 20

    def test_clause_order(self):
        # by form in the order of its first atom, then by bound and atom
        # id; y <= 4 shares its variables with no atom and gets no form
        atoms = [
            Cmp(LT, _r(1, -1, -2)),  # 1: x - y < 2
            Cmp(LE, _r(1, 1, 0)),  # 2: x + y <= 0
            Cmp(LE, _r(-1, 1, 3)),  # 3: x - y >= 3
            Cmp(EQ, _r(2, -2, -2)),  # 4: x - y = 1
            Cmp(LT, _r(-1, -1, -1)),  # 5: x + y > -1
            Cmp(LE, _r(1, -1, -5)),  # 6: x - y <= 5
            Cmp(LE, _r(0, 1, -4)),  # 7: y <= 4
            Cmp(EQ, _r(1, 1, -1)),  # 8: x + y = 1
        ]
        forms = {}
        clauses = solver._bound_axioms(atoms, Sort.RAT, forms)
        assert clauses == [[-1, 6], [-1, -3], [-4, 1], [-4, -3], [-8, -2], [-8, 5]]
        assert list(forms) == [atoms[i] for i in (0, 1, 2, 3, 4, 5, 7)]
        assert forms[atoms[2]] == (((x, 1), (y, -1)), -1)
        assert forms[atoms[3]] == (((x, 1), (y, -1)), 2)

    def test_integer_bounds_are_rounded(self):
        # over the integers 2x - 2y <= 3 is x - y <= 1 and -4x + 4y + 5 <= 0
        # is x - y >= 2; 2x - 2y = 1 has no integer point
        atoms = [
            Cmp(LE, LinTerm.make({xi: 2, yi: -2}, -3)),
            Cmp(LE, LinTerm.make({xi: -4, yi: 4}, 5)),
            Cmp(EQ, LinTerm.make({xi: 2, yi: -2}, -1)),
        ]
        assert solver._bound_axioms(atoms, Sort.INT, {}) == [[-3], [-1, -2]]
        assert solver._bound_axioms(atoms, Sort.RAT, {}) == [[-3, 1], [-3, -2]]

    def test_one_slack_per_form(self, monkeypatch):
        # t <= 3, -t <= 1 and 2t = 2 bound one slack for t = x - 2y;
        # t <= 0 and -t + 1 <= 0 clash on it with no pivot
        t = tx.sub(ty.scale(2))
        check = solver._TheoryCheck(Sort.RAT)
        status, values = check.decide([
            (Cmp(LE, t.sub(LinTerm.of_const(3))), True),
            (Cmp(LE, t.scale(-1).sub(LinTerm.of_const(1))), True),
            (Cmp(EQ, t.scale(2).sub(LinTerm.of_const(2))), True),
        ])
        assert status == "sat" and values[x] - 2 * values[y] == 1
        ((form, sid),) = check.simplex.slack_by_key.items()
        assert form == ((x, 1), (y, -2))
        assert check.simplex.lo[sid].val == check.simplex.hi[sid].val == (1, 0)

        def pivot(simplex, bid, nid):
            raise AssertionError("pivot on a bound clash")

        monkeypatch.setattr(solver.Simplex, "_pivot", pivot)
        lits = [(Cmp(LE, t), True), (Cmp(LE, t.scale(-1).add(LinTerm.of_const(1))), True)]
        status, cert = refute_conjunction(lits, Sort.RAT)
        assert status == "unsat" and isinstance(cert, FarkasCert) and cert.replay()
        assert sorted(mu for _, mu, _ in cert.entries) == [1, 1]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("other", [_r(1, 1, -1), _r(-1, -1, 3)], ids=["below", "above"])
    def test_equality_certificate_either_sign(self, sign, other):
        # x + y = 2, written with either sign, against x + y <= 1 or
        # x + y >= 3: the clash is on one slack, with the equality's upper
        # or lower side, and its certificate replays
        eq = Cmp(EQ, _r(1, 1, -2).scale(sign))
        status, cert = refute_conjunction([(eq, True), (Cmp(LE, other), True)], Sort.RAT)
        assert status == "unsat" and isinstance(cert, FarkasCert) and cert.replay()


def _simplex_numbers(simplex):
    """Every row coefficient, value and bound value held by a simplex."""
    for row in simplex.rows.values():
        yield from row.values()
    for val in simplex.values.values():
        yield from val
    for side in (simplex.lo, simplex.hi):
        for bound in side.values():
            yield from bound.val


def _int_where_integral(n) -> bool:
    return type(n) is int or (type(n) is Fraction and n.denominator != 1)


class TestSimplexNumbers:
    """The simplex holds an int where a number is integral and a Fraction
    where it is not, never a float, and hands out values by the same
    rule; only certificate multipliers are Fractions."""

    @pytest.mark.parametrize("mode, vars_", [(Sort.RAT, [x, y, z]), (Sort.INT, [xi, yi])])
    def test_decide_on_random_conjunctions(self, mode, vars_):
        rng = random.Random(47)
        statuses = set()
        farkas = fractional = 0
        for _ in range(200):
            f = random_conjunction(rng, vars_, mode, rng.randint(1, 5))
            if not isinstance(f, (And, Lit)):
                continue  # folded to a constant
            lits = [a.lit for a in f.args] if isinstance(f, And) else [f.lit]
            check = solver._TheoryCheck(mode)
            status, payload = check.decide([solver._atom_of(l) for l in lits])
            statuses.add(status)
            numbers = list(_simplex_numbers(check.simplex))
            assert all(_int_where_integral(n) for n in numbers), f
            fractional += any(type(n) is Fraction for n in numbers)
            if status == "sat":
                assert all(_int_where_integral(val) for val in payload.values())
            elif isinstance(payload, solver._Conflict) and isinstance(cert := payload.certificate(), FarkasCert):
                assert all(type(mu) is Fraction for _, mu, _ in cert.entries)
                farkas += 1
        assert statuses == {"sat", "unsat"}
        assert farkas > 10 and fractional > 10

    @pytest.mark.parametrize("k", [1, -1, 2, -2, 3, -3])
    def test_pivot_quotient(self, k):
        # x = 0 blocks x, so x + k*y >= 1 is repaired by pivoting on y,
        # whose row coefficient is k in the canonical slack s = x + k*y:
        # y = s/k - x/k
        check = solver._TheoryCheck(Sort.RAT)
        cover = Cmp(LE, LinTerm.of_const(1).sub(tx).sub(ty.scale(k)))
        status, values = check.decide([(Cmp(EQ, tx), True), (cover, True)])
        assert status == "sat" and values == {x: 0, y: Fraction(1, k)}
        assert all(_int_where_integral(val) for val in values.values())
        simplex = check.simplex
        xid, yid = simplex.var_ids[x], simplex.var_ids[y]
        (sid,) = simplex.slack_by_key.values()
        assert simplex.rows == {yid: {sid: Fraction(1, k), xid: Fraction(-1, k)}}
        want = int if abs(k) == 1 else Fraction
        assert all(type(c) is want for c in simplex.rows[yid].values())
        assert type(simplex.values[yid][0]) is want


class TestCooperSelfChecks:
    """The Cooper oracle's own checks raise, also under python -O."""

    def test_model_check(self, monkeypatch):
        monkeypatch.setattr(helpers, "eval_formula", lambda f, model: False)
        with pytest.raises(SelfCheckFailed):
            int_conjunction_sat([Cmp(LE, txi.sub(LinTerm.of_const(3)))])

    def test_witness_check(self, monkeypatch):
        cases = helpers._cooper_cases

        def off_by_half(y, g):
            for t, build, witness in cases(y, g):
                yield t, build, lambda m, w=witness: w(m) + Fraction(1, 2)

        monkeypatch.setattr(helpers, "_cooper_cases", off_by_half)
        with pytest.raises(SelfCheckFailed):
            int_conjunction_sat([Cmp(LE, txi.sub(LinTerm.of_const(3)))])


def _budget_conjunction():
    """A conjunction whose Cooper cases mostly fold to false, more than
    COOPER_NODE_BUDGET of them."""
    return [
        DivLit(3, _t(0, 1, 1, 2), False),
        Cmp(LE, _t(-3, 2, 2, -2)),
        Cmp(LE, _t(-3, -2, 3, -4)),
        Cmp(LT, _t(-1, 0, -3, -4)),
        DivLit(4, _t(2, 1, 2, 0)),
    ]


class TestCooperBudget:
    def test_budget_bounds_every_case(self, monkeypatch):
        # each case costs a substitution, so each counts against the budget
        real = helpers._icsat
        calls = [0]

        def counting(f, counter):
            calls[0] += 1
            return real(f, counter)

        monkeypatch.setattr(helpers, "_icsat", counting)
        with pytest.raises(_CooperBudget):
            int_conjunction_sat(_budget_conjunction())
        assert calls[0] <= helpers.COOPER_NODE_BUDGET + 1

    @pytest.mark.parametrize(
        "decide",
        [
            pytest.param(lambda asserted: solver._TheoryCheck(Sort.INT).decide(asserted), id="theory-check"),
            pytest.param(lambda asserted: solver._IntPresolve(asserted).solve(), id="omega-test"),
        ],
    )
    def test_theory_check_decides_it(self, decide):
        # the conjunction that exhausts the oracle's budget is decided by
        # the theory check and by the Omega test alone, which has no budget
        lits = _budget_conjunction()
        status, payload = decide([solver._atom_of(lit) for lit in lits])
        if status == "sat":
            model = {v: payload.get(v, 0) for v in (xi, yi, zi)}
            assert all(eval_literal(lit, model) for lit in lits), model
        else:
            assert status == "unsat"
            core = f_and([Lit(literal_of(atom, val)) for atom, val in payload.literals])
            assert not window_sat_int(core, [xi, yi, zi], -8, 8)
