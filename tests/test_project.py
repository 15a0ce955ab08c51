import random
from fractions import Fraction

import pytest

from helpers import (
    equivalent,
    exists_window_int,
    int_conjunction_sat,
    mk_vars,
    random_conjunction,
    random_model,
    random_nnf,
    window_sat_int,
)
import recmc.project
from recmc.errors import ModelMismatch, NotNormalized, SelfCheckFailed
from recmc.formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    BoolLit,
    DivLit,
    LinTerm,
    Lit,
    Sort,
    eval_formula,
    f_and,
    f_or,
    free_vars,
    mk_cmp,
    mk_lit,
    subst_arith,
)
from recmc.project import _cooper_cases, project
from recmc.solver import (
    Model,
    check_sat,
    entails,
)

x, y, z, e, l, u = mk_vars(["x", "y", "z", "e", "l", "u"], Sort.RAT)
tx, ty, tz, te, tl, tu = (LinTerm.of_var(v) for v in (x, y, z, e, l, u))
p1, p2 = mk_vars(["p1", "p2"], Sort.BOOL)
xi, yi, zi, li = mk_vars(["x", "y", "z", "l"], Sort.INT)
txi, tyi, tzi, tli = (LinTerm.of_var(v) for v in (xi, yi, zi, li))


def c(k):
    return LinTerm.of_const(k)


def two_intervals(tx_, ty_, tz_):
    """(y < x and x < 5) or (z < x and x < 10)"""
    return f_or(
        [
            f_and([mk_cmp(LT, ty_.sub(tx_)), mk_cmp(LT, tx_.sub(c(5)))]),
            f_and([mk_cmp(LT, tz_.sub(tx_)), mk_cmp(LT, tx_.sub(c(10)))]),
        ]
    )


def worked_matrix():
    """(x = e and p1) or (l < x and x < u) or (x < u and p2)"""
    return f_or(
        [
            f_and([mk_cmp(EQ, tx.sub(te)), Lit(BoolLit(p1))]),
            f_and([mk_cmp(LT, tl.sub(tx)), mk_cmp(LT, tx.sub(tu))]),
            f_and([mk_cmp(LT, tx.sub(tu)), Lit(BoolLit(p2))]),
        ]
    )


class TestLwQe:
    def test_single_equality_is_trivial(self):
        assert project([x], mk_cmp(EQ, tx.sub(ty)), None, strategy="qe") == TRUE

    def test_density(self):
        f = f_and([mk_cmp(LT, ty.sub(tx)), mk_cmp(LT, tx.sub(tz))])
        assert project([x], f, None, strategy="qe") == mk_cmp(LT, ty.sub(tz))

    def test_worked_example(self):
        got = project([x], worked_matrix(), None, strategy="qe")
        want = f_or([Lit(BoolLit(p1)), mk_cmp(LT, tl.sub(tu)), Lit(BoolLit(p2))])
        assert equivalent(got, want, Sort.RAT)

    def test_weak_bounds_split(self):
        # l <= x and x <= u  has a rational witness iff l <= u
        f = f_and([mk_cmp(LE, tl.sub(tx)), mk_cmp(LE, tx.sub(tu))])
        assert equivalent(project([x], f, None, strategy="qe"), mk_cmp(LE, tl.sub(tu)), Sort.RAT)

    def test_matches_window_oracle(self):
        """g = exists x. f, checked at every (y, z) of a window of
        rationals: g holds there exactly when f with y and z replaced by
        their values is satisfiable."""
        rng = random.Random(5)
        window = [Fraction(k, 6) for k in (-18, -6, -3, 0, 2, 6, 15)]  # -3 to 5/2
        for _ in range(60):
            f = random_nnf(rng, [x, y, z], Sort.RAT, rng.randint(1, 5))
            g = project([x], f, None, strategy="qe")
            assert x not in free_vars(g)
            assert check_sat(g, Sort.RAT).is_sat == check_sat(f, Sort.RAT).is_sat
            for yv in window:
                for zv in window:
                    at = subst_arith(f, {y: c(yv), z: c(zv)})
                    assert eval_formula(g, {y: yv, z: zv}) == check_sat(at, Sort.RAT).is_sat


class TestLraProj:
    def test_equality_branch(self):
        m = Model(
            {
                x: Fraction(0),
                e: Fraction(0),
                l: Fraction(5),
                u: Fraction(1),
                p1: True,
                p2: False,
            }
        )
        got = project([x], worked_matrix(), m)
        want = f_or(
            [
                Lit(BoolLit(p1)),
                f_and([mk_cmp(LT, tl.sub(te)), mk_cmp(LT, te.sub(tu))]),
                f_and([mk_cmp(LT, te.sub(tu)), Lit(BoolLit(p2))]),
            ]
        )
        assert equivalent(got, want, Sort.RAT)
        assert eval_formula(got, m)

    def test_lower_bound_branch(self):
        m = Model(
            {
                x: Fraction(1),
                e: Fraction(5),
                l: Fraction(0),
                u: Fraction(2),
                p1: False,
                p2: False,
            }
        )
        got = project([x], worked_matrix(), m)
        want = f_or([mk_cmp(LT, tl.sub(tu)), f_and([mk_cmp(LT, tl.sub(tu)), Lit(BoolLit(p2))])])
        assert equivalent(got, want, Sort.RAT)
        assert eval_formula(got, m)

    def test_minus_infinity_branch(self):
        m = Model(
            {
                x: Fraction(-1),
                e: Fraction(5),
                l: Fraction(0),
                u: Fraction(0),
                p1: False,
                p2: True,
            }
        )
        got = project([x], worked_matrix(), m)
        assert equivalent(got, Lit(BoolLit(p2)), Sort.RAT)
        assert eval_formula(got, m)

    def test_model_mismatch(self):
        # the one model check of a projection is project()'s
        with pytest.raises(ModelMismatch):
            project([x], mk_cmp(LT, tx), Model({x: Fraction(1)}))

    def test_first_holding_lower_bound_wins(self):
        # y + eps comes before z + eps and holds, although z is the
        # greater lower bound below x
        m = Model({x: Fraction(4), y: Fraction(0), z: Fraction(3)})
        got = project([x], two_intervals(tx, ty, tz), m)
        want = f_or(
            [
                mk_cmp(LT, ty.sub(c(5))),
                f_and([mk_cmp(LE, tz.sub(ty)), mk_cmp(LT, ty.sub(c(10)))]),
            ]
        )
        assert got == want
        assert eval_formula(got, m)

    def test_no_holding_case_is_a_self_check_failure(self, monkeypatch):
        # a case x := t is judged by the matrix at x = t(M), here false,
        # and not by its disjunct
        cases = [(LinTerm.of_const(0), lambda: TRUE), (None, lambda: FALSE)]
        monkeypatch.setattr(recmc.project, "_lw_cases", lambda x_, f: iter(cases))
        with pytest.raises(SelfCheckFailed, match="of x"):
            project([x], mk_cmp(LT, tx), Model({x: Fraction(-1)}))

    def test_absent_variable_leaves_the_matrix(self):
        # a variable that does not occur is not eliminated
        f = f_or([mk_cmp(LE, ty.sub(tz)), Lit(BoolLit(p1))])
        assert project([x], f, Model({y: 0, z: 1, p1: False})) is f


class TestCooper:
    def test_even_point_in_interval(self):
        f = f_and(
            [
                mk_cmp(LT, txi.scale(-1)),
                mk_cmp(LT, txi.sub(LinTerm.of_const(3))),
                mk_lit(DivLit(2, txi)),
            ]
        )
        got = project([xi], f, None, strategy="qe")
        # oracle: enumerate x in [-6, 6]
        assert exists_window_int(f, xi, {}, -6, 6)
        assert got == TRUE

    def test_empty_open_interval(self):
        f = f_and([mk_cmp(LT, tyi.sub(txi)), mk_cmp(LT, txi.sub(tyi).sub(LinTerm.of_const(1)))])
        assert project([xi], f, None, strategy="qe") == FALSE

    def test_equality_always_witnessed(self):
        f = mk_cmp(EQ, txi.sub(tyi).sub(LinTerm.of_const(2)))
        assert project([xi], f, None, strategy="qe") == TRUE

    def test_requires_unit_coefficient(self):
        with pytest.raises(NotNormalized):
            list(_cooper_cases(xi, mk_cmp(LT, txi.scale(2).sub(tyi))))

    def test_project_qe_rescales(self):
        g = project([xi], mk_cmp(LT, txi.scale(2).sub(tyi)), None, strategy="qe")
        assert xi not in free_vars(g)
        # exists x . 2x < y is true for every y
        assert equivalent(g, TRUE, Sort.INT)

    def test_matches_window_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            f = random_nnf(rng, [xi, yi], Sort.INT, rng.randint(1, 4))
            g = project([xi], f, None, strategy="qe")
            assert xi not in free_vars(g)
            for yval in range(-4, 5):
                m = {yi: Fraction(yval)}
                want = exists_window_int(f, xi, m, -24, 24)
                got = eval_formula(g, m) if yi in free_vars(g) or True else None
                if want:
                    assert got
                # the converse needs an unbounded witness; the witnesses
                # of the same Cooper cases are checked in
                # TestIntConjunctionSat instead


class TestLiaProj:
    def test_lower_bound_with_divisibility(self):
        f = f_and([mk_cmp(LT, tli.sub(txi)), mk_lit(DivLit(2, txi))])
        m = Model({xi: Fraction(4), li: Fraction(3)})
        got = project([xi], f, m)
        want = mk_lit(DivLit(2, tli.add(LinTerm.of_const(1))))
        assert got == want
        assert eval_formula(got, m)
        assert entails(got, project([xi], f, None, strategy="qe"), Sort.INT)

    def test_minus_infinity_residue(self):
        f = mk_lit(DivLit(2, txi))
        got = project([xi], f, Model({xi: Fraction(6)}))
        assert got == TRUE

    def test_equality_branch_precedence(self):
        f = f_and([mk_cmp(EQ, txi.sub(tyi)), mk_cmp(LT, tli.sub(txi))])
        m = Model({xi: Fraction(2), yi: Fraction(2), li: Fraction(0)})
        got = project([xi], f, m)
        assert equivalent(got, mk_cmp(LT, tli.sub(tyi)), Sort.INT)

    def test_first_holding_lower_bound_wins(self):
        # x := y + 1 comes before x := z + 1 and holds, although z is the
        # greater lower bound below x
        f = two_intervals(txi, tyi, tzi)
        m = Model({xi: Fraction(4), yi: Fraction(0), zi: Fraction(3)})
        got = project([xi], f, m)
        assert eval_formula(got, m)
        assert equivalent(
            got,
            f_or(
                [
                    mk_cmp(LT, tyi.sub(c(4))),
                    f_and([mk_cmp(LE, tzi.sub(tyi)), mk_cmp(LT, tyi.sub(c(9)))]),
                ]
            ),
            Sort.INT,
        )
        z_case = f_or(
            [
                f_and([mk_cmp(LE, tyi.sub(tzi)), mk_cmp(LT, tzi.sub(c(4)))]),
                mk_cmp(LT, tzi.sub(c(9))),
            ]
        )
        assert not equivalent(got, z_case, Sort.INT)

    def test_no_holding_case_is_a_self_check_failure(self, monkeypatch):
        # a case x := t is judged by the matrix at x = t(M), here false,
        # and not by its disjunct
        cases = [(LinTerm.of_const(0), lambda: TRUE, None), (None, lambda: FALSE, None)]
        monkeypatch.setattr(recmc.project, "_cooper_cases", lambda x_, g: iter(cases))
        with pytest.raises(SelfCheckFailed, match="of x"):
            project([xi], mk_cmp(LT, txi), Model({xi: Fraction(-1)}))

    def test_absent_variable_leaves_the_matrix(self):
        # a variable that does not occur is not eliminated
        f = f_and([mk_cmp(LT, tyi.sub(tzi)), mk_lit(DivLit(2, tyi))])
        assert project([xi], f, Model({yi: 0, zi: 1})) is f


class TestProject:
    def test_empty_vars_identity(self):
        f = mk_cmp(LT, tx.sub(ty))
        assert project([], f, None, strategy="qe") is f

    def test_unknown_strategy_raises(self):
        f = mk_cmp(LT, tx.sub(ty))
        with pytest.raises(ValueError, match="MBP"):
            project([x], f, Model({x: Fraction(0), y: Fraction(1)}), strategy="MBP")

    def test_boolean_mbp_substitutes(self):
        f = f_or([Lit(BoolLit(p1)), Lit(BoolLit(p2))])
        m = Model({p1: True, p2: False})
        assert project([p1], f, m, strategy="mbp") == TRUE

    def test_boolean_shannon(self):
        f = f_and([Lit(BoolLit(p1)), Lit(BoolLit(p2))])
        assert project([p1], f, None, strategy="qe") == Lit(BoolLit(p2))

    def test_determinism(self):
        rng = random.Random(15)
        for _ in range(40):
            f = random_nnf(rng, [x, y, z, p1], Sort.RAT, rng.randint(2, 5))
            m = random_model(rng, [x, y, z, p1])
            if not eval_formula(f, m):
                continue
            a = project([x, y], f, m, strategy="mbp")
            b = project([x, y], f, m, strategy="mbp")
            assert a == b

    def _image_points(self, f, elim, keep, mode):
        """Enumerate the projection image by blocking returned disjuncts."""
        disjuncts = []
        cur = f
        for _ in range(200):
            res = check_sat(cur, mode)
            if res.is_unsat:
                return disjuncts
            model = res.model
            missing = {v: Fraction(0) if v.sort is not Sort.BOOL else False
                       for v in free_vars(f) if v not in model}
            if missing:
                model = model.extended(missing)
            d = project(elim, f, model, strategy="mbp")
            disjuncts.append(d)
            from recmc.formula import negate_nnf

            cur = f_and([cur, negate_nnf(d)])
        raise AssertionError("image enumeration did not terminate")

    def test_image_cover_lra(self):
        rng = random.Random(19)
        for _ in range(25):
            f = random_nnf(rng, [x, y, z], Sort.RAT, rng.randint(1, 5))
            if not check_sat(f, Sort.RAT).is_sat:
                continue
            image = self._image_points(f, [x], [y, z], Sort.RAT)
            qe = project([x], f, None, strategy="qe")
            assert equivalent(f_or(image), qe, Sort.RAT)

    def test_image_cover_lia(self):
        rng = random.Random(21)
        for _ in range(20):
            f = random_nnf(rng, [xi, yi], Sort.INT, rng.randint(1, 4))
            if not check_sat(f, Sort.INT).is_sat:
                continue
            image = self._image_points(f, [xi], [yi], Sort.INT)
            qe = project([xi], f, None, strategy="qe")
            assert equivalent(f_or(image), qe, Sort.INT)


class TestIntConjunctionSat:
    def test_witnesses_on_divisibility_conjunctions(self):
        rng = random.Random(25)
        vars_ = [xi, yi, li]
        sat = unsat = 0
        for _ in range(80):
            f = random_conjunction(rng, vars_, Sort.INT, rng.randint(2, 5))
            if not isinstance(f, (And, Lit)):
                continue  # folded to a constant
            lits = [a.lit for a in f.args] if isinstance(f, And) else [f.lit]
            m = int_conjunction_sat(lits)
            if m is None:
                unsat += 1
                assert check_sat(f, Sort.INT).is_unsat
                assert not window_sat_int(f, vars_, -6, 6)
            else:
                sat += 1
                model = {v: m.get(v, Fraction(0)) for v in vars_}
                assert eval_formula(f, model)
        assert sat > 10 and unsat > 5
