import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    equivalent,
    int_conjunction_sat,
    mk_vars,
    random_conjunction,
    random_model,
    random_nnf,
)
import recmc
from recmc import formula
from recmc.errors import NotNormalized, PathExplosion, UnassignedVar, ValidationError
from recmc.formula import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    BoolLit,
    Call,
    Cmp,
    DivLit,
    LinTerm,
    Lit,
    Or,
    Path,
    Role,
    Sort,
    Var,
    dnf_paths,
    eval_formula,
    eval_literal,
    f_and,
    f_or,
    free_vars,
    has_calls,
    implicant,
    leaves,
    lia_normalize,
    literal_vars,
    map_literals,
    mk_cmp,
    mk_lit,
    negate_nnf,
    normalize_for,
    rename_vars,
    subst_arith,
    subst_bool,
)
from recmc.parser import parse
from recmc.project import _collect, _cooper_cases, split_weak_bounds
from recmc.solver import entails

p, q = mk_vars(["p", "q"], Sort.BOOL)
x, y, u, l = mk_vars(["x", "y", "u", "l"], Sort.RAT)
tx, ty, tu, tl = (LinTerm.of_var(v) for v in (x, y, u, l))


def lit(v, pos=True):
    return Lit(BoolLit(v, pos))


def _read(mode, expr, formals="p q x y u l"):
    """The assert-safe formula expr, read in a program of the given mode
    whose main has the given formals, and those formals by name."""
    unit = parse(
        f"(program (mode {mode}) (procedure P (in {formals}) (out) (body true))"
        f" (main P) (assert-safe {expr}))"
    )
    return unit.phi_safe, {v.name: v for v in unit.program.proc("P").formals}


_BOOL_ATOMS = st.sampled_from(["a", "b", "c", "true", "false"])
_TERMS = st.recursive(
    st.sampled_from(["a", "b", "c"]) | st.integers(-3, 3).map(str),
    lambda t: st.one_of(
        st.tuples(st.just("+"), t, t),
        st.tuples(st.just("-"), t, t),
        st.tuples(st.just("-"), t),
        st.tuples(st.just("*"), st.integers(-3, 3).map(str), t),
    ),
    max_leaves=4,
)
_CMPS = st.tuples(st.sampled_from(["<", "<=", "=", ">", ">="]), _TERMS, _TERMS)
_DIVIDES = st.tuples(st.just("divides"), st.integers(1, 4).map(str), _TERMS)


def _formulas(atoms):
    return st.recursive(
        atoms,
        lambda f: st.one_of(
            st.tuples(st.just("not"), f),
            st.lists(f, max_size=3).map(lambda xs: ("and", *xs)),
            st.lists(f, max_size=3).map(lambda xs: ("or", *xs)),
        ),
        max_leaves=8,
    )


def _text(sexp) -> str:
    if isinstance(sexp, str):
        return sexp
    return "(" + " ".join(_text(s) for s in sexp) + ")"


def _eval(sexp, env):
    """The value of a formula or term s-expression under env, read off
    the syntax: the oracle of the parser's NNF."""
    if isinstance(sexp, str):
        if sexp in ("true", "false"):
            return sexp == "true"
        return env[sexp] if sexp in env else Fraction(int(sexp))
    op, *args = sexp
    vals = [_eval(a, env) for a in args]
    if op == "not":
        return not vals[0]
    if op == "and":
        return all(vals)
    if op == "or":
        return any(vals)
    if op == "+":
        return vals[0] + vals[1]
    if op == "-":
        return vals[0] - vals[1] if len(vals) == 2 else -vals[0]
    if op == "*":
        return vals[0] * vals[1]
    if op == "divides":
        return vals[1] % vals[0] == 0
    return {"<": vals[0] < vals[1], "<=": vals[0] <= vals[1], "=": vals[0] == vals[1],
            ">": vals[0] > vals[1], ">=": vals[0] >= vals[1]}[op]


class TestToNNF:
    """Formula text is read straight into NNF."""

    def test_de_morgan(self):
        f, v = _read("bool", "(not (and p q))")
        assert f == Or((lit(v["p"], False), lit(v["q"], False)))

    def test_double_negation(self):
        f, v = _read("bool", "(not (not p))")
        assert f == lit(v["p"])

    def test_atom_negation_rules(self):
        # not(x < u and l < x)  ->  u <= x or x <= l
        f, v = _read("rat", "(not (and (< x u) (< l x)))")
        tx, tu, tl = (LinTerm.of_var(v[n]) for n in "xul")
        assert f == f_or([mk_cmp(LE, tu.sub(tx)), mk_cmp(LE, tx.sub(tl))])

    def test_negated_equality_splits(self):
        f, _ = _read("rat", "(not (= x y))")
        assert isinstance(f, Or) and len(f.args) == 2

    def test_negated_call_rejected(self):
        line = "  (procedure P (in i) (out o) (body (or (= o i) (not (call D i o)))))"
        text = (
            "(program (mode rat)\n"
            "  (procedure D (in a) (out b) (body (= b a)))\n"
            f"{line}\n"
            "  (main P) (assert-safe true))"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        col = line.index("(call") + 1
        assert str(err.value) == f"3:{col}: call to D under a negation"

    @given(
        st.sampled_from(["bool", "rat", "int"]).flatmap(
            lambda mode: st.tuples(
                st.just(mode),
                _formulas(
                    _BOOL_ATOMS if mode == "bool"
                    else _CMPS | _DIVIDES if mode == "int" else _CMPS
                ),
            )
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_preserves_models(self, mode_sexp, rng):
        mode, sexp = mode_sexp
        f, v = _read(mode, _text(sexp), "a b c")
        for _ in range(5):
            if mode == "bool":
                env = {n: rng.random() < 0.5 for n in v}
            elif mode == "int":
                env = {n: Fraction(rng.randint(-6, 6)) for n in v}
            else:
                env = {n: Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for n in v}
            model = {v[n]: val for n, val in env.items()}
            assert eval_formula(f, model) == _eval(sexp, env)


class TestDnfPaths:
    def test_distribution(self):
        a, b, c = lit(p), lit(q), mk_cmp(LT, tx)
        paths = dnf_paths(f_and([f_or([a, b]), c]))
        assert len(paths) == 2
        assert {pa.literals for pa in paths} == {
            (a.lit, c.lit),
            (b.lit, c.lit),
        }

    def test_call_order_preserved(self):
        body = And((Call("T", (x,)), Call("D", (y,)), Call("D", (u,))))
        (path,) = dnf_paths(body)
        assert [c.callee for c in path.calls] == ["T", "D", "D"]
        assert [c.args for c in path.calls] == [(x,), (y,), (u,)]

    def test_explosion_is_an_error(self, monkeypatch):
        monkeypatch.setattr(formula, "PATH_LIMIT", 100)
        f = f_and([f_or([lit(v) for v in mk_vars([f"b{i}_{j}" for j in range(2)], Sort.BOOL)])
                   for i in range(8)])
        with pytest.raises(PathExplosion):
            dnf_paths(f)

    def test_disjunction_equivalent_to_body(self):
        rng = random.Random(13)
        for _ in range(40):
            body = random_nnf(rng, [p, q, x, y], Sort.RAT, rng.randint(1, 6))
            paths = dnf_paths(body)
            joined = f_or([pa.formula() for pa in paths])
            assert equivalent(joined, body, Sort.RAT)
            for pa in paths:
                assert entails(pa.formula(), body, Sort.RAT)


class TestNormalizeFor:
    def test_divide_by_coefficient(self):
        # 2x + y < 3  ->  x < (3 - y)/2
        term = tx.scale(2).add(ty).sub(LinTerm.of_const(3))
        tag = normalize_for(x, Cmp(LT, term), Sort.RAT)
        assert tag[0] == "hi"
        assert tag[1] == LinTerm.of_const(Fraction(3, 2)).sub(ty.scale(Fraction(1, 2)))

    def test_rearrange_lower_bound(self):
        # x - y > 0 given as y - x < 0  ->  y < x
        tag = normalize_for(x, Cmp(LT, ty.sub(tx)), Sort.RAT)
        assert tag == ("lo", ty)

    def test_equality_scaling(self):
        # 3 = 3x normalized as 3 - 3x = 0  ->  x = 1
        tag = normalize_for(x, Cmp(EQ, LinTerm.of_const(3).sub(tx.scale(3))), Sort.RAT)
        assert tag == ("eq", LinTerm.of_const(1))

    def test_int_weak_bounds_shift(self):
        xi, yi = mk_vars(["xi", "yi"], Sort.INT)
        txi, tyi = LinTerm.of_var(xi), LinTerm.of_var(yi)
        assert normalize_for(xi, Cmp(LE, txi.sub(tyi)), Sort.INT) == (
            "hi",
            tyi.add(LinTerm.of_const(1)),
        )
        assert normalize_for(xi, Cmp(LE, tyi.sub(txi)), Sort.INT) == (
            "lo",
            tyi.sub(LinTerm.of_const(1)),
        )

    def test_div_sign_folded(self):
        xi, yi = mk_vars(["xi", "yi"], Sort.INT)
        txi, tyi = LinTerm.of_var(xi), LinTerm.of_var(yi)
        tag = normalize_for(xi, DivLit(3, tyi.sub(txi)), Sort.INT)
        assert tag == ("div", 3, tyi.scale(-1), True)


class TestLiaNormalize:
    xi, yi, zi = mk_vars(["x", "y", "z"], Sort.INT)
    txi, tyi, tzi = (LinTerm.of_var(v) for v in (xi, yi, zi))

    def test_single_literal(self):
        f = mk_cmp(LT, self.txi.scale(2).sub(self.tyi))  # 2x < y
        g, mult, xp = lia_normalize(self.xi, f)
        assert mult == 2 and xp is not self.xi
        lits = {a.lit for a in g.args}
        assert Cmp(LT, LinTerm.of_var(xp).sub(self.tyi)) in lits
        assert DivLit(2, LinTerm.of_var(xp)) in lits

    def test_mixed_coefficients(self):
        # {2x < y, z < 3x}  ->  D' = 6: {x' < 3y, 2z < x', 6 | x'}
        f = f_and(
            [
                mk_cmp(LT, self.txi.scale(2).sub(self.tyi)),
                mk_cmp(LT, self.tzi.sub(self.txi.scale(3))),
            ]
        )
        g, mult, xp = lia_normalize(self.xi, f)
        assert mult == 6
        txp = LinTerm.of_var(xp)
        lits = {a.lit for a in g.args}
        assert Cmp(LT, txp.sub(self.tyi.scale(3))) in lits
        assert Cmp(LT, self.tzi.scale(2).sub(txp)) in lits
        assert DivLit(6, txp) in lits

    def test_repeated_calls_are_equal(self):
        # the rescaled variable is named after x, not drawn from a counter,
        # so the result does not depend on what ran before
        f = mk_cmp(LT, self.txi.scale(2).sub(self.tyi))
        first, again = lia_normalize(self.xi, f), lia_normalize(self.xi, f)
        assert first == again and first[2] != self.xi
        assert first[2].role is Role.AUX

    def test_non_integral_coefficient_is_an_error(self):
        # an error under python -O as well: a guard, not an assert
        f = mk_cmp(LE, self.txi.scale(Fraction(1, 2)).add(self.tyi))
        with pytest.raises(NotNormalized):
            lia_normalize(self.xi, f)

    def test_free_formula_unchanged(self):
        f = mk_cmp(LT, self.tyi)
        g, mult, xp = lia_normalize(self.xi, f)
        assert g is f and mult == 1 and xp is self.xi

    def test_equisatisfiable_on_window(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 4)
            lits = []
            for _ in range(n):
                c = rng.choice([-3, -2, 2, 3, 1])
                rest = self.tyi.scale(rng.randint(-2, 2)).add(
                    LinTerm.of_const(rng.randint(-2, 2))
                )
                lits.append(mk_cmp(rng.choice([LT, LE, EQ]), self.txi.scale(c).add(rest)))
            f = f_and(lits)
            g, mult, xp = lia_normalize(self.xi, f)
            span = 3 * mult
            for yval in range(-2, 3):
                m = {self.yi: Fraction(yval)}
                has_x = any(
                    eval_formula(f, {**m, self.xi: Fraction(k)})
                    for k in range(-span, span + 1)
                )
                has_xp = any(
                    eval_formula(g, {**m, self.xi: Fraction(0), xp: Fraction(k)})
                    for k in range(-span, span + 1)
                ) if xp is not self.xi else has_x
                assert has_x == has_xp


class TestEval:
    def test_examples(self):
        assert eval_formula(mk_cmp(LT, tx.sub(ty)), {x: Fraction(1), y: Fraction(2)})
        xi = Var("xi", Sort.INT)
        assert not eval_formula(
            mk_lit(DivLit(2, LinTerm.of_var(xi))), {xi: Fraction(3)}
        )
        assert not eval_formula(FALSE, {})

    def test_unassigned(self):
        with pytest.raises(UnassignedVar):
            eval_formula(mk_cmp(LT, tx), {})


class TestImplicant:
    def test_first_holding_disjunct_and_every_conjunct(self):
        f = f_and([lit(p), f_or([lit(q), lit(p, False), f_and([lit(q, False), lit(p)])])])
        assert implicant(f, {p: True, q: False}) == f_and([lit(p), lit(q, False)])
        assert implicant(f, {p: True, q: True}) == f_and([lit(p), lit(q)])
        assert implicant(f, {p: False, q: True}) == FALSE

    def test_holds_in_model_and_implies_formula(self):
        rng = random.Random(11)
        for mode in (Sort.RAT, Sort.INT):
            vars_ = [p, q, x, y] if mode is Sort.RAT else [p, q, Var("xi", Sort.INT)]
            for _ in range(150):
                f = random_nnf(rng, vars_, mode, rng.randint(1, 6))
                m = random_model(rng, vars_)
                cube = implicant(f, m)
                if not eval_formula(f, m):
                    assert cube == FALSE
                    continue
                assert eval_formula(cube, m)
                assert all(isinstance(a, Lit) for a in getattr(cube, "args", (cube,))) or cube == TRUE
                assert entails(cube, f, mode)


class TestSmartConstructors:
    def test_constant_folding(self):
        assert mk_cmp(LT, LinTerm.of_const(-1)) == TRUE
        assert mk_cmp(LT, LinTerm.of_const(0)) == FALSE
        assert mk_cmp(EQ, LinTerm.of_const(0)) == TRUE
        assert mk_lit(DivLit(2, LinTerm.of_const(4))) == TRUE

    def test_flatten_and_dedup(self):
        f = f_and([lit(p), f_and([lit(p), lit(q)])])
        assert f == And((lit(p), lit(q)))
        assert f_or([FALSE, lit(p)]) == lit(p)
        assert f_and([lit(p), FALSE]) == FALSE
        # first occurrences, in order
        assert f_or([lit(q), f_or([lit(p), lit(q)]), lit(p, False)]) == Or(
            (lit(q), lit(p), lit(p, False))
        )
        assert f_and([lit(q), lit(q)]) == lit(q)
        assert f_or([TRUE, lit(p)]) == TRUE and f_and([]) == TRUE and f_or([]) == FALSE

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_linterm_algebra(self, a, b, d):
        t = tx.scale(a).add(ty.scale(b)).scale(Fraction(1, d))
        back = t.scale(d).sub(tx.scale(a)).sub(ty.scale(b))
        assert back.is_const() and back.const == 0

    def test_negate_nnf_roundtrip(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_nnf(rng, [p, q, x, y], Sort.RAT, rng.randint(1, 4))
            m = random_model(rng, [p, q, x, y])
            assert eval_formula(negate_nnf(f), m) == (not eval_formula(f, m))


class TestDivCanonical:
    yi, zi = mk_vars(["y", "z"], Sort.INT)
    tyi, tzi = LinTerm.of_var(yi), LinTerm.of_var(zi)

    def div(self, d, term, positive=True):
        return mk_lit(DivLit(d, term, positive))

    def k(self, c):
        return LinTerm.of_const(c)

    def test_reduced_modulo_divisor(self):
        # (6 | -5z - 5)  ->  (6 | z + 1)
        got = self.div(6, self.tzi.scale(-5).sub(self.k(5)))
        assert got == Lit(DivLit(6, self.tzi.add(self.k(1))))
        # coefficients land in (-d/2, d/2], the constant in [0, d)
        got = self.div(7, self.tyi.add(self.tzi.scale(12)).add(self.k(-9)))
        assert got == Lit(DivLit(7, self.tyi.sub(self.tzi.scale(2)).add(self.k(5))))

    def test_gcd_divided_out(self):
        # (4 | -2y - 4)  ->  (2 | y)
        assert self.div(4, self.tyi.scale(-2).sub(self.k(4))) == Lit(DivLit(2, self.tyi))
        # (9 | 3y + 6z + 3)  ->  (3 | y + 2z + 1), stored as (3 | y - z + 1)
        got = self.div(9, self.tyi.scale(3).add(self.tzi.scale(6)).add(self.k(3)), False)
        assert got == Lit(DivLit(3, self.tyi.sub(self.tzi).add(self.k(1)), False))

    def test_constant_folding(self):
        # gcd 2 of (2y, 4) does not divide 1: never divisible
        assert self.div(4, self.tyi.scale(2).add(self.k(1))) == FALSE
        assert self.div(4, self.tyi.scale(2).add(self.k(1)), False) == TRUE
        # (3 | 3y + 6) always holds
        assert self.div(3, self.tyi.scale(3).add(self.k(6))) == TRUE
        assert self.div(3, self.tyi.scale(3), False) == FALSE
        assert self.div(5, self.k(-10)) == TRUE and self.div(5, self.k(7)) == FALSE

    def test_sign_rule(self):
        a = self.div(3, self.tzi.sub(self.tyi))  # (3 | -y + z)
        b = self.div(3, self.tyi.sub(self.tzi))  # (3 | y - z)
        assert a == b == Lit(DivLit(3, self.tyi.sub(self.tzi)))
        got = self.div(5, self.tyi.scale(-1).sub(self.tzi.scale(2)).add(self.k(1)))
        assert got == Lit(DivLit(5, self.tyi.add(self.tzi.scale(2)).add(self.k(4))))
        # negation keeps the canonical form
        assert negate_nnf(a) == Lit(DivLit(3, self.tyi.sub(self.tzi), False))

    def test_equivalent_idempotent_and_unit_preserving(self):
        rng = random.Random(43)
        grid = [Fraction(k) for k in range(-7, 8)]
        for _ in range(120):
            d = rng.randint(1, 8)
            cy, cz = rng.choice([-1, 1]), rng.randint(-9, 9)
            lit = DivLit(d, self.tyi.scale(cy).add(self.tzi.scale(cz)).add(self.k(rng.randint(-9, 9))),
                         rng.random() < 0.5)
            got = mk_lit(lit)
            for vy in grid:
                for vz in grid:
                    m = {self.yi: vy, self.zi: vz}
                    assert eval_formula(got, m) == eval_literal(lit, m)
            if isinstance(got, Lit):
                assert mk_lit(got.lit) == got
                assert abs(got.lit.term.coeff(self.yi)) == 1  # lia_normalize relies on this


def _field_hash(node):
    """What the generated dataclass hash returns: the hash of the tuple of
    the compared fields."""
    return hash(tuple(getattr(node, f.name) for f in dataclasses.fields(node) if f.compare))


class TestNodeHash:
    xi, yi = mk_vars(["x", "y"], Sort.INT)
    txi, tyi = LinTerm.of_var(xi), LinTerm.of_var(yi)
    cmp = Cmp(LT, txi.sub(tyi))
    div = DivLit(3, txi.add(LinTerm.of_const(1)), False)

    def nodes(self):
        call = Call("F", (self.xi, self.yi))
        return [
            Var("v", Sort.RAT, Role.IN, "P"),
            self.txi.add(self.tyi.scale(2)),
            self.cmp,
            BoolLit(p, False),
            self.div,
            Lit(self.cmp),
            And((Lit(self.cmp), call)),
            Or((Lit(self.div), lit(p))),
            call,
            Path((self.cmp, self.div), (call,)),
        ]

    def test_hash_is_field_hash(self):
        for node in self.nodes():
            assert hash(node) == _field_hash(node), type(node).__name__
            assert hash(node) == _field_hash(node)  # read back from the slot

    def test_equal_nodes_built_differently(self):
        a = LinTerm.make({self.xi: 2, self.yi: -1}, 3)
        b = LinTerm.make({self.yi: -1, self.xi: 2}, 3)
        c = self.txi.scale(2).add(LinTerm.of_const(3)).add(self.tyi.scale(-1))
        hash(a)  # cache one side only
        assert a == b == c and hash(a) == hash(b) == hash(c)
        # duplicates built differently are dropped, first occurrences kept in order
        f1 = f_and([mk_cmp(LT, a), lit(p), lit(q)])
        f2 = f_and([mk_cmp(LT, c), lit(p), mk_cmp(LT, b), lit(q), lit(p)])
        assert f1 == f2 and hash(f1) == hash(f2)
        assert f2.args == (mk_cmp(LT, a), lit(p), lit(q))

    def test_frozen_and_slotted(self):
        for node in self.nodes():
            name = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_owner_less_var_hash_is_the_same_in_every_process(self):
        # the hash fixes the iteration order of sets of variables
        script = "from recmc.formula import Sort, Var; print(hash(Var('x', Sort.INT)))"
        src = os.path.dirname(os.path.dirname(recmc.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        outs = {
            subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        }
        assert len(outs) == 1

    def test_cache_outside_repr_and_eq(self):
        for make in (
            lambda: Var("v", Sort.INT),
            lambda: LinTerm.make({self.xi: 1}, 2),
            lambda: And((Lit(self.cmp), lit(q))),
        ):
            cached, fresh = make(), make()
            hash(cached)
            assert cached._hash is not None and fresh._hash is None
            assert cached == fresh and repr(cached) == repr(fresh)
        slot = {f.name: f for f in dataclasses.fields(Var)}["_hash"]
        assert not (slot.init or slot.repr or slot.compare)


def _subst_reference(term, mapping):
    """LinTerm.subst as it was before the one-pass version: one add per
    coefficient, kept as the reference."""
    acc = LinTerm.of_const(term.const)
    for v, c in term.coeffs:
        rep = mapping.get(v)
        if rep is None:
            acc = acc.add(LinTerm(((v, c),), Fraction(0)))
        else:
            acc = acc.add(rep.scale(c))
    return acc


_pool = mk_vars(["a", "b", "c", "d"], Sort.RAT)
_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _terms(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(_pool), _coeff, max_size=4))
    return LinTerm.make(coeffs, draw(_coeff))


class TestSubst:
    def test_unmapped_returns_self(self):
        t = tx.scale(2).add(ty).add(LinTerm.of_const(1))
        assert t.subst({}) is t
        assert t.subst({u: tl}) is t
        assert LinTerm.of_const(3).subst({x: ty}).const == 3

    def test_self_reference_and_cancellation(self):
        t = tx.scale(2).add(ty)
        assert t.subst({x: tx.add(LinTerm.of_const(1))}) == t.add(LinTerm.of_const(2))
        # y := -2x cancels x; {x := y, y := x - y} is simultaneous
        assert t.subst({y: tx.scale(-2)}) == LinTerm.of_const(0)
        assert t.subst({x: ty, y: tx.sub(ty)}) == tx.add(ty)

    @given(_terms(), st.dictionaries(st.sampled_from(_pool), _terms(), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_add_per_coefficient(self, t, mapping):
        got, want = t.subst(mapping), _subst_reference(t, mapping)
        assert got == want and repr(got) == repr(want)

    @given(_terms(), st.sampled_from(_pool), _terms(), _coeff)
    @settings(max_examples=200, deadline=None)
    def test_cancelling_substitution(self, t, v, rest, k):
        # v := rest - (t without v) / c cancels every other variable of t
        c = t.coeff(v)
        if c == 0:
            return
        others = t.sub(LinTerm(((v, c),), Fraction(0)))
        mapping = {v: rest.sub(others.scale(Fraction(1) / c)).add(LinTerm.of_const(k))}
        got = t.subst(mapping)
        assert got == _subst_reference(t, mapping)
        assert all(d != 0 for _, d in got.coeffs)
        assert set(got.vars) <= set(rest.vars)


def _reference_literals(f):
    """The literal nodes of f, by recursion: the walkers' reference."""
    if isinstance(f, Lit):
        return [f]
    if isinstance(f, (And, Or)):
        return [g for a in f.args for g in _reference_literals(a)]
    return []


_WALK_CASES = [
    (Sort.RAT, mk_vars(["x", "y", "z"], Sort.RAT) + [p, q]),
    (Sort.INT, mk_vars(["x", "y", "z"], Sort.INT) + [p, q]),
]


class TestWalkers:
    """map_literals and leaves, and the substitutions built on them."""

    @pytest.mark.parametrize("mode, vars_", _WALK_CASES, ids=["rat", "int"])
    def test_identity_map_returns_the_formula(self, mode, vars_):
        rng = random.Random(71)
        for _ in range(100):
            f = random_nnf(rng, vars_, mode, rng.randint(1, 8))
            assert map_literals(f, lambda g: g) is f
            assert list(leaves(f)) == _reference_literals(f)

    @pytest.mark.parametrize("mode, vars_", _WALK_CASES, ids=["rat", "int"])
    def test_substitutions_agree_with_eval(self, mode, vars_):
        rng = random.Random(73)
        xv, yv, zv = vars_[:3]
        w, r = Var("w", mode), Var("r", Sort.BOOL)
        for _ in range(150):
            f = random_nnf(rng, vars_, mode, rng.randint(1, 8))
            m = random_model(rng, vars_ + [w, r])
            t = LinTerm.make({yv: rng.choice([-2, -1, 1, 2]), zv: 1}, rng.randint(-3, 3))
            want = eval_formula(f, {**m, xv: t.evaluate(m)})
            assert eval_formula(subst_arith(f, {xv: t}), m) == want
            b = rng.random() < 0.5
            assert eval_formula(subst_bool(f, {p: b}), m) == eval_formula(f, {**m, p: b})
            renamed = rename_vars(f, {xv: w, p: r})
            assert eval_formula(renamed, m) == eval_formula(f, {**m, xv: m[w], p: m[r]})
            assert xv not in free_vars(renamed) and p not in free_vars(renamed)

    @pytest.mark.parametrize("mode, vars_", _WALK_CASES, ids=["rat", "int"])
    def test_free_vars_is_the_union_of_literal_vars(self, mode, vars_):
        rng = random.Random(79)
        call = Call("P", (vars_[0], p))
        for _ in range(100):
            f = random_nnf(rng, vars_, mode, rng.randint(1, 8))
            want = frozenset(v for g in _reference_literals(f) for v in literal_vars(g.lit))
            assert free_vars(f) == want
            assert not has_calls(f)
            if f in (TRUE, FALSE):
                continue
            with_call = f_and([f, call])
            assert free_vars(with_call) == want | {vars_[0], p}
            assert has_calls(with_call) and has_calls(f_or([f, call]))

    def test_false_argument_decides_an_and(self):
        # the arguments after it are not mapped
        r = Var("r", Sort.BOOL)
        seen = []

        def rule(g):
            seen.append(g)
            return FALSE if g in (lit(p), lit(r)) else g

        f = f_or([lit(q), f_and([lit(p), mk_cmp(LT, tx), mk_cmp(LT, ty)])])
        assert map_literals(f, rule) == lit(q)
        assert seen == [lit(q), lit(p)]
        # an Or that comes out false decides the And above it in turn
        seen.clear()
        f = f_and([f_or([lit(p), lit(r)]), mk_cmp(LT, tx), mk_cmp(LT, ty)])
        assert map_literals(f, rule) == FALSE
        assert seen == [lit(p), lit(r)]

    def test_deep_formula_in_bounded_stack(self):
        # every walker runs on a formula far deeper than the recursion
        # limit: alternating And and Or, 10,000 levels
        depth = 10_000
        assert depth > sys.getrecursionlimit()
        xi, yi, wi = mk_vars(["x", "y", "w"], Sort.INT)
        txi, tyi = LinTerm.of_var(xi), LinTerm.of_var(yi)
        f = lit(p)
        for i in range(depth):
            if i % 2:
                atom = mk_cmp(LT, tyi.sub(LinTerm.of_const(i)))  # y < i
            else:
                atom = mk_cmp(LE, txi.scale(2).sub(tyi).add(LinTerm.of_const(i)))
            f = (f_and if i % 2 else f_or)([atom, f])
        assert free_vars(f) == {xi, yi, p}
        assert not has_calls(f)
        assert map_literals(f, lambda g: g) is f
        eqs, lows, highs, period = _collect(yi, f, Sort.INT)
        assert (len(eqs), len(lows), len(highs), period) == (0, depth // 2, depth // 2, 1)
        g, mult, y2 = lia_normalize(xi, f)
        assert mult == 2 and free_vars(g) == {y2, yi, p}
        g = subst_arith(f, {xi: tyi})
        assert free_vars(g) == {yi, p} and len(list(leaves(g))) == depth + 1
        g = subst_bool(f, {p: False})  # the innermost Or drops it
        assert free_vars(g) == {xi, yi} and len(list(leaves(g))) == depth
        g = rename_vars(f, {xi: wi})
        assert free_vars(g) == {wi, yi, p} and len(list(leaves(g))) == depth + 1
        g = split_weak_bounds(xi, f)
        assert len(list(leaves(g))) == depth + 1 + depth // 2


def _int_where_integral(n) -> bool:
    """An int where integral, a Fraction where not, never a float."""
    return type(n) is int or (type(n) is Fraction and n.denominator != 1)


def _assert_term_numbers(term):
    numbers = [term.const] + [c for _, c in term.coeffs]
    assert all(_int_where_integral(n) for n in numbers), repr(term)


def _term_literals(f):
    if isinstance(f, Lit):
        return [] if isinstance(f.lit, BoolLit) else [f.lit]
    return [l for a in f.args for l in _term_literals(a)] if isinstance(f, (And, Or)) else []


def _assert_formula_numbers(f):
    for l in _term_literals(f):
        _assert_term_numbers(l.term)


class TestNumberRule:
    """Terms and everything built from them store an int where a number is
    integral and a Fraction where it is not, and evaluate, Cooper
    witnesses and model values follow the same rule."""

    @given(_terms(), _terms(), _coeff, st.dictionaries(st.sampled_from(_pool), _terms(), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_term_operations(self, t, u, k, mapping):
        # _terms builds with make from Fraction inputs, integral ones too
        for term in (t, t.add(u), t.sub(u), t.scale(k), t.scale(2), t.subst(mapping)):
            _assert_term_numbers(term)
        _assert_term_numbers(LinTerm.of_const(Fraction(4, 2)))
        _assert_term_numbers(LinTerm.of_var(x))
        assert all(_int_where_integral(t.coeff(v)) for v in _pool)  # an absent variable gives int 0
        model = {v: Fraction(i) for i, v in enumerate(_pool)}
        assert _int_where_integral(t.evaluate(model))
        assert _int_where_integral(t.evaluate({v: i for i, v in enumerate(_pool)}))
        assert type(LinTerm.of_const(3).evaluate({})) is int

    @pytest.mark.parametrize("mode", [Sort.RAT, Sort.INT])
    def test_normal_forms(self, mode):
        xs = mk_vars(["x", "y", "z"], mode)
        rng = random.Random(61)
        divs = 0
        for _ in range(150):
            f = random_nnf(rng, xs, mode, rng.randint(1, 5))
            _assert_formula_numbers(f)
            for l in _term_literals(f):
                # canonical divisibility on integral terms, kept as is on others
                d = rng.randint(2, 6)
                _assert_formula_numbers(mk_lit(DivLit(d, l.term.scale(rng.choice([1, 2, 3])))))
                divs += isinstance(l, DivLit)
            v = rng.choice(xs)
            if mode is Sort.RAT:
                for l in _term_literals(f):
                    if l.op != LE or l.term.coeff(v) == 0:  # weak bounds are split first
                        tag = normalize_for(v, l, mode)
                        if tag[0] in ("eq", "lo", "hi"):
                            _assert_term_numbers(tag[1])
                continue
            g, mult, w = lia_normalize(v, f)
            assert type(mult) is int
            _assert_formula_numbers(g)
            for l in _term_literals(g):
                tag = normalize_for(w, l, mode)
                if tag[0] in ("eq", "lo", "hi", "div"):
                    _assert_term_numbers(tag[2] if tag[0] == "div" else tag[1])
        assert mode is Sort.RAT or divs > 10

    def test_cooper_witnesses_and_models(self):
        xs = mk_vars(["x", "y", "z"], Sort.INT)
        rng = random.Random(67)
        sat = 0
        for _ in range(80):
            f = random_conjunction(rng, xs, Sort.INT, rng.randint(1, 4))
            lits = _term_literals(f)
            if not lits:
                continue
            v = rng.choice(xs)
            g, _, w = lia_normalize(v, f)
            for _, build, witness in _cooper_cases(w, g):
                _assert_formula_numbers(build())
                # the Cooper walk reads its own models with int values
                for m in ({u: Fraction(rng.randint(-4, 4)) for u in xs}, {u: 1 for u in xs}, {}):
                    assert _int_where_integral(witness(m))
            model = int_conjunction_sat(lits)
            if model is not None:
                sat += 1
                assert all(type(val) is int for val in model.values())
        assert sat > 10
