import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import equivalent, mk_vars, random_nnf, qe_all
from recmc import interpolate
from recmc.errors import InterpolationError, NotUnsat
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
    f_and,
    f_or,
    free_vars,
    mk_cmp,
    mk_lit,
    negate_nnf,
)
from recmc.interpolate import _strongest, itp
from recmc.project import project
from recmc.solver import check_sat, entails

x, y, s0, s1, a0, a1, b0 = mk_vars(["x", "y", "s0", "s1", "a0", "a1", "b0"], Sort.RAT)
tx, ty = LinTerm.of_var(x), LinTerm.of_var(y)
p, r = mk_vars(["p", "r"], Sort.BOOL)


def contract_ok(a, b, shared, mode, psi):
    return (
        free_vars(psi) <= shared
        and entails(a, psi, mode)
        and check_sat(f_and([psi, b]), mode).is_unsat
    )


class TestExamples:
    def test_projection_example(self):
        # a: x = y + 1 and 0 < y;  b: x <= 0;  shared {x}
        a = f_and(
            [mk_cmp(EQ, tx.sub(ty).sub(LinTerm.of_const(1))), mk_cmp(LT, ty.scale(-1))]
        )
        b = mk_cmp(LE, tx)
        # oracle first: the projection of a onto x is 1 < x
        proj = project([y], a, None, strategy="qe")
        assert equivalent(proj, mk_cmp(LT, LinTerm.of_const(1).sub(tx)), Sort.RAT)
        psi = itp(a, b, frozenset([x]), Sort.RAT)
        assert contract_ok(a, b, frozenset([x]), Sort.RAT, psi)

    def test_false_side(self):
        psi = itp(FALSE, mk_cmp(LT, tx), frozenset([x]), Sort.RAT)
        assert psi == FALSE

    def test_boolean_literal_projection(self):
        a = f_and([Lit(BoolLit(p)), Lit(BoolLit(r))])
        b = Lit(BoolLit(p, False))
        psi = itp(a, b, frozenset([p]), Sort.BOOL)
        assert equivalent(psi, Lit(BoolLit(p)), Sort.BOOL)

    def test_not_unsat_rejected(self):
        with pytest.raises(NotUnsat):
            itp(TRUE, TRUE, frozenset(), Sort.RAT)

    @pytest.mark.parametrize(
        "psi, problem",
        [(FALSE, "does not imply"), (TRUE, "consistent with b")],
        ids=["a-not-implied", "b-consistent"],
    )
    @pytest.mark.parametrize("mode", [Sort.BOOL, Sort.RAT])
    def test_broken_contract_raises(self, monkeypatch, mode, psi, problem):
        # a ∧ b is unsat, so a corrupted interpolant is the checker's own
        # bug, not a satisfiable query
        if mode is Sort.BOOL:
            a, b, shared = Lit(BoolLit(p)), Lit(BoolLit(p, False)), frozenset([p])
            monkeypatch.setattr(interpolate, "_strongest", lambda *args: psi)
        else:
            a, b, shared = mk_cmp(LT, tx), mk_cmp(LT, tx.scale(-1)), frozenset([x])
            monkeypatch.setattr(interpolate, "_farkas_itp", lambda *args: psi)
        with pytest.raises(InterpolationError, match=problem):
            itp(a, b, shared, mode)

    def test_idempotent_on_shared_only(self):
        a = f_and([mk_cmp(LT, tx.sub(LinTerm.of_const(2))), mk_cmp(LT, LinTerm.of_const(0).sub(tx))])
        b = mk_cmp(LT, LinTerm.of_const(5).sub(tx))
        assert equivalent(_strongest(a, frozenset([x])), a, Sort.RAT)
        psi = itp(a, b, frozenset([x]), Sort.RAT)
        assert contract_ok(a, b, frozenset([x]), Sort.RAT, psi)


def _unsat_pair(rng, mode, vars_shared, vars_a, vars_b):
    """a over shared+a-locals; b = not(project(a)) and noise over shared+b-locals."""
    a = random_nnf(rng, vars_shared + vars_a, mode, rng.randint(1, 4), divides_ok=False)
    core = negate_nnf(qe_all(vars_a, a))
    noise = random_nnf(rng, vars_shared + vars_b, mode, rng.randint(1, 2), divides_ok=False)
    b = f_and([core, noise]) if rng.random() < 0.5 else core
    return a, b


class TestContractFuzz:
    @pytest.mark.parametrize(
        "mode,shared,alocal,blocal",
        [
            (Sort.RAT, [s0, s1], [a0, a1], [b0]),
            (Sort.INT, mk_vars(["si0", "si1"], Sort.INT), mk_vars(["ai0"], Sort.INT), mk_vars(["bi0"], Sort.INT)),
            (Sort.BOOL, mk_vars(["sp0", "sp1"], Sort.BOOL), mk_vars(["ap0"], Sort.BOOL), mk_vars(["bp0"], Sort.BOOL)),
        ],
    )
    def test_strongest(self, mode, shared, alocal, blocal):
        # the Boolean method, and the per-path fallback of the arithmetic one
        rng = random.Random(43)
        done = 0
        for _ in range(120):
            a, b = _unsat_pair(rng, mode, shared, alocal, blocal)
            psi = _strongest(a, frozenset(shared))
            assert contract_ok(a, b, frozenset(shared), mode, psi)
            done += 1
        assert done == 120

    def test_farkas_rational(self):
        rng = random.Random(47)
        for _ in range(120):
            a, b = _unsat_pair(rng, Sort.RAT, [s0, s1], [a0, a1], [b0])
            psi = itp(a, b, frozenset([s0, s1]), Sort.RAT)
            assert contract_ok(a, b, frozenset([s0, s1]), Sort.RAT, psi)


def _integral(psi):
    """Every comparison of psi has integral coefficients and constant."""
    if isinstance(psi, (And, Or)):
        return all(_integral(g) for g in psi.args)
    if isinstance(psi, Lit) and isinstance(psi.lit, Cmp):
        return psi.lit.term.is_integral()
    return True


si0, si1, ai0, ai1, bi0 = mk_vars(["s0", "s1", "a0", "a1", "b0"], Sort.INT)


class TestFarkasInteger:
    def test_fractional_combination_is_scaled(self):
        # Farkas combines the a-path (2*s1 - 3 < 0, a1 + 2*s1 - 3 < 0) into
        # s1 - 3/2 < 0; unscaled, the contract re-check fed that
        # non-integral literal to the integer solver and crashed.
        def t(coeffs, const):
            return LinTerm.make(coeffs, const)

        a = f_or([
            f_and([mk_cmp(EQ, t({ai1: 2, si1: 1}, -1)), mk_cmp(LE, t({si1: -1}, 0))]),
            f_and([mk_cmp(LT, t({si1: 2}, -3)), mk_cmp(LT, t({ai1: 1, si1: 2}, -3))]),
        ])
        b = f_and([
            f_or([
                f_and([
                    mk_cmp(LT, t({si1: 1}, 0)),
                    f_or([mk_cmp(LE, t({si1: -2}, 3)), mk_cmp(LE, t({si1: -3}, 5))]),
                ]),
                mk_lit(DivLit(2, t({si1: 1}, 1), False)),
            ]),
            mk_cmp(LE, t({si1: -2}, 3)),
        ])
        shared = frozenset([si0, si1])
        psi = itp(a, b, shared, Sort.INT)
        assert _integral(psi)
        assert contract_ok(a, b, shared, Sort.INT, psi)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_contract_on_random_pairs(self, seed):
        a, b = _unsat_pair(random.Random(seed), Sort.INT, [si0, si1], [ai0, ai1], [bi0])
        shared = frozenset([si0, si1])
        psi = itp(a, b, shared, Sort.INT)
        assert _integral(psi)
        assert contract_ok(a, b, shared, Sort.INT, psi)
