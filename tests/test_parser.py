import random
from fractions import Fraction

import pytest

from helpers import mk_vars
from recmc.errors import RplSyntaxError, ValidationError
from recmc.formula import EQ, LE, LT, Cmp, DivLit, LinTerm, Lit, Sort, mk_lit
from recmc.generators import (
    gen_bebop,
    gen_gpdr_divergence,
    overview,
    random_arith_program,
    random_bool_program,
)
from recmc.parser import parse, print_formula, print_program


class TestParse:
    def test_overview_shape(self):
        unit = overview()
        assert list(unit.program.procedures) == ["M", "T", "D"]
        assert len(unit.program.proc("M").paths) == 1
        assert len(unit.program.proc("T").paths) == 2
        assert unit.mode is Sort.RAT

    def test_empty_main_body_is_fine(self):
        unit = parse(
            "(program (mode bool) (procedure P (in i) (out o) (body true))"
            " (main P) (assert-safe true))"
        )
        assert unit.program.proc("P").paths

    def test_negated_call_rejected(self):
        with pytest.raises(ValidationError):
            parse(
                """
                (program (mode rat)
                  (procedure D (in a) (out b) (body (= b a)))
                  (procedure P (in i) (out o) (body (not (call D i o))))
                  (main P) (assert-safe true))
                """
            )

    def test_syntax_error_carries_position(self):
        with pytest.raises(RplSyntaxError) as err:
            parse("(program\n  (mode rat)\n  (procedure P (in i) (out o) (body (< i o)))\n  (main P)\n  (assert-safe (< o undeclared)))")
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "form, procedure, tail",
        [
            ("main", "(in a) (out o) (body (and o a))", "(main P) @(main P) (assert-safe true)"),
            ("assert-safe", "(in a) (out o) (body (and o a))",
             "(main P) (assert-safe true) @(assert-safe false)"),
            ("in", "(in a) @(in b) (out o) (body (and o a))", "(main P) (assert-safe true)"),
            ("out", "(in a) (out o) @(out p) (body (and o a))", "(main P) (assert-safe true)"),
            ("local", "(in a) (out o) (local t) @(local u) (body (and o a))",
             "(main P) (assert-safe true)"),
            ("body", "(in a) (out o) (body (and o a)) @(body (and o (not o)))",
             "(main P) (assert-safe true)"),
        ],
    )
    def test_repeated_form_rejected_at_second(self, form, procedure, tail):
        text = f"(program (mode bool)\n  (procedure P {procedure})\n  {tail})"
        at = text.index("@")
        line = text.count("\n", 0, at) + 1
        col = at - text.rfind("\n", 0, at)
        with pytest.raises(RplSyntaxError) as err:
            parse(text.replace("@", ""))
        assert (err.value.line, err.value.col) == (line, col)
        where = "" if form in ("main", "assert-safe") else " in procedure P"
        assert err.value.message == f"duplicate ({form} ...){where}"

    @pytest.mark.parametrize(
        "body, safe",
        [
            ("(and o @(<= a o))", "true"),
            ("(not @(= a 1))", "true"),
            ("(or o (and a @(> o b)))", "true"),
            ("(and o a)", "(not @(< o 2))"),
        ],
    )
    def test_comparison_in_boolean_program_rejected_at_its_position(self, body, safe):
        # rejected before either side is read, so a term never holds a
        # Boolean variable
        text = (f"(program (mode bool)\n  (procedure P (in a b) (out o) (body {body}))\n"
                f"  (main P) (assert-safe {safe}))")
        at = text.index("@")
        line = text.count("\n", 0, at) + 1
        col = at - text.rfind("\n", 0, at)
        with pytest.raises(RplSyntaxError) as err:
            parse(text.replace("@", ""))
        assert (err.value.line, err.value.col) == (line, col)
        assert err.value.message == "comparison in a boolean program"

    @pytest.mark.parametrize("token", ["²", "1/²", "٣"])
    def test_non_ascii_numeral_rejected_at_its_position(self, token):
        # str.isdigit accepts each; a numeral has ASCII digits only
        line = f"  (procedure P (in x) (out o) (body (= o (+ x {token}))))"
        with pytest.raises(RplSyntaxError) as err:
            parse(f"(program (mode rat)\n{line}\n  (main P) (assert-safe true))")
        assert (err.value.line, err.value.col) == (2, line.index(token) + 1)
        assert err.value.message == f"unknown variable '{token}'"

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            # \r counts as a column, \n alone ends a line
            ("(program (mode rat)\r\n  (procedure P (in x) (out y)\r\n    (body (< x zz)))\r\n"
             "  (main P) (assert-safe true))", 3, 16, "unknown variable 'zz'"),
            # a tab counts as one column
            ("(program (mode rat)\n\t(procedure P (in x) (out y)\n\t\t(body\t(<\tx\tzz)))\n"
             "\t(main P) (assert-safe true))", 3, 14, "unknown variable 'zz'"),
            # the token right after a comment
            ("(program (mode rat) ; a comment\n  (procedure P (in x) (out y) ; (body\n"
             "    (body (< x y)))\n  ;; (main P)\n   zz (main P) (assert-safe true))",
             5, 4, "unexpected form ''"),
            # parentheses in comments are not read
            ("(program (mode rat)\n  (procedure P (in x) (out y) (body (< x zz))) ; ) ((\n"
             "  (main P) (assert-safe true))", 2, 42, "unknown variable 'zz'"),
            ("(program (mode rat) ; (((\n  (procedure P (in x) (out y) (body (< x y)))\n"
             "  (main P) (assert-safe true)) ; )\n)", 4, 1, "unmatched ')'"),
        ],
        ids=["crlf", "tabs", "after-comment", "comment-parens", "comment-unbalanced"],
    )
    def test_error_position(self, text, line, col, message):
        with pytest.raises(RplSyntaxError) as err:
            parse(text)
        assert (err.value.line, err.value.col, err.value.message) == (line, col, message)

    def test_unclosed_paren(self):
        with pytest.raises(RplSyntaxError):
            parse("(program (mode bool)")

    def test_unknown_mode(self):
        with pytest.raises(RplSyntaxError):
            parse("(program (mode octal) (main P) (assert-safe true))")

    def test_integer_mode_rejects_fractions(self):
        with pytest.raises(RplSyntaxError):
            parse(
                "(program (mode int) (procedure P (in i) (out o) (body (= o (* 1/2 i))))"
                " (main P) (assert-safe true))"
            )

    def test_arity_checked(self):
        with pytest.raises(ValidationError):
            parse(
                """
                (program (mode rat)
                  (procedure D (in a) (out b) (body (= b a)))
                  (procedure P (in i) (out o) (body (call D i)))
                  (main P) (assert-safe true))
                """
            )

    def test_property_over_formals_only(self):
        with pytest.raises(ValidationError):
            parse(
                """
                (program (mode rat)
                  (procedure P (in i) (out o) (local t) (body (= o i)))
                  (main P) (assert-safe (< t o)))
                """
            )

    def test_duplicate_call_arguments_allowed(self):
        unit = parse(
            """
            (program (mode int)
              (procedure Q (in a b) (out c) (body (= c (+ a b))))
              (procedure P (in i) (out o) (body (call Q i i o)))
              (main P) (assert-safe (<= i o)))
            """
        )
        (path,) = unit.program.proc("P").paths
        assert path.calls[0].args[0] == path.calls[0].args[1]


class TestRoundTrip:
    def _assert_round_trip(self, unit):
        text = print_program(unit.program, unit.phi_safe)
        again = parse(text)
        assert again.program.procedures == unit.program.procedures
        assert again.program.main == unit.program.main
        assert again.phi_safe == unit.phi_safe
        assert print_program(again.program, again.phi_safe) == text

    def test_builtins(self):
        for unit in (overview(), gen_gpdr_divergence(), gen_bebop(3), gen_bebop(1, safe=False)):
            self._assert_round_trip(unit)

    def test_random_programs(self):
        rng = random.Random(9)
        for _ in range(30):
            self._assert_round_trip(random_bool_program(rng))
            self._assert_round_trip(random_arith_program(rng, "rat"))
            self._assert_round_trip(random_arith_program(rng, "int"))


class TestPrintFormula:
    """Exact text: the negative summands of a term move to the right of
    a comparison, and behind a minus inside a divisibility literal."""

    def test_divides_with_negative_parts(self):
        x, y, z = mk_vars(["x", "y", "z"], Sort.INT)
        term = (
            LinTerm.of_var(x)
            .add(LinTerm.of_var(y).scale(-3))
            .add(LinTerm.of_var(z).scale(-1))
            .add(LinTerm.of_const(-5))
        )
        assert print_formula(Lit(DivLit(4, term))) == "(divides 4 (- x (+ (* 3 y) z 5)))"
        assert print_formula(Lit(DivLit(4, term, False))) == (
            "(not (divides 4 (- x (+ (* 3 y) z 5))))"
        )
        only_neg = LinTerm.of_var(x).scale(-2).add(LinTerm.of_const(-7))
        assert print_formula(Lit(DivLit(6, only_neg))) == "(divides 6 (- 0 (+ (* 2 x) 7)))"
        neg_const = LinTerm.of_var(x).scale(2).add(LinTerm.of_const(-1))
        assert print_formula(Lit(DivLit(3, neg_const))) == "(divides 3 (- (* 2 x) 1))"
        # the canonical form keeps a negative coefficient after the first
        assert print_formula(mk_lit(DivLit(4, term))) == "(divides 4 (- (+ x y 3) z))"
        assert print_formula(mk_lit(DivLit(4, term, False))) == (
            "(not (divides 4 (- (+ x y 3) z)))"
        )

    def test_comparison_with_summands_on_both_sides(self):
        a, b, c = mk_vars(["a", "b", "c"], Sort.RAT)
        term = (
            LinTerm.of_var(a)
            .add(LinTerm.of_var(b).scale(-2))
            .add(LinTerm.of_var(c).scale(Fraction(1, 2)))
            .add(LinTerm.of_const(-3))
        )
        assert print_formula(Lit(Cmp(LE, term))) == "(<= (+ a (* 1/2 c)) (+ (* 2 b) 3))"
        assert print_formula(Lit(Cmp(LT, term.scale(-1)))) == (
            "(< (+ (* 2 b) 3) (+ a (* 1/2 c)))"
        )
        assert print_formula(Lit(Cmp(EQ, term))) == "(= (+ a (* 1/2 c)) (+ (* 2 b) 3))"


class TestGenerators:
    def test_bebop_counts(self):
        assert len(gen_bebop(1).program.procedures) == 2
        assert len(gen_bebop(5).program.procedures) == 6

    def test_gpdr_shape(self):
        unit = gen_gpdr_divergence()
        assert list(unit.program.procedures) == ["M", "L", "G"]
        assert unit.mode is Sort.INT
