import random

import pytest

from helpers import checked_check, fact_valuations
from recmc.driver import check, validate_cex, validate_proof
from recmc.generators import (
    gen_bebop,
    gen_gpdr_divergence,
    random_arith_program,
    random_bool_program,
)
from recmc.program import bool_unbounded_semantics


def _oracle_verdict(unit):
    """Explicit fixed-point semantics: safe iff every reachable valuation
    of main's formals satisfies the property."""
    semantics = bool_unbounded_semantics(unit.program)[unit.program.main]
    formals = unit.program.proc(unit.program.main).formals
    good = fact_valuations(unit.phi_safe, formals)
    return "SAFE" if semantics <= good else "UNSAFE"


class TestBebop:
    def test_safe_variant_verified(self):
        unit = gen_bebop(3)
        assert _oracle_verdict(unit) == "SAFE"
        verdict = checked_check(unit.program, unit.phi_safe, max_bound=16)
        assert verdict.status == "SAFE"
        assert validate_proof(unit.program, verdict.proof, unit.phi_safe)

    def test_unsafe_variant_refuted(self):
        unit = gen_bebop(3, safe=False)
        assert _oracle_verdict(unit) == "UNSAFE"
        verdict = checked_check(unit.program, unit.phi_safe, max_bound=16)
        assert verdict.status == "UNSAFE"
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)


class TestGpdrRegression:
    @staticmethod
    def _check_safe(max_bound):
        # Farkas summaries (y0 + 1 <= y, y <= x, x0 + 1 <= x1) close
        # inductively; point-wise summaries never would
        unit = gen_gpdr_divergence()
        verdict = check(unit.program, unit.phi_safe, max_bound=max_bound)
        assert verdict.status == "SAFE"
        assert validate_proof(unit.program, verdict.proof, unit.phi_safe)
        assert verdict.stats["steps"] < 50_000

    def test_terminates_safe_at_two(self):
        self._check_safe(2)

    def test_safe_at_one(self):
        self._check_safe(1)

    def test_trivial_property_safe(self):
        unit = gen_gpdr_divergence()
        from recmc.formula import TRUE

        verdict = check(unit.program, TRUE, max_bound=2)
        assert verdict.status == "SAFE"


class TestRandomGenerators:
    def test_bool_programs_parse_and_run(self):
        rng = random.Random(123)
        for _ in range(15):
            unit = random_bool_program(rng)
            verdict = checked_check(unit.program, unit.phi_safe, max_bound=3)
            assert verdict.status in ("SAFE", "UNSAFE", "UNKNOWN")

    @pytest.mark.parametrize("mode", ["rat", "int"])
    def test_arith_programs_parse(self, mode):
        rng = random.Random(321)
        for _ in range(20):
            unit = random_arith_program(rng, mode)
            assert unit.program.procedures
