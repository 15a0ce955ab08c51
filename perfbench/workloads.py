"""Seeded corpora and the operation each workload times.

Every workload is a list of cases built from the seed alone; one round
runs every case once, in order.  An operation on the program workloads is
one ``check(program, phi_safe, max_bound)`` call; on ``mbp-images`` it is
the enumeration of the full model-based projection image of one variable.

The functions of the program under test are imported by name, so that the
tracer can replace them in this module's namespace as at any other import
site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import checks
from recmc.driver import check
from recmc.formula import (
    EQ,
    LE,
    LT,
    DivLit,
    Formula,
    LinTerm,
    Role,
    Sort,
    Var,
    f_and,
    f_or,
    formula_size,
    free_vars,
    mk_cmp,
    mk_lit,
    negate_nnf,
)
from recmc.generators import (
    gen_bebop,
    gen_gpdr_divergence,
    overview,
    overview_bad,
    random_arith_program,
    random_bool_program,
)
from recmc.parser import SourceUnit
from recmc.project import project
from recmc.solver import check_sat, default_value

# Operation times on these generators are heavy-tailed: one default-size
# random program in several hundred takes seconds (multi-procedure Boolean
# programs, integer programs, integer images with divisibility literals),
# so a seed that draws one would set the round's time by itself.  The
# seeded parts therefore use the light-tailed shapes (single-procedure
# Boolean programs, integer images without divisibility), and the heavy-
# tailed shapes come from fixed seeds, so that every run pays the same
# tail.  The seeded Boolean part is kept small: a few seeded programs have
# proofs of 100 to 200 nodes against a median of 1, which would move
# output_nodes from seed to seed.  The seeded image part is a sixth of the
# round for the same reason: with 1000 of 1200 images seeded, the seeds
# that drew smaller images also had a tenth lower latencies.
#
# An UNKNOWN verdict counts as a failed operation, and the failed share
# must be the same for every seed.  Drawn arithmetic programs come back
# UNKNOWN on some seeds and not on others (the 72nd one-procedure rational
# program drawn from Random("305-rat") never gets inductive summaries), so
# arith-programs draws nothing from the seed: its corpus is fixed, and the
# seed only orders the round.

# Stack bounds handed to check().  32 is the bound of the Boolean
# differential acceptance test.
BOOL_MAX_BOUND = 32
ARITH_MAX_BOUND = 8
# gpdr_divergence returns UNKNOWN at every bound and its cost grows fast
# with the bound (0.08 s at 2, 0.8 s at 4, 25 s at 8); at 4 its
# inductiveness checks show in the trace without filling the round.
GPDR_MAX_BOUND = 4

SEEDED_BOOL = 150
FIXED_BOOL = (500, 400)  # generator seed and count; the acceptance corpus is the first 200
BEBOP_SAFE = (4, 8, 12)
BEBOP_UNSAFE = (4, 7, 11)
FIXED_ARITH = {"rat": (800, 150), "int": (801, 150)}  # the acceptance corpora are the first 100
SEEDED_IMAGES = {"rat": 100, "int": 100}
FIXED_IMAGES = {"rat": (104, 400), "int": (105, 400)}  # without divisibility literals
FIXED_INT_IMAGES = (103, 200)  # with them
# Criterion 03's enumeration limit; no image in the corpora comes near it.
IMAGE_LIMIT = 400


class ImageIncomplete(Exception):
    """Image enumeration stopped before the image was complete."""


@dataclass
class ProgramCase:
    label: str
    unit: SourceUnit
    max_bound: int
    expected: Optional[str] = None  # documented answer of a shipped program


@dataclass
class ImageCase:
    label: str
    formula: Formula
    var: Var  # the eliminated variable
    keep: tuple  # the other variables
    mode: Sort


# --------------------------------------------------------------------------
# Program corpora.
# --------------------------------------------------------------------------


def bool_corpus(seed: int) -> List[ProgramCase]:
    rng = random.Random(seed)
    cases = [
        ProgramCase(f"seeded-{i}", random_bool_program(rng, max_procs=1), BOOL_MAX_BOUND)
        for i in range(SEEDED_BOOL)
    ]
    fixed_seed, count = FIXED_BOOL
    rng = random.Random(fixed_seed)
    cases += [
        ProgramCase(f"fixed-{i}", random_bool_program(rng), BOOL_MAX_BOUND) for i in range(count)
    ]
    for n in BEBOP_SAFE:
        cases.append(ProgramCase(f"bebop-{n}-safe", gen_bebop(n, True), 2 * n + 4, "SAFE"))
    for n in BEBOP_UNSAFE:
        cases.append(ProgramCase(f"bebop-{n}-unsafe", gen_bebop(n, False), 2 * n + 4, "UNSAFE"))
    return cases


def arith_corpus(seed: int) -> List[ProgramCase]:
    cases = []
    for mode, (fixed_seed, count) in FIXED_ARITH.items():
        rng = random.Random(fixed_seed)
        cases += [
            ProgramCase(f"fixed-{mode}-{i}", random_arith_program(rng, mode), ARITH_MAX_BOUND)
            for i in range(count)
        ]
    cases.append(ProgramCase("overview", overview(), ARITH_MAX_BOUND, "SAFE"))
    cases.append(ProgramCase("overview_bad", overview_bad(), ARITH_MAX_BOUND, "UNSAFE"))
    cases.append(ProgramCase("gpdr_divergence", gen_gpdr_divergence(), GPDR_MAX_BOUND, "SAFE"))
    random.Random(seed).shuffle(cases)
    return cases


def run_check(case: ProgramCase):
    return check(case.unit.program, case.unit.phi_safe, case.max_bound)


# --------------------------------------------------------------------------
# MBP image corpus.
# --------------------------------------------------------------------------


def _term(rng: random.Random, vars_, integral: bool) -> LinTerm:
    picked = rng.sample(vars_, rng.randint(1, 2))
    const = Fraction(rng.randint(-3, 3))
    if not integral and rng.random() < 0.25:
        const += Fraction(1, 2)
    return LinTerm.make({v: Fraction(rng.choice([-2, -1, 1, 2])) for v in picked}, const)


def _atom(rng: random.Random, vars_, mode: Sort, divisibility: bool) -> Formula:
    if divisibility and rng.random() < 0.2:
        return mk_lit(DivLit(rng.choice([2, 3]), _term(rng, vars_, True)))
    return mk_cmp(rng.choice([LT, LT, LE, EQ]), _term(rng, vars_, mode is Sort.INT))


def random_formula(rng: random.Random, vars_, mode: Sort, divisibility: bool) -> Formula:
    """A random and/or tree over 1 to 6 linear atoms."""
    parts = [_atom(rng, vars_, mode, divisibility) for _ in range(rng.randint(1, 6))]
    while len(parts) > 1:
        k = rng.randint(2, min(3, len(parts)))
        group, parts = parts[:k], parts[k:]
        parts.append(f_and(group) if rng.random() < 0.6 else f_or(group))
    return parts[0]


def _images(rng, mode: Sort, count: int, divisibility: bool, prefix: str) -> List[ImageCase]:
    x, y, z = (Var(n, mode, Role.AUX) for n in ("x", "y", "z"))
    cases = []
    while len(cases) < count:
        f = random_formula(rng, [x, y, z], mode, divisibility)
        if x in free_vars(f):
            cases.append(ImageCase(f"{prefix}-{mode.value}-{len(cases)}", f, x, (y, z), mode))
    return cases


def image_corpus(seed: int) -> List[ImageCase]:
    """LRA and LIA formulas without divisibility literals, seeded and
    fixed, and a fixed set of LIA formulas with them."""
    cases = []
    for mode in (Sort.RAT, Sort.INT):
        rng = random.Random(f"{seed}-{mode.value}")
        cases += _images(rng, mode, SEEDED_IMAGES[mode.value], False, "seeded")
        fixed_seed, count = FIXED_IMAGES[mode.value]
        cases += _images(random.Random(fixed_seed), mode, count, False, "fixed")
    fixed_seed, count = FIXED_INT_IMAGES
    cases += _images(random.Random(fixed_seed), Sort.INT, count, True, "fixed-div")
    return cases


def enumerate_image(case: ImageCase):
    """All disjuncts of the MBP image of case.var, with the model each
    was projected from: solve, project, block the disjunct, repeat."""
    f, mode = case.formula, case.mode
    vars_ = free_vars(f)
    out = []
    cur = f
    for _ in range(IMAGE_LIMIT):
        res = check_sat(cur, mode)
        if res.is_unsat:
            return out
        if res.is_unknown:
            raise ImageIncomplete(f"solver gave up: {res.reason}")
        missing = {v: default_value(v.sort) for v in vars_ if v not in res.model}
        model = res.model.extended(missing) if missing else res.model
        d = project([case.var], f, model, strategy="mbp")
        out.append((model, d))
        cur = f_and([cur, negate_nnf(d)])
    raise ImageIncomplete(f"more than {IMAGE_LIMIT} disjuncts")


# --------------------------------------------------------------------------
# What the benchmark needs of each workload.
# --------------------------------------------------------------------------


class ProgramWorkload:
    def __init__(self, build):
        self.build = build

    run = staticmethod(run_check)

    @staticmethod
    def failed(case, verdict) -> bool:
        """UNKNOWN is a failed operation: check() proved nothing."""
        return verdict.status == "UNKNOWN"

    @staticmethod
    def settle(verdict, counts=None):
        """Add the verdict's per-layer figures to counts, when given, and
        drop what no check reads, so that a run keeps one round of
        outputs and not every round's summaries."""
        if counts is not None:
            counts.add(verdict)
        verdict.rho = verdict.sigma = None
        verdict.trace = []
        return verdict

    @staticmethod
    def fingerprint(verdict):
        return (
            verdict.status,
            verdict.reason,
            verdict.bound,
            verdict.proof.env if verdict.proof else None,
            verdict.cex.root if verdict.cex else None,
        )

    @staticmethod
    def check(case, verdict) -> None:
        oracle = None
        if case.unit.mode is Sort.BOOL:
            oracle = checks.bool_oracle(case.unit.program, case.unit.phi_safe)
        checks.check_verdict(case, verdict, oracle)

    @staticmethod
    def output_nodes(verdict) -> int:
        if verdict.status != "SAFE":
            return 0
        return sum(formula_size(f) for f in verdict.proof.env.values())


class ImageWorkload:
    build = staticmethod(image_corpus)
    run = staticmethod(enumerate_image)
    check = staticmethod(checks.check_image)

    @staticmethod
    def failed(case, image) -> bool:
        return False

    @staticmethod
    def settle(image, counts=None):
        return image

    @staticmethod
    def fingerprint(image):
        return [(dict(m.items()), d) for m, d in image]

    @staticmethod
    def output_nodes(image) -> int:
        return sum(formula_size(d) for _, d in image)


WORKLOADS = {
    "bool-programs": ProgramWorkload(bool_corpus),
    "arith-programs": ProgramWorkload(arith_corpus),
    "mbp-images": ImageWorkload(),
}
