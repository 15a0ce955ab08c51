"""Golden outputs: verdicts, proofs, counterexamples and MBP images of a
fixed corpus, pinned byte for byte.

Each line of golden/outputs.txt is one case: label, status, bound (for
an image, the number of disjuncts) and the SHA-256 of the rendered
output.  A proof renders as its environment in procedure order; a
counterexample as its unfolded tree with every node's values sorted by
Var.key(); an image as its (model, disjunct) pairs with each model
sorted by Var.key().  None of these depend on PYTHONHASHSEED.

Each line of golden/traces.txt pins how a program case was checked:
label, status, number of rule steps, the SHA-256 of its rule trace (one
TraceEvent.line() per step) and the SHA-256 of its stats without
wall_ms.  A refactor of the engine or driver keeps this file
byte-identical; one that only asks fewer solver queries moves the stats
digests alone.

A change meant to alter outputs or traces regenerates the files with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/outputs.txt
    PYTHONPATH=src python tests/test_golden.py traces > tests/golden/traces.txt

and says in its description why they moved.
"""

import functools
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from helpers import DATA, checked_check, mk_vars, random_nnf
from recmc.driver import check
from recmc.formula import Sort, f_and, free_vars, negate_nnf
from recmc.generators import (
    gen_bebop,
    gen_gpdr_divergence,
    overview,
    overview_bad,
    random_arith_program,
    random_bool_program,
)
from recmc.parser import parse
from recmc.project import project
from recmc.solver import check_sat, total_model

GOLDEN = Path(__file__).parent / "golden" / "outputs.txt"
TRACES = Path(__file__).parent / "golden" / "traces.txt"

BOOL_MAX_BOUND = 32
ARITH_MAX_BOUND = 8
IMAGE_LIMIT = 400


def _program_cases():
    yield "overview", overview(), ARITH_MAX_BOUND
    yield "overview_bad", overview_bad(), ARITH_MAX_BOUND
    yield "gpdr_divergence", gen_gpdr_divergence(), ARITH_MAX_BOUND
    rng = random.Random(500)
    for i in range(60):
        yield f"bool-500-{i}", random_bool_program(rng), BOOL_MAX_BOUND
    for n in range(3, 7):
        yield f"bebop-{n}-safe", gen_bebop(n, True), 2 * n + 4
        yield f"bebop-{n}-unsafe", gen_bebop(n, False), 2 * n + 4
    for mode, seed in (("rat", 800), ("int", 801)):
        rng = random.Random(seed)
        for i in range(30):
            yield f"{mode}-{seed}-{i}", random_arith_program(rng, mode), ARITH_MAX_BOUND


@functools.cache
def _program_verdicts():
    """(label, verdict) for every program case, checked once per session."""
    return [
        (label, check(unit.program, unit.phi_safe, max_bound))
        for label, unit, max_bound in _program_cases()
    ]


def _image_cases():
    for mode, seed, divides_ok in (
        (Sort.RAT, 900, False),
        (Sort.INT, 901, False),
        (Sort.INT, 902, True),
    ):
        vars_ = mk_vars(["x", "y", "z"], mode)
        rng = random.Random(seed)
        made = 0
        while made < 34:
            f = random_nnf(rng, vars_, mode, rng.randint(1, 6), divides_ok)
            if vars_[0] in free_vars(f):
                yield f"image-{mode.value}-{seed}-{made}", f, vars_[0], mode
                made += 1


def _sorted_values(values) -> str:
    # a value is an int where integral; repr shows it as the Fraction the
    # files were first written with
    items = sorted(values.items(), key=lambda it: it[0].key())
    return repr([(v, val if isinstance(val, bool) else Fraction(val)) for v, val in items])


def _render_cex(node, out) -> None:
    out.append(f"({node.proc} {node.path_index} {_sorted_values(node.values)}")
    for child in node.children:
        _render_cex(child, out)
    out.append(")")


def _program_line(label, verdict) -> str:
    if verdict.status == "SAFE":
        text = repr(verdict.proof.env)
    elif verdict.status == "UNSAFE":
        parts = []
        _render_cex(verdict.cex.root, parts)
        text = "".join(parts)
    else:
        text = verdict.reason
    return _line(label, verdict.status, verdict.bound, text)


def _image_line(label, f, x, mode) -> str:
    vars_ = free_vars(f)
    pairs = []
    cur = f
    for _ in range(IMAGE_LIMIT):
        res = check_sat(cur, mode)
        if not res.is_sat:
            break
        model = total_model(res.model, vars_)
        d = project([x], f, model, strategy="mbp")
        pairs.append(f"{_sorted_values(model)} {d!r}")
        cur = f_and([cur, negate_nnf(d)])
    status = res.status.upper() if not res.is_unsat else "IMAGE"
    return _line(label, status, len(pairs), "\n".join(pairs))


def _trace_line(label, verdict) -> str:
    stats = sorted((k, v) for k, v in verdict.stats.items() if k != "wall_ms")
    text = "\n".join(e.line() for e in verdict.trace)
    return f"{_line(label, verdict.status, len(verdict.trace), text)} {_digest(repr(stats))}"


def _line(label, status, bound, text) -> str:
    return f"{label} {status} {bound} {_digest(text)}"


def _digest(text) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_lines():
    for case in _program_verdicts():
        yield _program_line(*case)
    for case in _image_cases():
        yield _image_line(*case)


def trace_lines():
    for case in _program_verdicts():
        yield _trace_line(*case)


def _assert_lines_match(path, got):
    expected = path.read_text().splitlines()
    for want, have in zip(expected, got):
        assert have == want, f"first differing case: {want.split()[0]}\n  want {want}\n  got  {have}"
    assert len(got) == len(expected), f"{len(got)} cases, golden file has {len(expected)}"


def test_outputs_match_golden():
    _assert_lines_match(GOLDEN, list(golden_lines()))


def test_traces_match_golden():
    _assert_lines_match(TRACES, list(trace_lines()))


def test_checked_engine_agrees_with_plain():
    """helpers.checked_check, whose engine checks the rules' invariants
    and the stack's shape after every step, gives plain check's verdicts
    and rule traces."""
    plain = dict(_program_verdicts())
    source = (DATA / "reach_answers_parent.rpl").read_text()
    extra = ("reach_answers_parent", parse(source), ARITH_MAX_BOUND)
    for label, unit, max_bound in [*_program_cases(), extra]:
        want = plain.get(label) or check(unit.program, unit.phi_safe, max_bound)
        got = checked_check(unit.program, unit.phi_safe, max_bound)
        assert _program_line(label, got) == _program_line(label, want)
        assert [e.line() for e in got.trace] == [e.line() for e in want.trace], label


if __name__ == "__main__":
    for line in trace_lines() if sys.argv[1:] == ["traces"] else golden_lines():
        print(line)
