"""Tests of the benchmark itself: each output check rejects a planted
wrong output, corpora and outputs repeat for a seed, the tracer records
and removes its spans, and the command refuses to run without sources.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from recmc.driver import CounterexampleTree, SafetyProof  # noqa: E402
from recmc.formula import (  # noqa: E402
    LT,
    TRUE,
    And,
    LinTerm,
    Or,
    Role,
    Sort,
    Var,
    f_and,
    f_or,
    mk_cmp,
)
from recmc.generators import gen_bebop, overview, random_bool_program  # noqa: E402


def drop_conjunct(f):
    """f with the first conjunct of its first conjunction removed; a
    lone literal is dropped altogether."""
    if isinstance(f, And):
        return f_and(f.args[1:])
    if isinstance(f, Or):
        for i, a in enumerate(f.args):
            if isinstance(a, And):
                return f_or(f.args[:i] + (drop_conjunct(a),) + f.args[i + 1 :])
    return TRUE


def solved(unit, max_bound=8, expected=None):
    case = wl.ProgramCase("t", unit, max_bound, expected)
    return case, wl.run_check(case)


def bool_case(status):
    """A random Boolean program whose verdict has the given status."""
    rng = random.Random(500)
    while True:
        case, verdict = solved(random_bool_program(rng), 32)
        if verdict.status == status:
            return case, verdict


# --------------------------------------------------------------------------
# Program checks.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("status", ["SAFE", "UNSAFE"])
def test_flipped_bool_verdict_is_rejected(status):
    case, verdict = bool_case(status)
    oracle = checks.bool_oracle(case.unit.program, case.unit.phi_safe)
    checks.check_verdict(case, verdict, oracle)
    flipped = replace(verdict, status="UNSAFE" if status == "SAFE" else "SAFE")
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(case, flipped, oracle)


def test_unknown_bool_verdict_is_rejected():
    case, verdict = bool_case("SAFE")
    oracle = checks.bool_oracle(case.unit.program, case.unit.phi_safe)
    unknown = replace(verdict, status="UNKNOWN", reason="bound exhausted", proof=None)
    assert wl.ProgramWorkload.failed(case, unknown)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(case, unknown, oracle)


def test_unknown_arith_verdict_counts_as_failed():
    case, verdict = solved(overview(), expected="SAFE")
    assert not wl.ProgramWorkload.failed(case, verdict)
    assert wl.ProgramWorkload.failed(case, replace(verdict, status="UNKNOWN", proof=None))


def test_flipped_shipped_verdict_is_rejected():
    case, verdict = solved(overview(), expected="SAFE")
    checks.check_verdict(case, verdict)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(case, replace(verdict, status="UNSAFE"))


@pytest.mark.parametrize("unit", [gen_bebop(3), overview()], ids=["bool", "rat"])
def test_proof_with_a_conjunct_dropped_is_rejected(unit):
    case, verdict = solved(unit)
    assert verdict.status == "SAFE"
    checks.check_verdict(case, verdict)
    rejected = 0
    for name, f in verdict.proof.env.items():
        env = dict(verdict.proof.env)
        env[name] = drop_conjunct(f)
        try:
            checks.check_verdict(case, replace(verdict, proof=SafetyProof(env, verdict.proof.bound)))
        except checks.CheckFailed:
            rejected += 1
    assert rejected == len(verdict.proof.env)


def test_counterexample_with_a_wrong_value_is_rejected():
    case, verdict = solved(gen_bebop(3, safe=False))
    assert verdict.status == "UNSAFE"
    checks.check_verdict(case, verdict)
    root = verdict.cex.root
    leaf = root
    while leaf.children:
        leaf = leaf.children[0]
    out = next(v for v in leaf.values if v.name == "x")
    leaf.values[out] = not leaf.values[out]
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(case, replace(verdict, cex=CounterexampleTree(root, verdict.cex.bound)))


# --------------------------------------------------------------------------
# Image checks.
# --------------------------------------------------------------------------


def image_case(mode=Sort.RAT):
    """z < x < y and 0 < y + x: its projection has two literals."""
    x, y, z = (Var(n, mode, Role.AUX) for n in ("x", "y", "z"))
    tx, ty, tz = (LinTerm.of_var(v) for v in (x, y, z))
    f = f_and([mk_cmp(LT, tz.sub(tx)), mk_cmp(LT, tx.sub(ty)), mk_cmp(LT, ty.add(tx).scale(-1))])
    return wl.ImageCase("t", f, x, (y, z), mode)


@pytest.mark.parametrize("mode", [Sort.RAT, Sort.INT])
def test_image_checks_accept_the_real_image(mode):
    case = image_case(mode)
    checks.check_image(case, wl.enumerate_image(case))


def test_projection_with_a_literal_removed_is_rejected():
    case = image_case()
    image = wl.enumerate_image(case)
    model, d = next((m, d) for m, d in image if isinstance(d, And))
    planted = [(m, drop_conjunct(g) if g is d else g) for m, g in image]
    with pytest.raises(checks.CheckFailed, match="disagree"):
        checks.check_image(case, planted)


def test_projection_keeping_the_variable_is_rejected():
    case = image_case()
    image = wl.enumerate_image(case)
    model, d = image[0]
    with pytest.raises(checks.CheckFailed, match="keeps"):
        checks.check_image(case, [(model, f_and([d, case.formula]))] + image[1:])


def test_projection_its_model_violates_is_rejected():
    case = image_case()
    model, d = wl.enumerate_image(case)[0]
    far = model.extended({case.keep[0]: Fraction(-100)})
    with pytest.raises(checks.CheckFailed, match="does not satisfy"):
        checks.check_image(case, [(far, d)])


def test_image_over_the_finiteness_bound_is_rejected():
    case = image_case()
    image = wl.enumerate_image(case)
    with pytest.raises(checks.CheckFailed, match="bound"):
        checks.check_image(case, image * (checks.finiteness_bound(case) + 1))


def test_witness_search_is_exact_on_integers():
    x, y = Var("x", Sort.INT, Role.AUX), Var("y", Sort.INT, Role.AUX)
    tx, ty = LinTerm.of_var(x), LinTerm.of_var(y)
    # y < 2x < y + 2 has an integer x exactly when y is odd
    f = f_and([mk_cmp(LT, ty.sub(tx.scale(2))), mk_cmp(LT, tx.scale(2).sub(ty).add(LinTerm.of_const(-2)))])
    for k in range(-4, 5):
        assert checks.exists_witness(f, x, {y: Fraction(k)}, Sort.INT) == (k % 2 == 1)


# --------------------------------------------------------------------------
# Determinism, tracing and the command.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bool-programs", "arith-programs", "mbp-images"])
def test_same_seed_gives_same_inputs_and_counts(name):
    workload = wl.WORKLOADS[name]
    first, second = workload.build(7), workload.build(7)
    key = (lambda c: c.unit.text) if hasattr(first[0], "unit") else (lambda c: repr(c.formula))
    assert [key(c) for c in first] == [key(c) for c in second]
    assert [key(c) for c in workload.build(8)] != [key(c) for c in first]
    sample = first[:20] + first[-3:]
    outs = [[workload.run(c) for c in cases] for cases in (sample, second[:20] + second[-3:])]
    assert [workload.fingerprint(o) for o in outs[0]] == [workload.fingerprint(o) for o in outs[1]]
    for case, counts in zip(sample, zip(*outs)):
        assert len({workload.output_nodes(o) for o in counts}) == 1
        assert len({workload.failed(case, o) for o in counts}) == 1


def test_tracer_records_spans_and_restores_bindings():
    import recmc.engine as engine

    original = engine.check_sat
    tr = tracing.Tracer()
    tr.install(extra_sites=[wl])
    try:
        assert engine.check_sat is not original
        tr.op_id = 0
        case = wl.ProgramCase("t", overview(), 8, "SAFE")
        tr.span("bench.op", wl.run_check, case)
    finally:
        tr.uninstall()
    assert engine.check_sat is original
    totals = tr.totals(lambda op: op == 0)
    for name in ("driver.check", "driver.check_inductive", "engine.bounded_safety",
                 "interpolate.itp", "program.instantiate", "solver.check_sat", "solver.entails"):
        assert totals[name]["calls"] > 0, name
    for t in totals.values():
        assert 0 <= t["self_s"] <= t["s"] + 1e-9
    root = totals["bench.op"]
    assert root["calls"] == 1
    assert totals["driver.check"]["s"] <= root["s"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_one_result_line(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mbp-images", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(wl.image_corpus(3))
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    for m in spec[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # image enumeration bypasses the engine, driver and interpolation
        assert values["project.mbp_calls"] > 0 and values["solver.check_sat_calls"] > 0
        assert values["engine.bounded_safety_calls"] == values["interpolate.itp_calls"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_command_fails_without_the_checker_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bool-programs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
