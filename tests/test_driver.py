import os
import random
from fractions import Fraction

import pytest

import recmc.driver
import recmc.engine
from helpers import DATA, checked_check
from recmc.cli import run_cli
from recmc.driver import (
    CexNode,
    CounterexampleTree,
    SafetyProof,
    _pin,
    build_cex,
    check,
    check_inductive,
    validate_cex,
    validate_proof,
)
from recmc.engine import BndSafety
from recmc.errors import ProvenanceGap, SelfCheckFailed
from recmc.formula import (
    EQ,
    LE,
    TRUE,
    And,
    LinTerm,
    Sort,
    f_and,
    mk_cmp,
    negate_nnf,
)
from recmc.generators import gen_bebop, overview, overview_bad
from recmc.parser import parse
from recmc.program import instantiate, over_env, under_env
from recmc.solver import Model, SatResult, check_sat, entails


def _var(program, proc, name):
    return next(v for v in program.proc(proc).all_vars if v.name == name)


def _term(program, proc, name):
    return LinTerm.of_var(_var(program, proc, name))


@pytest.fixture(scope="module")
def safe_run():
    unit = overview()
    verdict = checked_check(unit.program, unit.phi_safe, max_bound=8)
    return unit, verdict


class TestOverviewEndToEnd:
    def test_safe_at_one(self, safe_run):
        _, verdict = safe_run
        assert verdict.status == "SAFE" and verdict.bound == 1

    def test_proof_entails_documented_summaries(self, safe_run):
        unit, verdict = safe_run
        program = unit.program
        env = verdict.proof.env
        m0, m = _term(program, "M", "m0"), _term(program, "M", "m")
        t0, t = _term(program, "T", "t0"), _term(program, "T", "t")
        d0, d = _term(program, "D", "d0"), _term(program, "D", "d")
        assert entails(env["M"], mk_cmp(LE, m.scale(2).add(LinTerm.of_const(4)).sub(m0)), Sort.RAT)
        assert entails(env["T"], mk_cmp(LE, t.scale(2).sub(t0)), Sort.RAT)
        assert entails(env["D"], mk_cmp(LE, d.sub(d0).add(LinTerm.of_const(1))), Sort.RAT)

    def test_proof_validates_fresh(self, safe_run):
        unit, verdict = safe_run
        assert validate_proof(unit.program, verdict.proof, unit.phi_safe)

    def test_top_summary_is_not_a_proof(self, safe_run):
        unit, verdict = safe_run
        fake = SafetyProof({name: TRUE for name in unit.program.procedures}, 1)
        assert not validate_proof(unit.program, fake, unit.phi_safe)


@pytest.fixture(scope="module")
def bad_run():
    unit = overview_bad()
    verdict = checked_check(unit.program, unit.phi_safe, max_bound=8)
    return unit, verdict


class TestOverviewBad:

    def test_unsafe_with_valid_tree(self, bad_run):
        unit, verdict = bad_run
        assert verdict.status == "UNSAFE"
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)
        # hand-computed witness shape: M -> (T chain, D, D)
        root = verdict.cex.root
        assert root.proc == "M" and len(root.children) == 3
        assert [c.proc for c in root.children] == ["T", "D", "D"]

    def test_corrupted_leaf_rejected(self, bad_run):
        unit, verdict = bad_run
        root = verdict.cex.root

        def corrupt(node):
            values = dict(node.values)
            for v in values:
                if v.sort is not Sort.BOOL:
                    values[v] = values[v] + 7
                    break
            return CexNode(node.proc, node.path_index, values, node.children)

        bad = CounterexampleTree(
            CexNode(root.proc, root.path_index, root.values,
                    (corrupt(root.children[0]),) + root.children[1:]),
            verdict.cex.bound,
        )
        assert not validate_cex(unit.program, bad, unit.phi_safe)


def _unfolded_size(node, sizes=None):
    sizes = {} if sizes is None else sizes
    if id(node) not in sizes:
        sizes[id(node)] = 1 + sum(_unfolded_size(c, sizes) for c in node.children)
    return sizes[id(node)]


def _distinct(node, seen=None):
    seen = set() if seen is None else seen
    seen.add(id(node))
    for child in node.children:
        _distinct(child, seen)
    return seen


def _occurrences(node, where=()):
    """(path of child indices, node) for every call of the unfolded tree."""
    yield where, node
    for i, child in enumerate(node.children):
        yield from _occurrences(child, where + (i,))


def _replace_at(node, where, new):
    if not where:
        return new
    children = list(node.children)
    children[where[0]] = _replace_at(children[where[0]], where[1:], new)
    return CexNode(node.proc, node.path_index, node.values, tuple(children))


class TestUnsafeChains:
    """Unsafe bebop chains: the unfolded tree is exponential in n, its
    distinct nodes and the replay's solver calls are linear."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_replay_is_linear(self, n, monkeypatch):
        unit = gen_bebop(n, safe=False)
        verdict = check(unit.program, unit.phi_safe, max_bound=2 * n + 4)
        assert verdict.status == "UNSAFE" and verdict.bound == n
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)
        assert _unfolded_size(verdict.cex.root) == 2 ** (n + 1) - 1
        assert len(_distinct(verdict.cex.root)) <= 2 * (n + 1)

        calls = [0]

        def counting_check_sat(*args, **kwargs):
            calls[0] += 1
            return check_sat(*args, **kwargs)

        # replay solves through the answer memo, whose misses call the
        # engine module's binding of check_sat
        monkeypatch.setattr(recmc.engine, "check_sat", counting_check_sat)
        engine = BndSafety(unit.program, unit.phi_safe)
        engine.rho = verdict.rho
        tree = build_cex(engine, n)
        assert calls[0] <= 4 * (n + 1)
        assert tree.root is not verdict.cex.root and tree == verdict.cex

    @staticmethod
    def _shared_inner_node(root):
        """The last occurrence of a node that is reached by several calls
        and has a local, with its position."""
        counts = {}
        for _, node in _occurrences(root):
            counts[id(node)] = counts.get(id(node), 0) + 1
        found = None
        for where, node in _occurrences(root):
            if counts[id(node)] > 1 and node.children:
                found = where, node
        assert found is not None
        return found

    @staticmethod
    def _flip_local(node, program):
        local = _var(program, node.proc, "t")
        values = dict(node.values)
        values[local] = not values[local]
        return values

    def test_corrupted_copy_of_shared_node_rejected(self):
        unit = gen_bebop(4, safe=False)
        verdict = check(unit.program, unit.phi_safe, max_bound=12)
        root = verdict.cex.root
        where, shared = self._shared_inner_node(root)
        copy = CexNode(shared.proc, shared.path_index,
                       self._flip_local(shared, unit.program), shared.children)
        bad = CounterexampleTree(_replace_at(root, where, copy), verdict.cex.bound)
        # the other occurrences still hold the valid shared node
        assert any(node is shared for _, node in _occurrences(bad.root))
        assert not validate_cex(unit.program, bad, unit.phi_safe)

    def test_corrupted_shared_node_rejected(self):
        unit = gen_bebop(4, safe=False)
        verdict = check(unit.program, unit.phi_safe, max_bound=12)
        _, shared = self._shared_inner_node(verdict.cex.root)
        shared.values = self._flip_local(shared, unit.program)
        assert not validate_cex(unit.program, verdict.cex, unit.phi_safe)


def _call_chain(n):
    """P0 -> ... -> Pn, each passing x on, Pn returning x + 1: UNSAFE
    for y <= x at bound n."""
    lines = ["(program (mode int)"]
    for i in range(n):
        lines.append(f"  (procedure P{i} (in x) (out y) (body (call P{i + 1} x y)))")
    lines.append(f"  (procedure P{n} (in x) (out y) (body (= y (+ x 1))))")
    lines.append("  (main P0) (assert-safe (<= y x)))")
    return "\n".join(lines)


class TestCheckInductive:
    def test_documented_state_is_inductive(self):
        """The summary facts the worked run converges to, placed at their
        levels by hand, push through and close at n = 1."""
        unit = overview()
        program = unit.program
        engine = BndSafety(program, unit.phi_safe)
        sigma = engine.sigma
        m0, m = _term(program, "M", "m0"), _term(program, "M", "m")
        t0, t = _term(program, "T", "t0"), _term(program, "T", "t")
        d0, d = _term(program, "D", "d0"), _term(program, "D", "d")
        sigma.add("M", 1, mk_cmp(LE, m.scale(2).add(LinTerm.of_const(4)).sub(m0)))
        sigma.add("T", 0, mk_cmp(LE, t.scale(2).sub(t0)))
        sigma.add("D", 0, mk_cmp(LE, d.sub(d0).add(LinTerm.of_const(1))))
        assert check_inductive(engine, 1)
        # pushed copies landed one level up
        assert sigma.at("T", 1) and sigma.at("D", 1) and sigma.at("M", 2)

    def test_failing_fact_blocks_only_itself(self):
        unit = overview()
        program = unit.program
        engine = BndSafety(program, unit.phi_safe)
        sigma = engine.sigma
        t0, t = _term(program, "T", "t0"), _term(program, "T", "t")
        d0, d = _term(program, "D", "d0"), _term(program, "D", "d")
        good = mk_cmp(LE, d.sub(d0).add(LinTerm.of_const(1)))
        bad = mk_cmp(EQ, t0)  # "t0 = 0" is not preserved by T's body
        sigma.add("D", 0, good)
        sigma.add("T", 0, bad)
        assert not check_inductive(engine, 0)
        assert [f.formula for f in sigma.at("D", 1)] == [good]
        assert not sigma.at("T", 1)

    @pytest.mark.parametrize(
        "source, max_bound, pairs",
        [(_call_chain(40), 45, 1600), ((DATA / "countdown30.rpl").read_text(), 15, 256)],
        ids=["chain-40", "countdown30"],
    )
    def test_revisits_per_check(self, source, max_bound, pairs, monkeypatch):
        """The (procedure, level) pairs that check_inductive revisits over
        one check.  A summary fact whose change is put at too low a level
        marks more pairs, which shows up here as a count and not as a
        slow run."""
        seen = []
        real = BndSafety.revisits

        def counting(engine, level):
            got = real(engine, level)
            seen.extend((name, level) for name in got)
            return got

        monkeypatch.setattr(BndSafety, "revisits", counting)
        unit = parse(source)
        check(unit.program, unit.phi_safe, max_bound)
        assert len(seen) == pairs


class TestAnswerMemo:
    """One check solves each distinct query once; the witnesses are
    validated without reading the answers it kept."""

    @pytest.mark.parametrize(
        "make, max_bound",
        [(overview, 8), (lambda: gen_bebop(6, safe=False), 16)],
        ids=["overview", "bebop-6-unsafe"],
    )
    def test_one_solve_per_distinct_query(self, make, max_bound, monkeypatch):
        unit = make()
        asked, solved = [], []

        real = BndSafety.solve

        def asking(engine, f):
            asked.append(f)
            return real(engine, f)

        def solving(f, mode):
            solved.append(f)
            return check_sat(f, mode)

        monkeypatch.setattr(BndSafety, "solve", asking)
        monkeypatch.setattr(recmc.engine, "check_sat", solving)
        verdict = check(unit.program, unit.phi_safe, max_bound=max_bound)
        assert verdict.status in ("SAFE", "UNSAFE")
        assert len(solved) == len(set(asked)) < len(asked)

    def test_lying_inductiveness_answer_fails_validation(self, monkeypatch):
        """An "inductive" answer kept for a fact that is not: the proof
        built on it is re-solved by validate_proof and rejected."""
        unit = overview()
        real = recmc.driver.check_inductive
        lies = []

        def lying(engine, n):
            program, sigma = engine.program, engine.sigma
            env = over_env(sigma, n, program)
            for name, proc in program.procedures.items():
                body = instantiate(proc.body, env, program)
                for fact in sigma.at(name, n):
                    query = f_and([body, negate_nnf(fact.formula)])
                    if check_sat(query, program.mode).is_sat:
                        engine.memo[query] = SatResult("unsat")
                        lies.append(query)
            return real(engine, n)

        monkeypatch.setattr(recmc.driver, "check_inductive", lying)
        with pytest.raises(SelfCheckFailed, match="proof"):
            check(unit.program, unit.phi_safe, max_bound=8)
        assert lies

    def test_lying_replay_answer_fails_validation(self, monkeypatch):
        """A replay model kept for a leaf that breaks its path: the tree
        built on it is read literally by validate_cex and rejected."""
        unit = gen_bebop(3, safe=False)
        real = recmc.driver._expand
        lies = []

        def lying(engine, fact, pinned, nodes):
            program = engine.program
            proc = program.proc(fact.proc)
            path = proc.paths[fact.path_index]
            if not path.calls and not lies:
                env = under_env(engine.rho, fact.bound - 1, program)
                query = f_and([instantiate(path, env, program), _pin(pinned)])
                res = check_sat(query, program.mode)
                out = proc.formals[-1]
                engine.memo[query] = SatResult("sat", Model({**res.model, out: not res.model[out]}))
                lies.append(query)
            return real(engine, fact, pinned, nodes)

        monkeypatch.setattr(recmc.driver, "_expand", lying)
        with pytest.raises(SelfCheckFailed, match="counterexample"):
            check(unit.program, unit.phi_safe, max_bound=10)
        assert lies


WIDE_UNSAFE = os.path.join(os.path.dirname(__file__), "data", "wide_unsafe.rpl")


def _with_values(node, values):
    return CexNode(node.proc, node.path_index, values, node.children)


@pytest.fixture(scope="module")
def wide_run():
    with open(WIDE_UNSAFE) as fh:
        unit = parse(fh.read())
    return unit, check(unit.program, unit.phi_safe, max_bound=16)


class TestValidationWalk:
    """validate_cex reads the tree alone, in every mode: path indices,
    assigned variables, integrality, and the height against the bound."""

    def test_wide_boolean_chain_is_unsafe(self, wide_run, capsys):
        # 24 variables per procedure: 2^24 valuations each, one node each
        assert run_cli(["check", WIDE_UNSAFE, "--max-bound", "16"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "UNSAFE"
        unit, verdict = wide_run
        assert verdict.status == "UNSAFE"
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)

    def test_values_assign_exactly_the_variables(self, wide_run):
        unit, verdict = wide_run
        root = verdict.cex.root
        child = root.children[0]
        pad = _var(unit.program, child.proc, "u1")
        fewer = {v: val for v, val in child.values.items() if v != pad}
        more = {**child.values, _var(unit.program, "M", "x0"): False}
        for values in (fewer, more):
            bad = _replace_at(root, (0,), _with_values(child, values))
            tree = CounterexampleTree(bad, verdict.cex.bound)
            assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_bound_below_height_rejected(self, bad_run):
        unit, verdict = bad_run
        assert verdict.cex.bound == 1
        tree = CounterexampleTree(verdict.cex.root, 0)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_chain_with_lowered_bound_rejected(self):
        unit = gen_bebop(3, safe=False)
        verdict = check(unit.program, unit.phi_safe, max_bound=10)
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)
        tree = CounterexampleTree(verdict.cex.root, verdict.cex.bound - 1)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_negative_path_index_rejected(self, bad_run):
        unit, verdict = bad_run
        root = verdict.cex.root
        bad = CexNode(root.proc, -1, root.values, root.children)
        tree = CounterexampleTree(bad, verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_failing_path_literal_rejected(self, bad_run):
        # m = -1 still violates the property and the last D passes it on,
        # but d = d0 - 1 fails in that D
        unit, verdict = bad_run
        root = verdict.cex.root
        m, d = _var(unit.program, "M", "m"), _var(unit.program, "D", "d")
        last = root.children[2]
        bad = _with_values(root, {**root.values, m: Fraction(-1)})
        bad = _replace_at(bad, (2,), _with_values(last, {**last.values, d: Fraction(-1)}))
        tree = CounterexampleTree(bad, verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_missing_child_rejected(self, bad_run):
        unit, verdict = bad_run
        root = verdict.cex.root
        bad = CexNode(root.proc, root.path_index, root.values, root.children[:2])
        tree = CounterexampleTree(bad, verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_wrong_callee_rejected(self, bad_run):
        unit, verdict = bad_run
        root = verdict.cex.root
        as_t = CexNode("T", 0, root.children[1].values, ())
        tree = CounterexampleTree(_replace_at(root, (1,), as_t), verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_wrong_callee_without_formals_rejected(self):
        # neither Q nor R has variables, so no argument or variable check
        # tells an R node from a Q node; only the callee's name does
        unit = parse(
            """
            (program (mode bool)
              (procedure M (out o) (body (and (call Q) o)))
              (procedure Q (body false))
              (procedure R (body true))
              (main M)
              (assert-safe (not o)))
            """
        )
        o = _var(unit.program, "M", "o")
        root = CexNode("M", 0, {o: True}, (CexNode("R", 0, {}, ()),))
        assert not validate_cex(unit.program, CounterexampleTree(root, 1), unit.phi_safe)

    def test_root_outside_main_rejected(self, bad_run):
        # the property is over main's formals; a T node does not assign them
        unit, verdict = bad_run
        tree = CounterexampleTree(verdict.cex.root.children[0], verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)

    def test_fractional_integer_values_rejected(self):
        unit = parse(
            """
            (program (mode int)
              (procedure P (in i) (out o) (body (= o (+ i 1))))
              (main P)
              (assert-safe (<= o i)))
            """
        )
        verdict = check(unit.program, unit.phi_safe, max_bound=2)
        assert verdict.status == "UNSAFE"
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)
        i, o = _var(unit.program, "P", "i"), _var(unit.program, "P", "o")
        # o = i + 1 holds and o <= i fails, but not over the integers
        root = _with_values(verdict.cex.root, {i: Fraction(1, 2), o: Fraction(3, 2)})
        tree = CounterexampleTree(root, verdict.cex.bound)
        assert not validate_cex(unit.program, tree, unit.phi_safe)


class TestBounds:
    def test_bound_exhausted(self):
        unit = parse(
            """
            (program (mode rat)
              (procedure P (in i) (out o) (local t)
                (body (or (and (< i 0) (= o i)) (and (call Q i t) (= o t)))))
              (procedure Q (in i) (out o) (body (= o (- i 1))))
              (main P)
              (assert-safe (<= o i)))
            """
        )
        verdict = check(unit.program, unit.phi_safe, max_bound=0)
        assert verdict.status == "UNKNOWN" and "bound" in verdict.reason

    def test_single_node_tree(self):
        unit = parse(
            """
            (program (mode rat)
              (procedure P (in i) (out o) (body (= o (+ i 1))))
              (main P)
              (assert-safe (<= o i)))
            """
        )
        verdict = check(unit.program, unit.phi_safe, max_bound=2)
        assert verdict.status == "UNSAFE"
        assert verdict.cex.root.children == ()
        assert validate_cex(unit.program, verdict.cex, unit.phi_safe)


_ONE_NODE = """
    (program (mode rat)
      (procedure P (in i) (out o) (body (= o (+ i 1))))
      (main P)
      (assert-safe (<= o i)))
"""


class TestReplayGuards:
    """build_cex reads facts the engine recorded; bookkeeping it cannot
    replay is a ProvenanceGap, not a counterexample."""

    def test_no_violating_model(self):
        # no reachability fact: main's under-approximation is false
        unit = parse(_ONE_NODE)
        engine = BndSafety(unit.program, unit.phi_safe)
        with pytest.raises(ProvenanceGap, match="no violating model"):
            build_cex(engine, 0)

    def test_fact_without_path_index(self):
        # the first fact that the violating model satisfies names no path
        unit = parse(_ONE_NODE)
        engine = BndSafety(unit.program, unit.phi_safe)
        fact, _ = engine.rho.add("P", 0, TRUE)
        assert fact.path_index is None
        with pytest.raises(ProvenanceGap, match=f"fact {fact.fact_id} has no path index"):
            build_cex(engine, 0)


class TestProofMutation:
    def test_validator_catches_dropped_conjuncts(self, safe_run):
        """Deleting one conjunct from a valid proof should almost always be
        caught; a validator that stays green is vacuous."""
        unit, verdict = safe_run
        program = unit.program
        rng = random.Random(5)
        base = verdict.proof.env
        mutants = caught = 0
        for name, f in base.items():
            conjs = list(f.args) if isinstance(f, And) else [f]
            if len(conjs) < 1:
                continue
            for i in range(len(conjs)):
                rest = conjs[:i] + conjs[i + 1 :]
                env = dict(base)
                env[name] = f_and(rest) if rest else TRUE
                mutants += 1
                if not validate_proof(program, SafetyProof(env, 1), unit.phi_safe):
                    caught += 1
        assert mutants >= 3
        assert caught == mutants  # every single-deletion mutant here is invalid
