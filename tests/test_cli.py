import os
import subprocess
import sys

import pytest

import recmc
import recmc.cli
import recmc.driver
import recmc.engine
import recmc.solver
from recmc.cli import (
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_SAFE,
    EXIT_UNKNOWN,
    STATS_HEADER,
    run_cli,
)
from recmc.errors import ResourceLimit
from recmc.generators import program_text
from recmc.parser import MAX_NESTING, parse
from recmc.solver import SatResult

SRC = os.path.dirname(os.path.dirname(recmc.__file__))


def nested_program(depth):
    """A Boolean program whose parentheses nest depth deep, through an
    alternating (and i (or i ...)) body: the deepest recursion per level."""
    body = "o"
    for k in range(depth - 3):  # (program (procedure (body ...
        body = f"(and i {body})" if k % 2 == 0 else f"(or i {body})"
    return (
        f"(program (mode bool) (procedure P (in i) (out o) (body {body}))"
        " (main P) (assert-safe true))"
    )


@pytest.fixture()
def overview_file(tmp_path):
    path = tmp_path / "overview.rpl"
    path.write_text(program_text("overview"))
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "overview_bad.rpl"
    path.write_text(program_text("overview_bad"))
    return str(path)


class TestCheckCommand:
    def test_safe_exits_zero(self, overview_file, capsys):
        code = run_cli(["check", overview_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "SAFE"

    def test_unsafe_exits_one_and_writes_witness(self, bad_file, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        code = run_cli(["check", bad_file, "--witness", str(witness)])
        assert code == 1
        lines = witness.read_text().splitlines()
        assert lines[0] == "recmc-witness 1"
        assert lines[1] == "verdict UNSAFE"
        assert lines[2].startswith("bound ")
        assert lines[3] == "counterexample"
        assert any(l.strip().startswith("node 0 proc M") for l in lines)
        assert lines[-1] == "end"

    def test_witness_prints_integral_and_fractional_values(self, tmp_path, capsys):
        # model values are ints where integral and Fractions where not;
        # the witness prints both as numerals
        src, witness = tmp_path / "half.rpl", tmp_path / "w.txt"
        src.write_text(
            "(program (mode rat)\n"
            "  (procedure P (in x) (out y) (body (and (= (* 2 x) 1) (= y 3))))\n"
            "  (main P) (assert-safe (< y 3)))\n"
        )
        assert run_cli(["check", str(src), "--witness", str(witness)]) == 1
        assert witness.read_text().splitlines() == [
            "recmc-witness 1",
            "verdict UNSAFE",
            "bound 0",
            "counterexample",
            "  node 0 proc P path 0 children 0",
            "    value x 1/2",
            "    value y 3",
            "end",
        ]

    def test_unsafe_witness_unfolds_shared_subtrees(self, tmp_path, capsys):
        src, witness = tmp_path / "b4.rpl", tmp_path / "w.txt"
        assert run_cli(["gen", "bebop", "--n", "4", "--unsafe", "-o", str(src)]) == 0
        assert run_cli(["check", str(src), "--witness", str(witness)]) == 1
        ids = [
            int(line.split()[1])
            for line in witness.read_text().splitlines()
            if line.strip().startswith("node ")
        ]
        assert ids == list(range(31))

    def test_safe_witness_has_proof_per_procedure(self, overview_file, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        code = run_cli(["check", overview_file, "--witness", str(witness)])
        assert code == 0
        text = witness.read_text()
        for name in ("M", "T", "D"):
            assert f"procedure {name} " in text

    def test_unknown_exits_two(self, tmp_path, capsys):
        src = tmp_path / "deep.rpl"
        src.write_text(
            """
            (program (mode rat)
              (procedure P (in i) (out o) (local t)
                (body (or (and (< i 0) (= o i)) (and (call Q i t) (= o t)))))
              (procedure Q (in i) (out o) (body (= o (- i 1))))
              (main P)
              (assert-safe (<= o i)))
            """
        )
        code = run_cli(["check", str(src), "--max-bound", "0"])
        out = capsys.readouterr().out
        assert code == 2 and out.startswith("UNKNOWN")

    @pytest.mark.parametrize("flag", ["--max-bound", "--step-budget"])
    def test_negative_bound_exits_three(self, overview_file, flag, capsys):
        code = run_cli(["check", overview_file, flag, "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"{flag} must not be negative" in captured.err

    def test_parse_error_exits_three(self, tmp_path, capsys):
        src = tmp_path / "broken.rpl"
        src.write_text("(program (mode rat)")
        assert run_cli(["check", str(src)]) == 3

    @pytest.mark.parametrize("token", ["²", "1/²", "٣"])
    def test_non_ascii_numeral_exits_three(self, tmp_path, token, capsys):
        # each token passes str.isdigit, but only ASCII digits make a
        # numeral: an input error, not an internal one or a number
        line = f"  (procedure P (in x) (out o) (body (= o (+ x {token}))))"
        src = tmp_path / "numeral.rpl"
        src.write_text(f"(program (mode rat)\n{line}\n  (main P) (assert-safe true))", encoding="utf-8")
        assert run_cli(["check", str(src)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"recmc: {src}: 2:{line.index(token) + 1}: unknown variable '{token}'\n"

    def test_missing_file_exits_three(self, capsys):
        assert run_cli(["check", "/nonexistent.rpl"]) == 3

    @pytest.mark.parametrize("flag", ["--witness", "--trace"])
    def test_unwritable_output_exits_three(self, overview_file, flag, tmp_path, capsys):
        out = tmp_path / "missing" / "out.txt"
        assert run_cli(["check", overview_file, flag, str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recmc: cannot write {out}: ")

    def test_mode_mismatch_exits_three(self, overview_file, capsys):
        assert run_cli(["check", overview_file, "--mode", "int"]) == 3

    @pytest.mark.parametrize(
        "main, prop, message",
        [
            ("(procedure P (in a) (out b) (body (call Q a))) (main P)",
             "true", "call to Q in P: 1 args, 2 formals"),
            ("(main Q)", "(not (call Q a b))", "assert-safe must not call procedures"),
            ("(main Q)", "(call Q a b)", "assert-safe must not call procedures"),
        ],
        ids=["arity", "negated-call-in-property", "call-in-property"],
    )
    def test_input_error_exits_three(self, main, prop, message, tmp_path, capsys):
        src = tmp_path / "bad.rpl"
        src.write_text(
            "(program (mode bool)"
            " (procedure Q (in a) (out b) (body (or (and a b) (and (not a) (not b)))))"
            f" {main} (assert-safe {prop}))"
        )
        assert run_cli(["check", str(src)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"recmc: {src}: {message}\n"

    def test_stats_block(self, overview_file, capsys):
        code = run_cli(["check", overview_file, "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recmc-stats 1" in out
        fields = dict(
            line.split() for line in out[out.index("recmc-stats 1"):].splitlines()[1:]
            if line and " " in line
        )
        total = int(fields["sum"]) + int(fields["reach"]) + int(fields["query"])
        assert total == int(fields["steps"])

    @pytest.mark.parametrize(
        "name, solver_calls",
        [("overview", 21), ("overview_bad", 17), ("gpdr_divergence", 19)],
        ids=["overview", "overview_bad", "gpdr_divergence"],
    )
    def test_solver_calls_count_queries_asked(self, name, solver_calls, tmp_path, capsys):
        # answers the check kept from earlier queries count as asked
        path = tmp_path / f"{name}.rpl"
        path.write_text(program_text(name))
        run_cli(["check", str(path), "--stats"])
        out = capsys.readouterr().out
        assert f"\nsolver_calls {solver_calls}\n" in out[out.index(STATS_HEADER):]

    def test_stats_equal_under_optimize(self, overview_file):
        # a solver call inside an assert statement would be skipped under -O
        blocks = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "recmc.cli", "check", overview_file, "--stats"],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            assert proc.returncode == EXIT_SAFE, proc.stderr
            block = proc.stdout[proc.stdout.index(STATS_HEADER):].splitlines()
            blocks.append([line for line in block if not line.startswith("wall_ms ")])
        assert blocks[0] == blocks[1]

    def test_trace_file(self, overview_file, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        code = run_cli(["check", overview_file, "--proj", "qe", "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            rule, qid, proc, bound, *rest = line.split()
            assert rule in ("sum", "reach", "query")
            assert qid.startswith("q")
        assert any(l.startswith("reach") and " D 0 " in l for l in lines)


class TestGenCommand:
    def test_gen_round_trips_through_check(self, tmp_path, capsys):
        out_file = tmp_path / "g.rpl"
        assert run_cli(["gen", "bebop", "--n", "2", "-o", str(out_file)]) == 0
        assert run_cli(["check", str(out_file)]) == 0
        assert run_cli(["gen", "bebop", "--n", "2", "--unsafe", "-o", str(out_file)]) == 0
        assert run_cli(["check", str(out_file)]) == 1

    def test_gen_to_stdout(self, capsys):
        assert run_cli(["gen", "gpdr"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(program")

    def test_gen_random_seeded(self, capsys):
        assert run_cli(["gen", "random", "--mode", "int", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["gen", "random", "--mode", "int", "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.rpl"
        assert run_cli(["gen", "gpdr", "-o", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recmc: cannot write {out}: ")

    def test_bad_n_rejected(self, capsys):
        assert run_cli(["gen", "bebop", "--n", "0"]) == 3

    def test_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 3


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "overview.rpl"
        path.write_text(program_text("overview"))
        proc = subprocess.run(
            [sys.executable, "-m", "recmc.cli", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "SAFE"


class TestErrorsNeverReadAsVerdicts:
    def test_unexpected_exception_exits_internal(self, overview_file, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(recmc.cli, "check", crash)
        assert run_cli(["check", overview_file]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "recmc: internal error: RuntimeError: boom\n"

    def test_deep_nesting_is_not_a_verdict(self, tmp_path, capsys):
        body = "o"
        for _ in range(600):
            body = f"(and i {body})"
        src = tmp_path / "deep.rpl"
        src.write_text(
            f"(program (mode bool) (procedure P (in i) (out o) (body {body}))"
            " (main P) (assert-safe true))"
        )
        code = run_cli(["check", str(src)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("recmc: ")

    def test_nesting_at_the_limit_reaches_a_verdict(self, tmp_path):
        # a fresh interpreter, so that the stack is the command's own
        src = tmp_path / "limit.rpl"
        src.write_text(nested_program(MAX_NESTING))
        witness, trace = tmp_path / "w.txt", tmp_path / "t.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "recmc.cli", "check", str(src),
             "--witness", str(witness), "--trace", str(trace)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == EXIT_SAFE, proc.stderr
        assert proc.stdout.splitlines()[0] == "SAFE"
        assert witness.read_text().splitlines()[:2] == ["recmc-witness 1", "verdict SAFE"]
        assert trace.read_text().splitlines()

    def test_nesting_past_the_limit_is_a_syntax_error(self, tmp_path, capsys):
        text = nested_program(MAX_NESTING + 1)
        src = tmp_path / "past.rpl"
        src.write_text(text)
        depth = 0
        for col, c in enumerate(text, start=1):
            depth += {"(": 1, ")": -1}.get(c, 0)
            if depth > MAX_NESTING:
                break
        assert run_cli(["check", str(src)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"recmc: {src}: 1:{col}: parentheses nested deeper than {MAX_NESTING}\n"
        )

    def test_solver_giving_up_in_replay_is_unknown(self, bad_file, monkeypatch, capsys):
        real = recmc.driver.build_cex

        def giving_up(*args):
            with monkeypatch.context() as inside:
                inside.setattr(
                    recmc.engine, "check_sat", lambda f, mode: SatResult("unknown", reason="out")
                )
                return real(*args)

        monkeypatch.setattr(recmc.driver, "build_cex", giving_up)
        assert run_cli(["check", bad_file]) == EXIT_UNKNOWN
        assert capsys.readouterr().out == "UNKNOWN (solver resource limit: out)\n"

    def test_solver_giving_up_in_engine_is_unknown(self, tmp_path, monkeypatch, capsys):
        # without decisions the solver gives up on the first rule query of
        # the chain that needs one, at bound 1
        src, witness = tmp_path / "b3.rpl", tmp_path / "w.txt"
        assert run_cli(["gen", "bebop", "--n", "3", "-o", str(src)]) == EXIT_SAFE
        runs = []
        real = recmc.driver.bounded_safety
        monkeypatch.setattr(
            recmc.driver, "bounded_safety", lambda *args: runs.append(real(*args)) or runs[-1]
        )
        monkeypatch.setattr(recmc.solver, "MAX_DECISIONS", 0)
        reason = "solver resource limit: decision budget exhausted"
        unit = parse(src.read_text())
        verdict = recmc.driver.check(unit.program, unit.phi_safe)
        assert (verdict.status, verdict.bound, verdict.reason) == ("UNKNOWN", 1, reason)
        assert runs[-1] == ("UNKNOWN", reason)
        capsys.readouterr()
        assert run_cli(["check", str(src), "--witness", str(witness)]) == EXIT_UNKNOWN
        assert capsys.readouterr().out == f"UNKNOWN ({reason})\n"
        assert witness.read_text().splitlines() == [
            "recmc-witness 1", "verdict UNKNOWN", "bound 1", f"reason {reason}"
        ]

    def test_solver_giving_up_in_validation_is_unknown(self, overview_file, monkeypatch, capsys):
        def giving_up(a, b, mode):
            raise ResourceLimit("out")

        monkeypatch.setattr(recmc.driver, "entails", giving_up)
        assert run_cli(["check", overview_file]) == EXIT_UNKNOWN
        assert capsys.readouterr().out == "UNKNOWN (solver resource limit: out)\n"

    def test_corrupted_proof_rejected_under_optimize(self, overview_file):
        # claiming inductiveness at bound 0 hands the driver a proof that
        # fails validation; the check must hold with asserts compiled out
        script = (
            "import sys\n"
            "import recmc.driver\n"
            "from recmc.cli import run_cli\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not optimized')\n"
            "recmc.driver.check_inductive = lambda *args: True\n"
            "sys.exit(run_cli(['check', sys.argv[1]]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, overview_file],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert "SAFE" not in proc.stdout
        assert proc.stderr == "recmc: proof failed validation\n"
