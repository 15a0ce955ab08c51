"""Replays tests/data/parse_cases.txt, which pins what parse makes of
about 2,000 seeded fault-injected program texts.

Each case is a base text with edits applied.  Its expected outcome is
the exception class and message, with line:col, or for an accepted text
a digest of print_program.  make_parse_cases.py writes the file.
"""

import hashlib
import json
from pathlib import Path

from recmc.parser import parse, print_program

CASES = Path(__file__).parent / "data" / "parse_cases.txt"


def outcome(text: str) -> str:
    try:
        unit = parse(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    printed = print_program(unit.program, unit.phi_safe)
    return "ok " + hashlib.sha256(printed.encode()).hexdigest()[:16]


def apply_edits(text: str, edits) -> str:
    """Each edit [i, j, s] replaces text[i:j] by s, in order."""
    for i, j, s in edits:
        text = text[:i] + s + text[j:]
    return text


def read_cases():
    """(text, expected outcome) per case.  A line is 'B <json text>' for a
    base or 'C <json [base, edits, outcome]>' for a case."""
    bases, cases = [], []
    for line in CASES.read_text(encoding="ascii").split("\n"):
        kind, _, rest = line.partition(" ")
        if kind == "B":
            bases.append(json.loads(rest))
        elif kind == "C":
            base, edits, expected = json.loads(rest)
            cases.append((apply_edits(bases[base], edits), expected))
    return cases


def test_parse_outcomes_unchanged():
    cases = read_cases()
    assert len(cases) >= 2000
    wrong = []
    for text, expected in cases:
        got = outcome(text)
        if got != expected:
            wrong.append((text, expected, got))
    assert not wrong, f"{len(wrong)} of {len(cases)} cases changed, first: {wrong[0]!r}"
