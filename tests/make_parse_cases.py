"""Writes tests/data/parse_cases.txt: seeded fault-injected program texts
and what parse makes of each (see test_parse_cases.py).

    PYTHONPATH=src python tests/make_parse_cases.py

The file pins the parser's observable behaviour, positions included.
Rewrite it only when that behaviour is meant to change, and read the
diff of the outcomes.
"""

import json
import random
import re

from recmc.generators import gen_bebop, program_text, random_arith_program, random_bool_program
from test_parse_cases import CASES, apply_edits, outcome

N_CASES = 2000
MAX_EDITS = 3

HANDWRITTEN = [
    # divisibility, sugar, rationals and comments that hold parentheses
    """; header ( with ) parens ;; and ; semicolons
(program (mode int) ; trailing ( comment )
  (procedure P (in x) (out y) (local t)
    (body (and (divides 3 (+ x 1)) (>= y (* 2 x)) (call Q x t) (> t -4))))
  (procedure Q (in a) (out b)
    ;(body (= b a))
    (body (or (= b (- a)) (and (< a 0) (= b (- a 1))))))
  (main P)
  (assert-safe (not (< y x))))""",
    """(program (mode rat)
  (procedure R (in u v) (out w)
    (body (and (= w (+ (* 1/2 u) (/ 3 4) v)) (<= 0 u) (not (or (< v -2/3) (= u v))))))
  (main R) (assert-safe (<= (* -1 w) 7)))""",
    """(program (mode bool)
\t(procedure B (in p) (out q) (local r)
\t\t(body (or (and p (not q)) (and (not p) q (call B r r)))))
\t(main B) (assert-safe (or p q true (not false))))""",
    "",
    ")",
    "(",
    "x",
    "(program)",
    "(program (mode bool) (main P) (assert-safe true))",
]


def nested_program(depth):
    """A Boolean program whose parentheses nest depth deep."""
    body = "o"
    for k in range(depth - 3):
        body = f"(and i {body})" if k % 2 == 0 else f"(or i {body})"
    return (
        f"(program (mode bool) (procedure P (in i) (out o) (body {body}))"
        " (main P) (assert-safe true))"
    )


def bases():
    texts = [program_text(n) for n in ("overview", "overview_bad", "gpdr_divergence")]
    texts += [gen_bebop(3).text, gen_bebop(2, safe=False).text]
    rng = random.Random("parse-case-bases")
    texts += [random_bool_program(rng, 2).text for _ in range(6)]
    texts += [random_arith_program(rng, mode, 2).text for mode in ("rat", "int") * 3]
    texts += HANDWRITTEN
    variants = [t.replace("\n", "\r\n") for t in texts[:4]]
    variants += [re.sub(r"\n +", lambda m: "\n" + "\t" * (len(m.group()) // 2), t) for t in texts[4:8]]
    return texts + variants + [nested_program(256), nested_program(257)]


ATOM = re.compile(r"[^ \t\r\n();]+")
NUMERAL = re.compile(r"(?<![\w/])-?\d+(?:/\d+)?")
NON_ASCII = ["²", "٣", "١٢", "3²", "1/²", "⁴/2", "-٣"]
JUNK = "();x; "


def pick(rng, matches):
    matches = list(matches)
    return rng.choice(matches) if matches else None


def drop_paren(rng, text):
    m = pick(rng, re.finditer(r"[()]", text))
    return [[m.start(), m.end(), ""]] if m else []


def add_paren(rng, text):
    i = rng.randint(0, len(text))
    return [[i, i, rng.choice("()")]]


def unknown_name(rng, text):
    m = pick(rng, ATOM.finditer(text))
    return [[m.start(), m.end(), rng.choice(["zz", "q9", "main", "call", "true"])]] if m else []


def form_end(text, start):
    """The index after the form that opens at text[start], or len(text)."""
    depth = 0
    for j in range(start, len(text)):
        depth += {"(": 1, ")": -1}.get(text[j], 0)
        if depth == 0:
            return j + 1
    return len(text)


def negate_call(rng, text):
    m = pick(rng, re.finditer(r"\(call ", text))
    if not m:
        return []
    end = form_end(text, m.start())
    return [[end, end, ")"], [m.start(), m.start(), "(not "]]


def copy_form(rng, text):
    m = pick(rng, re.finditer(r"\(", text))
    if not m:
        return []
    form = text[m.start():form_end(text, m.start())]
    i = rng.choice([m.start(), rng.randint(0, len(text))])
    return [[i, i, form + " "]]


def swap_atom(rng, text):
    atoms = list(ATOM.finditer(text))
    if not atoms:
        return []
    m = rng.choice(atoms)
    return [[m.start(), m.end(), rng.choice(atoms).group()]]


def replace_expr(rng, text):
    m = pick(rng, re.finditer(r"\((?:and|or|not|<|<=|=) ", text))
    if not m:
        return []
    new = rng.choice(
        ["(call P i o)", "(call p0 a0 b0)", "(/ 1 2)", "(< 1/2 a0)", "(= (/ 1 0) x)",
         "(* a0 b0)", "(- )", "(not a0 b0)", "(< (* 2/3 x) 1)", "(divides 2 1)",
         "(not (divides 2 (+ 1 1)))", "(not (divides 2 a0))", "a0", "(< a0 t0)",
         "(< (+ a0 true) 1)", "(<= 1/3 (* 3/2 b0))", "(= a0 (- 1 2 3))",
         " ".join(["(and"] + ["(or a0 b0)"] * 13) + ")"]
    )
    return [[m.start(), form_end(text, m.start()), new]]


def divides(rng, text):
    m = pick(rng, re.finditer(r"\((?:and|or|not) ", text))
    if not m:
        return []
    d = rng.choice(["2", "3", "0", "-2", "1/2", "x"])
    v = rng.choice(["a0", "x", "i", "b0", "t0"])
    return [[m.end(), m.end(), f"(divides {d} (+ {v} 1)) "]]


def change_mode(rng, text):
    m = pick(rng, re.finditer(r"\(mode (\w+)\)", text))
    return [[m.start(1), m.end(1), rng.choice(["bool", "rat", "int", "octal"])]] if m else []


def non_ascii_numeral(rng, text):
    m = pick(rng, NUMERAL.finditer(text))
    if m:
        return [[m.start(), m.end(), rng.choice(NON_ASCII)]]
    i = rng.randint(0, len(text))
    return [[i, i, " " + rng.choice(NON_ASCII) + " "]]


def comment(rng, text):
    i = rng.randint(0, len(text))
    junk = "".join(rng.choice(JUNK) for _ in range(rng.randint(0, 6)))
    return [[i, i, ";" + junk + rng.choice(["\n", "\n", "\r\n", ""])]]


def comment_at_line_end(rng, text):
    m = pick(rng, re.finditer(r"\r?\n", text))
    i = m.start() if m else len(text)
    junk = "".join(rng.choice(JUNK) for _ in range(rng.randint(1, 6)))
    return [[i, i, " ;" + junk]]


def whitespace(rng, text):
    m = pick(rng, re.finditer(r"[ \n]", text))
    if not m:
        return []
    return [[m.start(), m.end(), rng.choice(["\t", "\r\n", " \t ", "\n\t", "\r"])]]


def inside_token(rng, text):
    m = pick(rng, ATOM.finditer(text))
    i = rng.randint(m.start(), m.end()) if m else rng.randint(0, len(text))
    return [[i, i, rng.choice(["\f", " ", "\v", "\f\f"])]]


def random_char(rng, text):
    i = rng.randint(0, max(0, len(text) - 1))
    if text and rng.random() < 0.5:
        return [[i, i + 1, ""]]
    return [[i, i, rng.choice(" ()\n\t\r;xa01-/*+")]]


def drop_argument(rng, text):
    m = pick(rng, re.finditer(r"\(call \S+( [^ ()]+)", text))
    return [[m.start(1), m.end(1), ""]] if m else []


# the edits that break the nesting are drawn half as often as the others
MUTATIONS = [drop_paren, add_paren, comment, random_char] + 2 * [
    unknown_name, negate_call, divides, change_mode, non_ascii_numeral,
    comment_at_line_end, whitespace, inside_token, copy_form, swap_atom,
    replace_expr, drop_argument,
]


def main():
    rng = random.Random("parse-cases")
    texts = bases()
    lines = ["# written by tests/make_parse_cases.py, replayed by tests/test_parse_cases.py"]
    lines += ["B " + json.dumps(t) for t in texts]
    cases = [(b, []) for b in range(len(texts))]
    while len(cases) < N_CASES:
        b = rng.randrange(len(texts))
        text, edits = texts[b], []
        for _ in range(rng.randint(1, MAX_EDITS)):
            step = rng.choice(MUTATIONS)(rng, text)
            text = apply_edits(text, step)
            edits += step
        cases.append((b, edits))
    for b, edits in cases:
        expected = outcome(apply_edits(texts[b], edits))
        lines.append("C " + json.dumps([b, edits, expected]))
    CASES.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
