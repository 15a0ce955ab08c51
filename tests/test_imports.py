"""Every name a checker or test module imports is used in that module,
and every top-level function and class of the checker is reached from
the checker.

The package's __init__ re-exports the names in its __all__; those count
as used there.  `from __future__ import annotations` binds nothing.
"""

import ast
from pathlib import Path

import recmc

PACKAGE = Path(recmc.__file__).parent
TESTS = Path(__file__).parent


def _imported(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        used |= set(recmc.__all__)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def _assert_no_unused(root: Path, modules):
    assert modules
    unused = [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in modules
        for name, line in unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_unused_imports():
    _assert_no_unused(PACKAGE, sorted(PACKAGE.rglob("*.py")))


def test_no_unused_imports_in_tests():
    _assert_no_unused(TESTS, sorted(TESTS.glob("*.py")))


def test_detects_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "def f(x: List[int]) -> int:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(src) == [("Optional", 3)]


# Definitions that only the tests and the benchmark use: the explicit-
# state oracles of the Boolean semantics, which check is tested against,
# and the size measure of the benchmark's output_nodes.
OUTSIDE_USES = {"bool_bounded_semantics", "bool_unbounded_semantics", "formula_size"}


def unreached(root: Path):
    """(definition, name) for every top-level function and class of the
    modules under root that none of them names outside the definition
    itself.  A name counts wherever it is read: as a variable or as an
    attribute, in any module; an import alone does not count."""
    defined, used = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                defined.append((f"{path.relative_to(root)}:{top.lineno}", own))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return [(where, name) for where, name in defined if name not in used]


def test_every_checker_definition_is_reached():
    missing = [
        f"{where}: {name}" for where, name in unreached(PACKAGE) if name not in OUTSIDE_USES
    ]
    assert not missing, "unreached definitions:\n" + "\n".join(missing)


def test_detects_an_unreached_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import used, Shape\n"
        "import a\n"
        "X = a.used() + Shape().area()\n"
    )
    assert unreached(tmp_path) == [("a.py:3", "recursive")]
