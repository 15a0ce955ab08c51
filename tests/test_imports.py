"""Every name a checker or test module imports is used in that module.

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
