"""No package module imports a name it never uses, or defines a private
name no package module reads.

No linter ships with the test dependencies, so these are the checks for
imports and private helpers left behind when code is deleted.  The import
check skips ``__init__.py``: its imports are the public re-exports.  An
import kept on purpose carries ``# noqa: F401`` on one of its lines.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parents[1] / "src" / "otmap").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no ``ast.Name`` in ``source`` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1 : stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {stmt.lineno}: {name}")
    return unused


def test_flags_an_unused_import_and_honours_noqa():
    source = "import os\nimport sys  # noqa: F401\nfrom math import inf, pi\n\nx = os.sep + str(pi)\n"
    assert unused_imports(source) == ["line 3: inf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants in ``sources``
    (file name to source) that no ``ast.Name`` load or attribute in any of
    them reads; dunder names are not private."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }
    unread = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{name}: {d}" for d in defined if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    return unread


def test_flags_an_unread_private_name():
    sources = {
        "a.py": "_A, _B = 1, 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n_D: int = 0\n",
        "b.py": "from . import a\nfrom .a import _f\n_f()\na._D\n",
    }
    assert unread_private_names(sources) == ["a.py: _B", "a.py: _C"]


def test_package_reads_every_private_name():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []
