"""No package module imports a name it never uses.

No linter ships with the test dependencies, so this is the one check for
imports left behind when code is deleted.  ``__init__.py`` is skipped: its
imports are the public re-exports.  An import kept on purpose carries
``# noqa: F401`` on one of its lines.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "otmap").glob("*.py") if p.name != "__init__.py")


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
