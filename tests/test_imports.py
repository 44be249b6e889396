"""Every name that a library module imports is used in that module.

No linter is part of the toolchain, so this is the check for imports that
a deletion leaves behind.  ``__init__.py`` is left out: it imports names
to export them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycledec"


def unused_imports(source: str) -> list:
    """``(line, name)`` for each imported name that the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_what_is_never_read():
    source = "from __future__ import annotations\nfrom a import b, c as d\nimport e.f\nimport g\nprint(b, e.f)\n"
    assert unused_imports(source) == [(2, "d"), (4, "g")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
