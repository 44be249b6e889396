"""Every name that a library module imports is used in that module, no
library module reaches for another one's private names, and every
definition in the library runs outside the tests.

No linter is part of the toolchain, so these are the checks for imports
that a deletion leaves behind, for private names used across modules and
for helpers that only the tests call.  ``__init__.py`` is left out of the
first: it imports names to export them.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycledec"


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


def private_uses(source: str) -> list:
    """``(line, name)`` for each underscore name that the source imports
    from a sibling module, and ``(line, "module._name")`` for each one it
    reads off a sibling module bound by ``from . import module``.

    Dunders are left out, and so are underscore attributes of anything but
    a module, such as the class-level ``_exact`` constructors of the chain
    types: the check is about modules, not classes.
    """
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cycledec")):
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_check_finds_private_names_of_sibling_modules():
    source = (
        "from . import io as fio, lattice\nfrom .a import b, _c\nfrom cycledec.d import _e as f\n"
        "import os\nfrom os import _exit\n"
        "fio._g(lattice._h, fio.i, os._exit, b._j, B._exact, fio.__name__)\n"
    )
    assert private_uses(source) == [(2, "_c"), (3, "_e"), (6, "fio._g"), (6, "lattice._h")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_uses_another_modules_private_names(module):
    assert private_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def unnamed_definitions(defining: dict, naming: list, exempt=frozenset()) -> list:
    """``(module, line, name)`` for each function, method or class that a
    source of ``defining`` (``{module: source}``) defines and that no
    ``ast.Name`` or ``ast.Attribute`` of ``naming`` spells; dunders and
    ``exempt`` names are left out."""
    named = set()
    for source in naming:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = []
    for module, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in exempt and name not in named:
                    found.append((module, node.lineno, name))
    return sorted(found)


def test_the_check_finds_what_nothing_names():
    source = (
        "class A:\n    def __eq__(s, o): pass\n    def m(s): pass\n    def k(s): pass\n"
        "def f(): pass\ndef g(): A().k()\n"
    )
    assert unnamed_definitions({"a": source}, [source]) == [("a", 3, "m"), ("a", 5, "f"), ("a", 6, "g")]
    assert unnamed_definitions({"a": source}, [source, "g.m"], exempt={"f"}) == []


def test_every_definition_runs_outside_the_tests():
    """Every function, method and class of ``src/cycledec`` is named in the
    library, ``perfbench/`` or ``benchmarks/``; a helper that only the
    tests call belongs in ``tests/oracles.py``.

    This is a name-level check: any ``ast.Name`` or ``ast.Attribute`` that
    spells a definition's name counts as a use of it, so it misses a method
    whose name another object also uses, such as a ``sample`` method next
    to ``random.Random.sample``.  Dunders and the names that
    ``cycledec/__init__.py`` imports, the exported API, are exempt.
    """
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    trees = (ROOT / "perfbench", ROOT / "benchmarks")
    naming = [*defining.values(), *(p.read_text(encoding="utf-8") for t in trees for p in sorted(t.rglob("*.py")))]
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(defining["__init__.py"]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert unnamed_definitions(defining, naming, exported) == []
