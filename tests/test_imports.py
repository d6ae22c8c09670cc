"""Every name a ``gradselect`` module imports is used in that module, and every
module-level function and class of the package is used somewhere.

Stdlib-only (``ast``). ``__init__.py`` is skipped by the import check, since
its imports are the package's re-exports, and so are ``__future__`` imports.
A definition counts as used when an ``ast.Name`` or ``ast.Attribute`` in
``src``, ``tests`` or ``perfbench`` refers to its name outside its own
definition; a re-export in ``__init__.py`` alone does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gradselect"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = SRC.parent.parent
SEARCHED = sorted(p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` that nothing references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import json\nfrom typing import Iterable, Iterator\nx: Iterable = json\n"
    assert unused_imports(source) == ["Iterator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _referenced(node: ast.AST) -> set[str]:
    """Names the ``ast.Name`` and ``ast.Attribute`` nodes under ``node`` refer to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_definitions(modules: dict[str, str], searched: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class of ``modules`` that
    no statement of ``searched`` (both: file name -> source) refers to, except
    its own definition."""
    # (file, top-level statement position) -> the names that statement refers to.
    references = {
        (name, i): _referenced(stmt)
        for name, source in searched.items()
        for i, stmt in enumerate(ast.parse(source).body)
    }
    unused = []
    for module, source in modules.items():
        for i, node in enumerate(ast.parse(source).body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in names for at, names in references.items() if at != (module, i)):
                unused.append(f"{module}.{node.name}")
    return unused


def test_finds_an_unused_definition():
    module = (
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Unused:\n    pass\n"
    )
    caller = "import m\n\nm.used()\n"
    searched = {"m.py": module, "t.py": caller}
    assert unused_definitions({"m.py": module}, searched) == ["m.py.recursive", "m.py.Unused"]


def test_every_definition_is_used():
    searched = {str(p.relative_to(ROOT)): p.read_text() for p in SEARCHED}
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    assert unused_definitions(modules, searched) == []
