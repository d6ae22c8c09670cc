"""Every name a ``gradselect`` module imports is used in that module.

Stdlib-only (``ast``). ``__init__.py`` is skipped, since its imports are the
package's re-exports, and so are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gradselect"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
