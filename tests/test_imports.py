"""Every module reads each name it imports (``__init__`` re-exports)."""

from __future__ import annotations

import ast
import pathlib

import openarrows

PACKAGE = pathlib.Path(openarrows.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read
    )


def test_the_scan_finds_an_unread_import():
    src = "import itertools\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(src) == ["line 1: itertools", "line 2: c"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text()))
    }
    assert unused == {}
