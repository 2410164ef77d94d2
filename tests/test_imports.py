"""Every module and test file reads each name it imports (``__init__``
re-exports)."""

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
    modules += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert len(modules) > 20
    unused = {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text()))
    }
    assert unused == {}


def reexports(init_source: str) -> list[str]:
    """The names ``__init__`` binds by ``from .module import ...``."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def read_names(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute, outside the body of
    the function or class that defines them."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in inside:
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def unread_exports(init_source: str, sources: list[str]) -> list[str]:
    """Re-exported functions and constants that no source reads; classes
    are exempt."""
    trees = [ast.parse(s) for s in sources]
    classes = {
        node.name for t in trees for node in ast.walk(t)
        if isinstance(node, ast.ClassDef)
    }
    read = set().union(*map(read_names, sources))
    return sorted(
        name for name in reexports(init_source)
        if name not in classes and name not in read
    )


def test_the_scan_finds_an_unread_export():
    init = "from .m import (\n    K,\n    a,\n    b,\n)\nfrom .n import c\n"
    m = "K = 1\ndef a(n):\n    return a(n - 1)\ndef b():\n    return K\nclass c:\n    pass\n"
    t = "import openarrows\nopenarrows.m.b()\n"
    assert unread_exports(init, [m, t]) == ["a"]


def test_every_reexported_function_and_constant_is_read():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list(pathlib.Path(__file__).parent.glob("*.py"))
    assert len(paths) > 20
    init = (PACKAGE / "__init__.py").read_text()
    assert unread_exports(init, [p.read_text() for p in paths]) == []


def unread_definitions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """Module-level functions and classes of ``modules`` (name -> source)
    that no source reads by name outside their own body."""
    read = set().union(*map(read_names, sources))
    return sorted(
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    )


def test_the_scan_finds_an_unread_definition():
    m = "def a(n):\n    return a(n - 1)\ndef b():\n    return C()\nclass C:\n    pass\n"
    t = "from m import b\nb()\n"
    assert unread_definitions({"m": m}, [m, t]) == ["m.a"]


def test_every_function_and_class_is_read_somewhere():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    tests = [p.read_text() for p in pathlib.Path(__file__).parent.glob("*.py")]
    assert len(modules) > 10
    assert unread_definitions(modules, list(modules.values()) + tests) == []


def code_generating_calls(source: str) -> list[str]:
    """Calls of the builtins that run source text: ``exec``, ``eval`` and
    ``compile`` (``re.compile`` is a method, not the builtin)."""
    return sorted(
        f"line {node.lineno}: {node.func.id}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    )


def test_the_scan_finds_a_code_generating_call():
    src = "import re\nre.compile('x')\nexec('y = 1')\nf = eval\nf('2')\ncompile('3', '', 'eval')\n"
    assert code_generating_calls(src) == ["line 3: exec", "line 6: compile"]


def test_no_module_runs_source_text():
    found = {
        p.name: calls
        for p in sorted(PACKAGE.glob("*.py"))
        if (calls := code_generating_calls(p.read_text()))
    }
    assert found == {}
