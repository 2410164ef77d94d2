"""Count the lines and syntax-tree nodes of the Python modules in directories.

Usage::

    python tools/node_count.py [DIR ...]

With no argument, counts ``src/openarrows`` of the checkout this script
sits in.  For each ``*.py`` file directly in each DIR, in name order, it
prints the line count, the ``ast.walk`` node count and the path, then the
totals; a deletion is measured by running it on two checkouts.
"""

from __future__ import annotations

import ast
import pathlib
import sys

DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "openarrows"


def counts(path) -> tuple[int, int]:
    """The line count and the syntax-tree node count of one module."""
    text = pathlib.Path(path).read_text()
    return len(text.splitlines()), sum(1 for _ in ast.walk(ast.parse(text)))


def report(dirs: list) -> str:
    """One row per module of ``dirs``, then the totals."""
    rows, lines, nodes = [], 0, 0
    for d in dirs:
        for path in sorted(pathlib.Path(d).glob("*.py")):
            n_lines, n_nodes = counts(path)
            lines, nodes = lines + n_lines, nodes + n_nodes
            rows.append(f"{n_lines:7d} {n_nodes:8d}  {path}")
    return "\n".join([*rows, f"{lines:7d} {nodes:8d}  total"]) + "\n"


if __name__ == "__main__":
    sys.stdout.write(report(sys.argv[1:] or [DEFAULT_DIR]))
