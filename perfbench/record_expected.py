"""Record the law verdicts the benchmark holds every later run to.

Runs each law suite at sizes 1 and 2 and the mutant battery through
`openarrows.cli.main` and writes `expected_laws.json` beside this file:
`status` and `checked` per (law, instance), in report order, and per mutant
its target, the laws it failed and whether it was isolated.  Run from the
repository root; it takes about four minutes:

    PYTHONPATH=src python3 perfbench/record_expected.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from openarrows.cli import main

SUITES = ("arrow", "optic", "graded", "bimodule", "context")
SIZES = (1, 2)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_laws.json")


def _rows(argv: list, want_rc: int) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != want_rc:
        raise SystemExit(f"{' '.join(argv)} exited {rc}, expected {want_rc}")
    return [json.loads(line) for line in out.getvalue().splitlines()]


def record() -> dict:
    suites = {}
    for size in SIZES:
        for suite in SUITES:
            rows = _rows(["laws", "--suite", suite, "--size", str(size),
                          "--format", "json"], 0)
            suites[f"{suite}@{size}"] = [
                [r["law"], r["instance"], r["status"], r["checked"]] for r in rows]
    rows = _rows(["laws", "--mutants", "--format", "json"], 1)
    suites["mutants"] = [[r["target"], r["failed"], r["isolated"]] for r in rows]
    stray = [r for r in rows if r["failed"] != [r["target"]] or not r["isolated"]]
    if stray:
        raise SystemExit(f"mutants not isolated: {stray}")
    return suites


def write(suites: dict) -> None:
    """One report per line, so a changed verdict shows as a one-line diff."""
    blocks = [
        f" {json.dumps(key)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for key, rows in sorted(suites.items())
    ]
    with open(OUT, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    write(record())
