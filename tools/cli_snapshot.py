"""Record stdout, stderr and the exit code of a fixed list of CLI runs,
and every law report of every planted mutant.

Usage::

    python tools/cli_snapshot.py OUTDIR

Run as a script, each run goes in process through ``openarrows.cli.main``
of the checkout this script sits in, and leaves ``NAME.out``, ``NAME.err`` and
``NAME.code`` in OUTDIR.  Each mutant of ``openarrows.mutants.MUTANTS``
leaves ``mutant_TARGET.reports``: the ``repr`` of each of its reports, one
a line, with every field (law, instance, status, ``checked``,
counterexample and equality), which the CLI's mutant table leaves out.
Game files are named relative to the bundled fixture directory, so
snapshots of two checkouts compare with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SUITES = ("arrow", "optic", "bimodule", "context", "graded")
FIXTURES = (
    "matching_pennies.game",
    "matching_pennies_prob.game",
    "prisoners_dilemma.game",
)


def _runs() -> list:
    runs = [
        ["laws", "--suite", suite, "--size", str(size), "--format", "json"]
        for suite in SUITES
        for size in (1, 2)
    ]
    runs += [
        ["laws", "--mutants"],
        ["laws", "--mutants", "--format", "json"],
        ["laws", "--suite", "context", "--size", "3"],
        ["laws", "--suite", "graded", "--size", "4"],
    ]
    for game in FIXTURES:
        runs += [
            ["solve", game, "--closed"],
            ["solve", game, "--closed", "--format", "json"],
            ["solve", game, "--closed", "--monoid", "witness"],
            ["oracle", game],
            ["oracle", game, "--format", "json"],
            ["fmt", game],
        ]
    return runs


#: every run, as the argument list ``openarrows`` is given
RUNS = _runs()


def run_name(argv: list) -> str:
    """The file stem of one run: its arguments joined by underscores."""
    return "_".join(a.lstrip("-").replace(".game", "") for a in argv)


def snapshot(outdir, runs: list = RUNS) -> None:
    """Write the three files of every run in ``runs``, and the reports of
    every mutant, into ``outdir``."""
    from openarrows.cli import main
    from openarrows.gamefile import fixture_path
    from openarrows.mutants import MUTANTS

    outdir = pathlib.Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(os.path.dirname(fixture_path(FIXTURES[0])))
    try:
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            stem = outdir / run_name(argv)
            stem.with_suffix(".out").write_text(out.getvalue())
            stem.with_suffix(".err").write_text(err.getvalue())
            stem.with_suffix(".code").write_text(f"{code}\n")
    finally:
        os.chdir(here)
    for target, run in MUTANTS.items():
        reports = "".join(f"{r!r}\n" for r in run())
        (outdir / f"mutant_{target}.reports").write_text(reports)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, str(SRC))
    snapshot(sys.argv[1])
