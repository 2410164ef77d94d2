"""The command-line front end: subcommands, exit codes, stream formats."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import openarrows
from openarrows.cli import main
from openarrows.gamefile import build_game, fixture_path
from openarrows.laws import LAWS

PD = fixture_path("prisoners_dilemma.game")
MP = fixture_path("matching_pennies.game")
MPP = fixture_path("matching_pennies_prob.game")


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_solve_closed_dilemma(capsys):
    assert main(["solve", PD, "--closed"]) == 0
    out = _lines(capsys)
    assert "D,D\ttrue" in out
    assert "C,C\tfalse" in out
    assert len(out) == 4


def test_solve_json_is_versioned_one_object_per_line(capsys):
    assert main(["solve", PD, "--closed", "--format", "json"]) == 0
    rows = [json.loads(line) for line in _lines(capsys)]
    assert all(r["schema"] == "openarrows.solve/1" for r in rows)
    verdicts = {r["strategy"]: r["equilibrium"] for r in rows}
    assert verdicts == {"C,C": False, "C,D": False, "D,C": False, "D,D": True}


def test_solve_is_deterministic(capsys):
    main(["solve", PD, "--closed"])
    first = capsys.readouterr().out
    main(["solve", PD, "--closed"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv, builds", [
    (["solve", PD, "--closed"], 1),
    (["solve", PD, "--closed", "--monoid", "witness"], 1),
    (["solve", MPP], 1),
    (["oracle", PD], 1),
    (["fmt", PD], 0),
])
def test_only_solve_and_oracle_build_the_game_once(argv, builds, capsys, monkeypatch):
    # parsing type-checks the composition from the declared carriers, and
    # only the commands that judge the game build it, under the monoid
    # solve asks for
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_game(*args, **kwargs)

    monkeypatch.setattr(openarrows.cli, "build_game", counted)
    monkeypatch.setattr(openarrows.gamefile, "build_game", counted)
    assert main(argv) == 0
    assert len(calls) == builds


def test_solve_probes_mixed_survives(capsys):
    assert main(["solve", MPP]) == 0
    out = dict(line.split("\t") for line in _lines(capsys))
    assert out == {
        "mixed": "true", "pure_hh": "false", "pure_ht": "false",
        "pure_th": "false", "pure_tt": "false",
    }


def test_solve_probes_a_decision_with_an_observation(tmp_path, capsys):
    # each probed move is a constant strategy out of the observed set
    f = tmp_path / "observe.game"
    f.write_text(
        "set obs a b\nset moves H T\nset util 0 1\n"
        "probdecision q : obs -> moves utility util\n"
        "game g = q\n"
        "context c\n  state a\n  cont H = 1\n  cont T = 0\n"
        "probe best\n  q = H 1\n"
        "probe worse\n  q = T 1\n"
    )
    assert main(["solve", str(f), "--context", "c"]) == 0
    assert dict(line.split("\t") for line in _lines(capsys)) == {
        "best": "true", "worse": "false",
    }


def test_solve_witness_monoid_lists_deviations(capsys):
    assert main(["solve", PD, "--closed", "--monoid", "witness"]) == 0
    out = dict(line.split("\t") for line in _lines(capsys))
    assert out["D,D"] == "[]"
    assert out["C,C"] != "[]"


@pytest.mark.parametrize("game, err", [
    ("(seq (par d e) p)", "probabilistic games judge Booleans only"),
    ("(seq d e)", "at (seq d e): cannot sequence"),
])
def test_solve_witness_refuses_probabilistic_games_after_type_checking(
    game, err, tmp_path, capsys
):
    f = tmp_path / "prob.game"
    f.write_text(
        "set m a b\nset u 0 1\nprobdecision d : m utility u\n"
        "probdecision e : m utility u\npayoff p : m m -> u u\n"
        "  a a = 0 0\n  a b = 0 1\n  b a = 1 0\n  b b = 1 1\n"
        f"game g = {game}\nprobe q\n  d = a 1\n  e = b 1\n"
    )
    assert main(["solve", str(f), "--monoid", "witness"]) == 2
    assert err in capsys.readouterr().err


def test_solve_unknown_context_exits_2(capsys):
    assert main(["solve", PD, "--context", "ghost"]) == 2


def _dilemma_with_term(term: str) -> str:
    text = pathlib.Path(PD).read_text()
    return text.replace("game pd = (seq (par row col) u)", f"game pd = {term}")


def test_fmt_of_a_seven_player_term_builds_nothing(tmp_path, capsys):
    # building this game took 8 s, and each further player multiplies that
    # by about 8; fmt only type-checks it
    term = "(par row col)"
    for _ in range(5):
        term = f"(par {term} col)"
    f = tmp_path / "seven.game"
    f.write_text(_dilemma_with_term(term))
    start = time.perf_counter()
    assert main(["fmt", str(f)]) == 0
    assert time.perf_counter() - start < 1
    assert f"game pd = {term}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fmt", "solve", "oracle"])
def test_a_term_too_deep_to_parse_exits_2(command, tmp_path, capsys):
    term = "row"
    for _ in range(1500):
        term = f"(seq {term} u)"
    f = tmp_path / "deep.game"
    f.write_text(_dilemma_with_term(term))
    assert main([command, str(f)]) == 2
    assert "composition term nested deeper than" in capsys.readouterr().err


def test_solve_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("set s 0 1\nwat\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 2, column 1" in capsys.readouterr().err


def test_solve_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.game"
    empty.write_text("\n")
    assert main(["solve", str(empty)]) == 2
    assert "no game declared" in capsys.readouterr().err


def test_oracle_agrees_on_fixtures(capsys):
    assert main(["oracle", PD]) == 0
    assert "agree\ttrue" in _lines(capsys)
    assert main(["oracle", MP, "--format", "json"]) == 0
    row = json.loads(_lines(capsys)[0])
    assert row["schema"] == "openarrows.oracle/1"
    assert row["compositional"] == [] and row["oracle"] == []


def test_oracle_rejects_other_shapes_with_4(tmp_path, capsys):
    seq_only = tmp_path / "seq.game"
    seq_only.write_text(
        "set moves C D\nset util 0 1\n"
        "payoff u : moves moves -> util util\n"
        "  C C = 1 1\n  C D = 0 0\n  D C = 0 0\n  D D = 1 1\n"
        "decision row : moves utility util\n"
        "decision col : moves utility util\n"
        "game g = (par row col)\n"
    )
    assert main(["oracle", str(seq_only)]) == 4


def test_laws_stream_and_exit_zero(capsys):
    assert main(["laws", "--suite", "optic", "--format", "json"]) == 0
    rows = [json.loads(line) for line in _lines(capsys)]
    assert rows and all(r["schema"] == "openarrows.laws/1" for r in rows)
    assert all(r["status"] == "pass" for r in rows)


def test_laws_size_bound_exits_3(capsys):
    assert main(["laws", "--suite", "optic", "--size", "3"]) == 3
    assert main(["laws", "--suite", "optic", "--size", "4"]) == 3
    assert "size 4 exceeds the bound of 3" in capsys.readouterr().err


@pytest.mark.parametrize("suite,size", [("optic", "0"), ("arrow", "-1"),
                                        ("graded", "0"), ("all", "0")])
def test_laws_size_below_one_exits_2(suite, size, capsys):
    assert main(["laws", "--suite", suite, "--size", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--size must be at least 1, got {size}" in captured.err


def test_laws_mutants_exit_nonzero_and_isolate(capsys):
    assert main(["laws", "--mutants", "--format", "json"]) == 1
    rows = [json.loads(line) for line in _lines(capsys)]
    assert all(r["schema"] == "openarrows.mutants/1" for r in rows)
    for r in rows:
        assert r["failed"] == [r["target"]]
        assert r["isolated"] is True


_LAZY_REGISTRY = """
import contextlib, io, sys
from openarrows.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["laws", "--suite", "optic", "--size", "1"])
after_suite = "openarrows.mutants" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    main(["laws", "--mutants"])
print(after_suite, "openarrows.mutants" in sys.modules)
"""


def test_only_the_mutant_battery_loads_the_registry():
    # a fresh interpreter: this one may have imported the registry already
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(openarrows.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_REGISTRY], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.split() == ["False", "True"]


_MEMO_LIFETIME = """
import contextlib, io, json, sys
from openarrows import finset
from openarrows.cli import main
for argv in (["solve", sys.argv[1], "--closed"], ["laws", "--suite", "optic", "--size", "1"]):
    outs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(argv)
        outs.append([rc, out.getvalue()])
        print(json.dumps([argv[0], [len(m) for m in finset._IDENTITY_MEMOS]]))
    print(json.dumps([argv[0], outs[0] == outs[1], outs[0][0]]))
"""


def test_each_cli_call_empties_the_identity_memos():
    # a fresh interpreter: product and PAIR.tensor memoise nothing at import
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(openarrows.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _MEMO_LIFETIME, PD], env=env, capture_output=True,
        text=True,
    )
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert rows == [
        ["solve", [0, 0]], ["solve", [0, 0]], ["solve", True, 0],
        ["laws", [0, 0]], ["laws", [0, 0]], ["laws", True, 0],
    ], run.stderr


def test_fmt_round_trips_byte_identical(tmp_path, capsys):
    assert main(["fmt", PD]) == 0
    once = capsys.readouterr().out
    f = tmp_path / "canon.game"
    f.write_text(once)
    assert main(["fmt", str(f)]) == 0
    assert capsys.readouterr().out == once


LOHI = """set moves C D
set util lo hi
payoff u : moves moves -> util util
  C C = hi hi
  C D = lo hi
  D C = hi lo
  D D = lo lo
decision row : moves utility util
decision col : moves utility util
game pd = (seq (par row col) u)
"""


def _bad_inputs():
    mpp = pathlib.Path(MPP).read_text()
    return {
        "utility": (LOHI, "error: decision 'row' has utility 'lo', not a number\n"),
        "weight": (
            mpp.replace("even = H 1/2", "even = H 1/0", 1),
            "error: line 20, column 12: weight '1/0' is not a rational\n",
        ),
    }


@pytest.mark.parametrize("command", ["solve", "oracle", "fmt"])
@pytest.mark.parametrize("bad", ["utility", "weight"])
def test_non_numeric_utilities_and_zero_weights_exit_2(bad, command, tmp_path, capsys):
    # decisions judge in Fraction arithmetic: bad input, not an internal error
    text, err = _bad_inputs()[bad]
    f = tmp_path / "bad.game"
    f.write_text(text)
    assert main([command, str(f)]) == 2
    assert capsys.readouterr() == ("", err)


def test_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent.game"]) == 2


def _tool(name):
    # a script under tools/, loaded as a module
    path = pathlib.Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_snapshot_records_stdout_stderr_and_exit_code(tmp_path, capsys):
    tool = _tool("cli_snapshot")
    # the law suites at size 1 only; the refusals stay, as they run nothing
    runs = [r for r in tool.RUNS if r[:2] != ["laws", "--suite"] or r[4] != "2"]
    assert len(tool.RUNS) == 32 and len(runs) == 27
    tool.snapshot(tmp_path, runs)
    names = [tool.run_name(r) for r in runs]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [n + ext for n in names for ext in (".code", ".err", ".out")]
        + [f"mutant_{target}.reports" for target in LAWS]
    )
    codes = {n: (tmp_path / f"{n}.code").read_text() for n in names}
    assert {n for n, c in codes.items() if c != "0\n"} == {
        "laws_mutants", "laws_mutants_format_json",
        "laws_suite_context_size_3", "laws_suite_graded_size_4",
        "oracle_matching_pennies_prob", "oracle_matching_pennies_prob_format_json",
        "solve_matching_pennies_prob_closed_monoid_witness",
    }
    assert codes["laws_suite_graded_size_4"] == "3\n"
    assert main(["solve", PD, "--closed", "--format", "json"]) == 0
    out = (tmp_path / "solve_prisoners_dilemma_closed_format_json.out").read_text()
    assert out == capsys.readouterr().out
    assert "exceeds the bound" in (tmp_path / "laws_suite_graded_size_4.err").read_text()
    # a mutant's reports keep every field, one report a line
    lines = (tmp_path / "mutant_arrow.unit.reports").read_text().splitlines()
    assert lines and all(line.startswith("LawReport(law=") for line in lines)
    failing = [line for line in lines if "status='fail'" in line]
    assert len(failing) == 1 and "law='arrow.unit'" in failing[0]
    assert "checked=" in failing[0] and "counterexample=(" in failing[0]
    assert "equality=" in failing[0]


def test_node_count_totals_lines_and_syntax_tree_nodes(tmp_path):
    tool = _tool("node_count")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("def f():\n    return 2\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    # Module, Assign, Name, Store, Constant; Module, FunctionDef, arguments,
    # Return, Constant
    assert tool.counts(tmp_path / "a.py") == (1, 5)
    assert tool.report([tmp_path]).splitlines() == [
        f"      1        5  {tmp_path / 'a.py'}",
        f"      2        5  {tmp_path / 'b.py'}",
        "      3       10  total",
    ]
    assert tool.DEFAULT_DIR == pathlib.Path(openarrows.__file__).resolve().parent


def test_law_times_runs_each_suite_in_fresh_interpreters(monkeypatch):
    tool = _tool("law_times")
    src = str(pathlib.Path(openarrows.__file__).resolve().parents[1])
    rows = tool.measure([src], size=1, repeat=1)
    assert [row[:2] for row in rows] == [(suite, src) for suite in tool.SUITES]
    # set-up is measured as the suites are: importing the CLI in a fresh
    # interpreter
    assert tool.SUITES[0] == "import"
    for _, _, median, low, high, rss in rows:
        assert 0 < low == median == high and rss > 0
    lines = tool.render(rows).splitlines()
    assert lines[0] == "suite\ttree\tmedian_s\trange_s\tpeak_rss_mb"
    assert [line.split("\t")[0] for line in lines[1:]] == list(tool.SUITES)
    # which tree goes first alternates from one repetition to the next
    calls = []
    monkeypatch.setattr(tool, "run_once", lambda *args: calls.append(args) or (1.0, 2.0))
    tool.measure(["a", "b"], size=3, repeat=3)
    assert calls[:6] == [(t, "import", 3) for t in "abbaab"]
    assert len(calls) == 6 * len(tool.SUITES)
