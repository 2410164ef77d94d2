"""The declaration language: parsing, validation, printing, building."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openarrows.cli import main
import openarrows.gamefile
from openarrows.gamefile import (
    MAX_TERM_DEPTH,
    Atom,
    ContextDecl,
    EndpointError,
    GameDecl,
    GameFile,
    GameFileError,
    Node,
    ParseError,
    build_game,
    fixture_path,
    format_game_file,
    parse_game_file,
    parse_game_text,
    probe_distribution,
    resolve_context,
    strategy_label,
)
from openarrows.games import equilibria, trivial_context

PD = """
set moves C D
set util 0 1 2 3
payoff u : moves moves -> util util
  C C = 2 2
  C D = 0 3
  D C = 3 0
  D D = 1 1
decision row : moves utility util
decision col : moves utility util
game pd = (seq (par row col) u)
"""


def test_round_trip_through_the_printer():
    gf = parse_game_text(PD)
    printed = format_game_file(gf)
    assert parse_game_text(printed) == gf
    # printing is idempotent byte for byte
    assert format_game_file(parse_game_text(printed)) == printed


def test_fixtures_parse_and_round_trip():
    for name in ("prisoners_dilemma.game", "matching_pennies.game",
                 "matching_pennies_prob.game"):
        gf = parse_game_file(fixture_path(name))
        assert parse_game_text(format_game_file(gf)) == gf


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_game_text("set s 0 1\nwat is this\n")
    assert exc.value.line == 2 and exc.value.col == 1
    assert "line 2, column 1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_game_text("set s 0 1\nset t 0 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_game_text(PD.replace("(seq", "(zip"))
    assert "zip" in str(exc.value)


def test_no_game_declared():
    with pytest.raises(GameFileError, match="no game declared"):
        parse_game_text("")
    with pytest.raises(GameFileError, match="no game declared"):
        parse_game_text("set s 0 1\n")


def test_single_namespace_and_duplicate_detection():
    with pytest.raises(ParseError, match="duplicate"):
        parse_game_text("set u 0 1\n" + PD.lstrip())


def test_payoff_table_must_be_total_and_unambiguous():
    broken = PD.replace("  D D = 1 1\n", "")
    with pytest.raises(GameFileError, match="exactly once"):
        parse_game_text(broken)


def test_payoff_values_must_live_in_their_sets():
    broken = PD.replace("D D = 1 1", "D D = 1 9")
    with pytest.raises(GameFileError, match="outside"):
        parse_game_text(broken)


def test_endpoint_mismatch_is_reported_at_the_node():
    broken = PD.replace("game pd = (seq (par row col) u)",
                        "game pd = (seq row u)")
    with pytest.raises(EndpointError):
        parse_game_text(broken)


def test_an_endpoint_error_keeps_the_message_of_building():
    broken = PD.replace("(seq (par row col) u)", "(seq u (par row col))")
    with pytest.raises(EndpointError) as exc:
        parse_game_text(broken)
    assert str(exc.value) == (
        "at (seq u (par row col)): cannot sequence a game into ({*}, {*}) "
        "with one out of ({('*', '*')}, {('*', '*')})"
    )


# declarations for generated terms: two-player and one-player payoff
# blocks, a lift, and decisions with and without an observation
_ATOMS = """
set moves C D
set util 0 1
payoff u : moves moves -> util util
  C C = 1 1
  C D = 0 1
  D C = 1 0
  D D = 0 0
payoff v : moves -> util
  C = 1
  D = 0
lift sw : moves -> moves
  C = D
  D = C
decision row : moves utility util
decision obs : moves -> moves utility util
game g = row
"""

_TERMS = st.recursive(
    st.sampled_from(["row", "obs", "u", "v", "sw"]).map(Atom),
    lambda sub: st.builds(Node, st.sampled_from(["seq", "par"]), sub, sub),
    max_leaves=4,
)


def _refusal(fn):
    try:
        fn()
    except GameFileError as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TERMS)
def test_type_checking_by_endpoints_agrees_with_building(term):
    # parsing checks endpoints from the declarations; building composes the
    # games and checks them again in seq: both refuse the same terms, first
    # error for first error
    base = parse_game_text(_ATOMS)
    gf = GameFile(base.decls[:-1] + (GameDecl("g", term),))
    assert _refusal(lambda: parse_game_text(format_game_file(gf))) == _refusal(
        lambda: build_game(gf))


def _players(n: int) -> str:
    expr = "(par row col)"
    for _ in range(n - 2):
        expr = f"(par {expr} col)"
    return PD.replace("(seq (par row col) u)", expr)


def test_parsing_type_checks_many_players_without_building(monkeypatch):
    # seven players: 2^7 moves and 4^7 payoffs per carrier, which building
    # took seconds over; endpoints alone are read off the declarations
    def refuse(*args):
        raise AssertionError("parsing built a game")

    for name in ("build_game", "seq", "par"):
        monkeypatch.setattr(openarrows.gamefile, name, refuse)
    gf = parse_game_text(_players(7))
    assert format_game_file(gf).count("(par") == 6
    # a balanced term of 301 players: carriers of 2^301 points, never built
    terms = ["row"] + ["col"] * 300
    while len(terms) > 1:
        terms = [f"(par {a} {b})" for a, b in zip(terms[::2], terms[1::2])] + (
            terms[-1:] if len(terms) % 2 else [])
    parse_game_text(PD.replace("(seq (par row col) u)", terms[0]))
    with pytest.raises(EndpointError, match="at \\(seq u \\(par"):
        parse_game_text(PD.replace("(seq (par row col) u)", "(seq u (par row col))"))


def test_a_term_nested_too_deep_is_a_parse_error():
    def chain(depth):
        expr = "row"
        for _ in range(depth):
            expr = f"(par {expr} col)"
        return PD.replace("game pd = (seq (par row col) u)", f"game pd = {expr}")

    assert parse_game_text(chain(MAX_TERM_DEPTH)).game.expr.op == "par"
    with pytest.raises(ParseError) as exc:
        parse_game_text(chain(MAX_TERM_DEPTH + 1))
    # at the first parenthesis too many: "game pd = " then "(par " per level
    column = len("game pd = ") + 1 + len("(par ") * MAX_TERM_DEPTH
    assert str(exc.value) == (f"line 11, column {column}: composition term "
                              f"nested deeper than {MAX_TERM_DEPTH}")


def test_mixing_plain_and_probabilistic_decisions_is_rejected():
    broken = PD.replace("decision col", "probdecision col")
    with pytest.raises(GameFileError, match="mix"):
        parse_game_text(broken)


def test_probe_weights_must_sum_to_one():
    text = PD.replace("decision row", "probdecision row").replace(
        "decision col", "probdecision col"
    ) + "probe p\n  row = C 1/2 D 1/4\n  col = D 1\n"
    with pytest.raises(ParseError, match="sum to 1"):
        parse_game_text(text)


@pytest.mark.parametrize("command", ["solve", "fmt"])
def test_negative_probe_weight_is_a_parse_error(command, tmp_path, capsys):
    # the weights sum to 1, so only the sign check catches the row
    text = PD.replace("decision row", "probdecision row").replace(
        "decision col", "probdecision col"
    ) + "probe p\n  row = C -1/2 D 3/2\n  col = D 1\n"
    f = tmp_path / "neg.game"
    f.write_text(text)
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: line 13, column 11: weight '-1/2' is negative\n"
    )


@pytest.mark.parametrize("command", ["solve", "fmt"])
def test_zero_denominator_probe_weight_is_a_parse_error(command, tmp_path, capsys):
    text = PD.replace("decision row", "probdecision row").replace(
        "decision col", "probdecision col"
    ) + "probe p\n  row = C 1/0 D 1\n  col = D 1\n"
    f = tmp_path / "zero.game"
    f.write_text(text)
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: line 13, column 11: weight '1/0' is not a rational\n"
    )


@pytest.mark.parametrize("kind", ["decision", "probdecision"])
@pytest.mark.parametrize("bad", ["hi", "*", "1/0"])
def test_decision_utilities_must_be_numbers(bad, kind):
    # decisions judge in Fraction arithmetic, so a utility set holds numbers
    # only, even an element no payoff pays
    text = PD.replace("set util 0 1 2 3", f"set util 0 1 2 3 {bad}")
    text = text.replace("decision row", f"{kind} row").replace(
        "decision col", f"{kind} col"
    )
    with pytest.raises(GameFileError) as exc:
        parse_game_text(text)
    assert str(exc.value) == f"decision 'row' has utility {bad!r}, not a number"


def test_decimal_and_fraction_utilities_solve():
    for spelled in ("7/2", "3.5"):
        text = PD.replace(" 3", f" {spelled}")
        assert text.count(spelled) == 3
        built = build_game(parse_game_text(text))
        verdicts = equilibria(built.game, trivial_context(built.game))
        assert [strategy_label(j) for j, v in verdicts.items() if v] == ["D,D"]


# utility elements and probe weights: integers, p/q with q in 0..3, the
# one-point element and names
_TOKENS = st.one_of(
    st.integers(-2, 3).map(str),
    st.builds("{}/{}".format, st.integers(-2, 3), st.integers(0, 3)),
    st.sampled_from(["*", "lo", "hi"]),
)


@st.composite
def _two_player_texts(draw):
    kind = draw(st.sampled_from(["decision", "probdecision"]))
    utils = draw(st.lists(_TOKENS, min_size=1, max_size=3, unique=True))
    rows = "".join(
        f"  {a} {b} = {draw(st.sampled_from(utils))} {draw(st.sampled_from(utils))}\n"
        for a in "CD" for b in "CD"
    )
    text = (
        f"set moves C D\nset util {' '.join(utils)}\n"
        f"payoff u : moves moves -> util util\n{rows}"
        f"{kind} row : moves utility util\n{kind} col : moves utility util\n"
        "game g = (seq (par row col) u)\n"
    )
    if kind == "probdecision":
        text += f"probe p\n  row = C {draw(_TOKENS)} D {draw(_TOKENS)}\n  col = D 1\n"
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_two_player_texts())
def test_generated_games_are_refused_or_solve(text):
    # bad input is a GameFileError; a game the parser returns solves
    try:
        gf = parse_game_text(text)
    except GameFileError:
        return
    built = build_game(gf)
    ctx = trivial_context(built.game)
    if built.prob:
        for probe in gf.probes.values():
            built.game.judge(ctx, probe_distribution(gf, built, probe))
    else:
        equilibria(built.game, ctx)


def test_probe_distribution_follows_the_composition_tree():
    gf = parse_game_file(fixture_path("matching_pennies_prob.game"))
    built = build_game(gf)
    d = probe_distribution(gf, built, gf.probes["mixed"])
    assert len(d.weights) == 4
    assert all(w == Fraction(1, 4) for _, w in d.weights)


def test_resolve_context_checks_compatibility():
    gf = parse_game_text(PD)
    built = build_game(gf)
    ctx = resolve_context(gf, built, None)
    assert ctx.dst == built.game.src
    gf2 = parse_game_text(
        PD + "context bad\n  state C\n  cont C = 0\n"
    )
    built2 = build_game(gf2)
    with pytest.raises(GameFileError):
        resolve_context(gf2, built2, "bad")
    with pytest.raises(GameFileError, match="no context named"):
        resolve_context(gf, built, "ghost")


def test_strategy_labels_skip_bookkeeping_parts():
    gf = parse_game_text(PD)
    built = build_game(gf)
    labels = sorted(strategy_label(j) for j in built.game.index)
    assert labels == ["C,C", "C,D", "D,C", "D,D"]


def test_trivial_context_decl_matches_closed_solving():
    gf = parse_game_text(PD + "context closed trivial\n")
    built = build_game(gf)
    assert isinstance(gf.contexts["closed"], ContextDecl)
    assert resolve_context(gf, built, "closed").state == \
        resolve_context(gf, built, None).state


PROB_PD = PD.replace("decision row", "probdecision row").replace(
    "decision col", "probdecision col"
)
REPEATED_ROWS = {
    "cont": (
        PD + "context c\n  state *\n  cont C = 1\n  cont D = 0\n  cont C = 0\n",
        "error: line 16, column 3: context 'c' pays 'C' twice\n",
    ),
    "state": (
        PD + "context c\n  state *\n  cont C = 1\n  state *\n  cont D = 0\n",
        "error: line 15, column 3: context 'c' declares a second state\n",
    ),
    "probe": (
        PROB_PD + "probe p0\n  row = C 1\n  col = C 1\n  row = D 1\n",
        "error: line 15, column 3: probe 'p0' assigns 'row' twice\n",
    ),
}


@pytest.mark.parametrize("command", ["solve", "fmt"])
@pytest.mark.parametrize("row", sorted(REPEATED_ROWS))
def test_repeated_rows_are_parse_errors(row, command, tmp_path, capsys):
    # a second row for the same slot would otherwise silently win
    text, err = REPEATED_ROWS[row]
    f = tmp_path / "repeated.game"
    f.write_text(text)
    extra = ["--context", "c"] if command == "solve" and row != "probe" else []
    assert main([command, str(f)] + extra) == 2
    assert capsys.readouterr().err == err
