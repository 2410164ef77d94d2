"""The declaration language: parsing, validation, printing, building."""

from __future__ import annotations

from fractions import Fraction

import pytest

from openarrows.gamefile import (
    ContextDecl,
    EndpointError,
    GameFileError,
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
