"""The headline guarantees, end to end.

One test per promise: the exhaustive law suites stay green inside their
time budgets, the displayed composition and strength formulas are
reproduced verbatim on bit carriers, the solved games match the
brute-force search exactly, mixed play is judged in exact rationals,
canonical forms invert the lens embedding, every planted defect is
caught in isolation, and family equality really is a congruence.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from openarrows.base import PAIR, PAIR_I, PairObj, bit_set
from openarrows.bimodule import CtxPair, ctx_of_arrow, with_eq
from openarrows.cli import main
from openarrows.finset import (
    BOOL_AND,
    STAR,
    UNIT,
    Dist,
    FinFun,
    FinSet,
    dist_product,
    dist_pure,
    product,
)
from openarrows.gamefile import fixture_path
from openarrows.games import (
    decision,
    decisions_to_normal_form,
    equilibria,
    nash_oracle,
    par,
    payoff_block,
    prob_decision,
    prob_payoff_block,
    seq,
    trivial_context,
)
from openarrows.grading import GRADES, ParamFamily, fam
from openarrows.laws import run_mutants, run_suite
from openarrows.lens import (
    Lens,
    all_lenses,
    lens_arrow,
    lens_comp,
    lens_strength,
)
from openarrows.optic import (
    embed_lens,
    optic_canonicalize,
    optic_comp,
)
from openarrows.record import replace

from references import cont_lens, eq_apply, point_lens

B = bit_set(2)
I = PAIR_I
X = PairObj(B, B)
EXPECTED_LAWS = Path(__file__).parents[1] / "perfbench" / "expected_laws.json"


def _all_pass(reports):
    bad = [(r.law, r.instance, r.counterexample)
           for r in reports if r.status != "pass"]
    assert not bad, bad
    return reports


# -- 1: the arrow-law suite, exhaustively, under a minute ---------------------

def test_arrow_suite_is_green_within_budget():
    start = time.monotonic()
    reports = _all_pass(run_suite("arrow", size=2))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"arrow suite took {elapsed:.1f} s (budget 60 s)"
    instances = {r.instance for r in reports}
    assert {"hom(set)", "lens", "witheq(lens,bool)",
            "fam(witheq(lens,bool))", "para(lens)"} <= instances


def _recorded(key):
    with open(EXPECTED_LAWS) as f:
        return sorted(json.load(f)[key])


def _rows(reports):
    return sorted([r.law, r.instance, r.status, r.checked] for r in reports)


@pytest.mark.parametrize("size", [1, 2])
def test_arrow_suite_case_counts_match_the_recorded_table(size):
    # run_suite caches per process, so after the gate above size 2 costs no run
    assert _rows(run_suite("arrow", size=size)) == _recorded(f"arrow@{size}")


def test_optic_arrow_suite_is_green():
    reports = _all_pass(run_suite("optic", size=2))
    assert {r.instance for r in reports} == {"optic(set)"}


@pytest.mark.parametrize("size", [1, 2])
def test_optic_case_counts_match_the_recorded_table(size):
    # size 2 is cached by the test above
    assert _rows(run_suite("optic", size=size)) == _recorded(f"optic@{size}")


# -- 2: bimodules and contexts, exhaustively, under a minute ------------------

def test_bimodule_and_context_suites_are_green_within_budget():
    start = time.monotonic()
    bim = _all_pass(run_suite("bimodule", size=2))
    ctx = _all_pass(run_suite("context", size=2))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"bimodule+context took {elapsed:.1f} s (budget 60 s)"
    assert {"ctx(lens)", "eq(lens,bool)", "eq(lens,witness)"} <= {
        r.instance for r in bim
    }
    assert {"ctx(lens)", "opticctx(lens)"} <= {r.instance for r in ctx}


@pytest.mark.parametrize("size", [1, 2])
def test_bimodule_and_context_case_counts_match_the_recorded_table(size):
    # size 2 is cached by the gate above, like the arrow table
    assert _rows(run_suite("bimodule", size=size)) == _recorded(f"bimodule@{size}")
    assert _rows(run_suite("context", size=size)) == _recorded(f"context@{size}")


# -- 3: graded structures with index sets of size <= 2 ------------------------

def test_graded_suite_is_green():
    start = time.monotonic()
    reports = _all_pass(run_suite("graded", size=2))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"graded suite took {elapsed:.1f} s (budget 30 s)"
    assert {"param(lens)", "twisted(set)", "bestresp(lens)",
            "probequib(lens)"} <= {r.instance for r in reports}


@pytest.mark.parametrize("size", [1, 2])
def test_graded_case_counts_match_the_recorded_table(size):
    # size 2 is cached by the test above
    assert _rows(run_suite("graded", size=size)) == _recorded(f"graded@{size}")


# -- 4: the displayed formulas, symbol for symbol on bit carriers -------------

LENS = lens_arrow([I, X])
CTX = ctx_of_arrow(LENS)
WEQ = with_eq(LENS, CTX, BOOL_AND)


def _ctx(j, k):
    # the context a point lens j and a continuation lens k stand for
    table = FinFun.of(k.src.fwd, k.src.bwd, lambda v: k.coplay(v, STAR))
    return CtxPair(k.src, j.dst, j.fwd(STAR), table)


def test_composition_formula_matches_the_pipeline_exactly():
    ms = WEQ.hom_cached(X, X)
    sample = ms[:: max(1, len(ms) // 7)]
    contexts = CTX.hom_cached(X, X)
    for m1 in sample:
        for m2 in sample:
            got = WEQ.comp(m1, m2)
            l1, h1 = m1.inner, m1.extra
            l2, h2 = m2.inner, m2.extra
            assert got.inner == lens_comp(l1, l2)
            expected = tuple(
                eq_apply(CTX, h2, _ctx(lens_comp(j, l1), k))
                and eq_apply(CTX, h1, _ctx(j, lens_comp(l2, k)))
                for j, k in (
                    (point_lens(X, c.state), cont_lens(X, c.cont)) for c in contexts
                )
            )
            assert got.extra.values == expected


def test_strength_formula_matches_the_pipeline_exactly():
    z = PairObj(B, UNIT)
    xz = PAIR.tensor(X, z)
    ms = WEQ.hom_cached(X, X)
    for m in ms[:: max(1, len(ms) // 9)]:
        got = WEQ.st(m, z)
        lens, h = m.inner, m.extra
        assert got.inner == lens_strength(lens, z)
        expected = []
        for b in CTX.hom_cached(xz, xz):
            x0, z0 = b.state
            padded = Lens(
                X, xz,
                FinFun.of(B, xz.fwd, lambda y, z0=z0: (y, z0)),
                FinFun.of(product(B, xz.bwd), B, lambda p: p[1][0]),
            )
            expected.append(eq_apply(CTX, h, _ctx(
                point_lens(X, x0), lens_comp(padded, cont_lens(xz, b.cont))
            )))
        assert got.extra.values == tuple(expected)


# -- 5: the two classic games, exactly, in under a second each ----------------

def _two_player(moves, pay, util):
    joint = product(moves, moves)
    u = FinFun.of(joint, product(util, util), lambda p: pay[p])
    d1 = decision(UNIT, moves, util)
    d2 = decision(UNIT, moves, util)
    g = seq(par(d1, d2), payoff_block(u))
    utils = [FinFun.of(joint, util, lambda p, i=i: pay[p][i]) for i in range(2)]
    return d1, d2, g, utils


def test_dilemma_yields_exactly_mutual_defection():
    start = time.monotonic()
    pay = {("C", "C"): (2, 2), ("C", "D"): (0, 3),
           ("D", "C"): (3, 0), ("D", "D"): (1, 1)}
    d1, d2, g, utils = _two_player(FinSet(("C", "D")), pay, FinSet((0, 1, 2, 3)))
    profiles = sorted(
        (j1(STAR), j2(STAR))
        for ((j1, j2), _), v in equilibria(g, trivial_context(g)).items() if v
    )
    assert profiles == [("D", "D")]
    oracle_eq, _ = nash_oracle(decisions_to_normal_form([d1, d2], utils))
    assert sorted(oracle_eq) == profiles
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"dilemma took {elapsed:.1f} s (budget 1 s)"


def test_pennies_yield_no_pure_equilibrium():
    start = time.monotonic()
    pay = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
           ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    d1, d2, g, utils = _two_player(FinSet(("H", "T")), pay, FinSet((-1, 1)))
    assert not [v for v in equilibria(g, trivial_context(g)).values() if v]
    oracle_eq, _ = nash_oracle(decisions_to_normal_form([d1, d2], utils))
    assert oracle_eq == []
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"pennies took {elapsed:.1f} s (budget 1 s)"


# -- 6: mixed pennies in exact rationals --------------------------------------

def test_uniform_mix_survives_and_every_pure_probe_fails():
    coins = FinSet(("H", "T"))
    vals = FinSet((-1, 1))
    pay = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
           ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    u = FinFun.of(product(coins, coins), product(vals, vals), lambda p: pay[p])
    pm = seq(
        par(prob_decision(UNIT, coins, vals), prob_decision(UNIT, coins, vals)),
        prob_payoff_block(u),
    )
    cc = trivial_context(pm)
    to_j = lambda m: FinFun.of(UNIT, coins, lambda _x, m=m: m)  # noqa: E731

    def joint(da, db):
        return dist_product(dist_product(da.map(to_j), db.map(to_j)),
                            dist_pure(STAR))

    half = Dist([("H", Fraction(1, 2)), ("T", Fraction(1, 2))])
    assert pm.judge(cc, joint(half, half)) is True
    for a in ("H", "T"):
        for b in ("H", "T"):
            assert pm.judge(cc, joint(dist_pure(a), dist_pure(b))) is False
    assert all(isinstance(w, Fraction) for _, w in joint(half, half).weights)


# -- 7: canonical forms invert the embedding, under thirty seconds ------------

def test_canonicalization_is_a_retraction_and_commutes():
    start = time.monotonic()
    objs = [I, PairObj(B, FinSet((STAR,))), PairObj(FinSet((STAR,)), B), X]
    for src in objs:
        for dst in objs:
            for lens in all_lenses(src, dst):
                assert optic_canonicalize(embed_lens(lens)) == lens
    for l1 in all_lenses(X, X):
        for l2 in all_lenses(X, I):
            got = optic_canonicalize(
                optic_comp(embed_lens(l1), embed_lens(l2))
            )
            assert got == lens_comp(l1, l2)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"canonicalization took {elapsed:.1f} s (budget 30 s)"


# -- 8: every planted defect is caught, and caught alone ----------------------

def test_mutant_battery_isolates_every_law():
    results = run_mutants()
    assert len(results) == 38
    for r in results:
        assert r.failed == (r.target,)
    table = sorted([r.target, list(r.failed), r.isolated] for r in results)
    assert table == _recorded("mutants")


def test_mutant_cli_run_exits_nonzero_listing_the_plants(capsys):
    assert main(["laws", "--mutants"]) == 1
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert all(target == failed.strip("[]") for target, failed, _ in rows)


# -- 9: family equality is an equivalence and a congruence --------------------

def _pool(x, y):
    bwd = FinFun.of(product(x.fwd, y.bwd), x.bwd, lambda _t: x.bwd.elements[0])
    return [
        Lens(x, y, FinFun.of(x.fwd, y.fwd, lambda _v, e=e: e), bwd)
        for e in y.fwd.elements[:2]
    ]


def test_family_laws_hold_up_to_index_bijection():
    FAM = fam(replace(LENS, hom=_pool))
    es = FAM.hom_cached(X, X)
    assert {e.grade for e in es} == set(GRADES)
    e1, e2, e3 = es[0], es[1], es[-1]
    unit = FAM.pure(PAIR.id(X))
    assert FAM.equal(FAM.comp(unit, e2), e2) is True
    assert FAM.equal(FAM.comp(e2, unit), e2) is True
    lhs = FAM.comp(FAM.comp(e1, e2), e3)
    rhs = FAM.comp(e1, FAM.comp(e2, e3))
    assert FAM.equal(lhs, rhs) is True

    m1, m2 = _pool(X, X)
    fams = [
        _family(FinSet((0, 1)), lambda j: (m1, m2)[j]),
        _family(FinSet(("p", "q")), lambda j: (m2, m1)[j == "p"]),
        _family(FinSet((0, 1)), lambda j: m1),
    ]
    for e in fams:
        assert FAM.equal(e, e)
    assert FAM.equal(fams[0], fams[1])
    assert FAM.equal(fams[1], fams[0])
    assert not FAM.equal(fams[0], fams[2])
    # congruence: composing equal families stays equal
    g1 = FAM.comp(fams[0], fams[2])
    g2 = FAM.comp(fams[1], fams[2])
    assert FAM.equal(g1, g2)


def _family(index, fn):
    return ParamFamily(X, X, index, tuple(fn(j) for j in index))


# -- the bundled fixtures drive the same answers through the CLI --------------

def test_cli_reproduces_the_acceptance_games(capsys):
    assert main(["solve", fixture_path("prisoners_dilemma.game"),
                 "--closed"]) == 0
    assert "D,D\ttrue" in capsys.readouterr().out
    assert main(["solve", fixture_path("matching_pennies_prob.game")]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert out["mixed"] == "true"
    assert all(out[k] == "false" for k in out if k != "mixed")
    assert main(["oracle", fixture_path("matching_pennies.game")]) == 0
