"""Open games end to end: solving, composing, and the brute-force oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openarrows import laws
from openarrows.base import PAIR_I, PairObj
from openarrows.bimodule import CtxPair, ctx_of_arrow
from openarrows.finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    CompositionError,
    Dist,
    DomainError,
    FinFun,
    FinSet,
    dist_product,
    dist_pure,
    product,
    witnesses_empty,
)
from openarrows.games import (
    GAME_CTX,
    OpenGame,
    RowElement,
    context_count,
    decision,
    decisions_to_normal_form,
    equilibria,
    lift_covariant,
    map_monoid,
    nash_oracle,
    par,
    payoff_block,
    prob_decision,
    prob_payoff_block,
    row_bimodule,
    seq,
    trivial_context,
)
from openarrows.grading import GradedPairMor, ParamFamily, SizeError
from openarrows.record import replace

from references import eq_apply

MOVES = FinSet(("C", "D"))
COINS = FinSet(("H", "T"))
UTIL4 = FinSet((0, 1, 2, 3))
PM1 = FinSet((-1, 1))

PD_PAY = {
    ("C", "C"): (2, 2), ("C", "D"): (0, 3),
    ("D", "C"): (3, 0), ("D", "D"): (1, 1),
}
MP_PAY = {
    ("H", "H"): (1, -1), ("H", "T"): (-1, 1),
    ("T", "H"): (-1, 1), ("T", "T"): (1, -1),
}


def _two_player(moves, pay, util):
    joint = product(moves, moves)
    u = FinFun.of(joint, product(util, util), lambda p: pay[p])
    d1 = decision(UNIT, moves, util)
    d2 = decision(UNIT, moves, util)
    return d1, d2, seq(par(d1, d2), payoff_block(u))


def _profiles(table):
    return sorted(
        (j1(STAR), j2(STAR)) for ((j1, j2), _), v in table.items() if v
    )


def test_prisoners_dilemma_has_exactly_dd():
    _, _, g = _two_player(MOVES, PD_PAY, UTIL4)
    assert _profiles(equilibria(g, trivial_context(g))) == [("D", "D")]


def test_matching_pennies_has_no_pure_equilibrium():
    _, _, g = _two_player(COINS, MP_PAY, PM1)
    assert _profiles(equilibria(g, trivial_context(g))) == []


@pytest.mark.parametrize(
    "moves,pay,util",
    [(MOVES, PD_PAY, UTIL4), (COINS, MP_PAY, PM1)],
    ids=["dilemma", "pennies"],
)
def test_oracle_agrees_with_composition(moves, pay, util):
    d1, d2, g = _two_player(moves, pay, util)
    joint = product(moves, moves)
    utils = [FinFun.of(joint, util, lambda p, i=i: pay[p][i]) for i in range(2)]
    oracle_eq, report = nash_oracle(decisions_to_normal_form([d1, d2], utils))
    assert sorted(oracle_eq) == _profiles(equilibria(g, trivial_context(g)))
    # every rejected profile comes with at least one profitable deviation
    for profile, devs in report.items():
        if profile not in oracle_eq:
            assert devs


def test_witness_verdicts_transport_to_booleans():
    joint = product(MOVES, MOVES)
    u = FinFun.of(joint, product(UTIL4, UTIL4), lambda p: PD_PAY[p])

    def wdec():
        return decision(UNIT, MOVES, UTIL4, m_monoid=WITNESSES)

    gw = seq(par(wdec(), wdec()), payoff_block(u, m_monoid=WITNESSES))
    _, _, gb = _two_player(MOVES, PD_PAY, UTIL4)
    wit = equilibria(gw, trivial_context(gw))
    boo = equilibria(gb, trivial_context(gb))
    assert set(map(repr, wit)) == set(map(repr, boo))
    for k in wit:
        assert witnesses_empty(wit[k]) == boo[k]


def test_map_monoid_collapses_witnesses():
    d = decision(UNIT, MOVES, UTIL4, m_monoid=WITNESSES)
    db = map_monoid(d, BOOL_AND, witnesses_empty)
    k = FinFun.of(MOVES, UTIL4, {"C": 0, "D": 3})
    ctx = CtxPair(d.dst, d.src, STAR, k)
    assert db.row(ctx) == tuple(map(witnesses_empty, d.row(ctx)))


def decision_relation(d: OpenGame) -> RowElement:
    """The canonical relation of a decision: the second profile is a better move.

    A profile is a fixed point (related above every other) exactly when
    it is a weak-argmax equilibrium.
    """

    def row(c: CtxPair) -> frozenset:
        pay = {j: Fraction(c.cont(d.play(j).fwd(c.state))) for j in d.index}
        return frozenset(
            (j1, j2) for j1, j2 in itertools.product(d.index, repeat=2)
            if pay[j2] >= pay[j1]
        )

    return RowElement(d.src, d.dst, d.index, row)


def best_response_fixed_points(b: RowElement, c: CtxPair) -> list:
    row = b.row(c)
    return [j for j in b.grade if all((i, j) in row for i in b.grade)]


def test_best_response_fixed_points_match_equilibria():
    d = decision(UNIT, MOVES, UTIL4)
    k = FinFun.of(MOVES, UTIL4, {"C": 0, "D": 3})
    ctx = CtxPair(d.dst, d.src, STAR, k)
    fps = best_response_fixed_points(decision_relation(d), ctx)
    assert sorted(j(STAR) for j in fps) == ["D"]


def test_lift_is_never_strategic():
    relabel = FinFun.of(COINS, MOVES, {"H": "C", "T": "D"})
    g = lift_covariant(relabel)
    assert len(g.index) == 1


def test_seq_rejects_mismatched_interfaces():
    d = decision(UNIT, MOVES, UTIL4)
    e = decision(UNIT, COINS, PM1)
    with pytest.raises(ValueError):
        seq(d, e)


# ---------- probabilistic play ----------

def _prob_two_player(moves, pay, util):
    joint = product(moves, moves)
    u = FinFun.of(joint, product(util, util), lambda p: pay[p])
    p1 = prob_decision(UNIT, moves, util)
    p2 = prob_decision(UNIT, moves, util)
    return seq(par(p1, p2), prob_payoff_block(u))


def _joint(moves, da, db):
    to_j = lambda m: FinFun.of(UNIT, moves, lambda _x, m=m: m)  # noqa: E731
    return dist_product(
        dist_product(da.map(to_j), db.map(to_j)), dist_pure(STAR)
    )


HALF = Dist([("H", Fraction(1, 2)), ("T", Fraction(1, 2))])
THIRD = Dist([("H", Fraction(1, 3)), ("T", Fraction(2, 3))])


def test_mixed_pennies_uniform_is_the_only_survivor():
    pm = _prob_two_player(COINS, MP_PAY, PM1)
    cc = trivial_context(pm)
    assert pm.judge(cc, _joint(COINS, HALF, HALF)) is True
    for a in ("H", "T"):
        for b in ("H", "T"):
            assert pm.judge(cc, _joint(COINS, dist_pure(a), dist_pure(b))) is False
    assert pm.judge(cc, _joint(COINS, THIRD, HALF)) is False
    assert pm.judge(cc, _joint(COINS, HALF, THIRD)) is False
    assert pm.judge(cc, _joint(COINS, THIRD, THIRD)) is False


def test_mixed_dilemma_point_mass_at_dd_passes():
    ppd = _prob_two_player(MOVES, PD_PAY, UTIL4)
    cc = trivial_context(ppd)
    assert ppd.judge(cc, _joint(MOVES, dist_pure("D"), dist_pure("D"))) is True
    assert ppd.judge(cc, _joint(MOVES, dist_pure("C"), dist_pure("D"))) is False
    mixed = HALF.map(lambda c: {"H": "C", "T": "D"}[c])
    assert ppd.judge(cc, _joint(MOVES, mixed, dist_pure("D"))) is False


def _uniform(points) -> Dist:
    # built in reverse, so the support's order is the Dist's own
    w = Fraction(1, len(points))
    return Dist([(p, w) for p in reversed(points)])


def test_a_support_of_contexts_is_ordered_by_repr():
    # states 1, 10 and 2 sort as text; at one state the table decides
    x = PairObj(FinSet(("a", "b")), FinSet((0, 1)))
    ctxs = GAME_CTX.hom(x, PairObj(FinSet((1, 10, 2)), UNIT))
    support = _uniform(ctxs).support
    assert support == tuple(sorted(ctxs, key=repr))
    assert [(c.state, c.cont.table) for c in support[3:6]] == [
        (1, (1, 1)), (10, (0, 0)), (10, (0, 1)),
    ]
    assert [c.state for c in support[::4]] == [1, 10, 2]


def test_a_support_of_strategy_profiles_is_ordered_by_repr():
    # profiles of two decisions, one observing the coin: moves y, x sort
    # as x, y, against the order strategies are enumerated in
    g = par(decision(COINS, FinSet(("y", "x")), UTIL4), decision(UNIT, COINS, UTIL4))
    support = _uniform(g.index.elements).support
    assert support == tuple(sorted(g.index.elements, key=repr))
    assert [(j1.table, j2(STAR)) for j1, j2 in support[:3]] == [
        (("x", "x"), "H"), (("x", "x"), "T"), (("x", "y"), "H"),
    ]


def test_context_count_is_the_number_of_contexts_enumerated():
    carriers = [FinSet(range(n)) for n in (1, 2, 3)]
    objs = [PairObj(f, b) for f in carriers for b in carriers]
    for x, y in itertools.product(objs, repeat=2):
        assert context_count(x, y) == len(GAME_CTX.hom(x, y)), (x, y)


def test_trivial_context_requires_a_closed_game():
    d = decision(UNIT, MOVES, UTIL4)
    with pytest.raises(DomainError):
        trivial_context(d)


def test_context_repr_holds_no_address():
    # a Dist orders its support by repr: contexts that differ only in their
    # continuation table sort the same in every run, whatever the order
    # they were built in, and equal contexts merge
    d = decision(UNIT, MOVES, UTIL4)
    c1, c2 = (
        CtxPair(d.dst, d.src, STAR, FinFun.of(MOVES, UTIL4, {"C": v, "D": 0}))
        for v in (0, 1)
    )
    assert repr(c1) != repr(c2)
    assert " at 0x" not in repr(c1)
    half = Fraction(1, 2)
    order = [c for c, _ in Dist([(c1, half), (c2, half)]).weights]
    assert order == [c for c, _ in Dist([(c2, half), (c1, half)]).weights]
    assert sorted(order, key=repr) == order == [c1, c2]
    twin = CtxPair(d.dst, d.src, STAR, FinFun.of(MOVES, UTIL4, {"C": 0, "D": 0}))
    assert Dist([(c1, half), (twin, half)]).weights == ((c1, Fraction(1)),)


# ---------- one composition path ----------

ONE = FinSet((STAR,))


def _suite_eq_bimodules():
    # the tabulated equilibrium bimodules the bimodule suite checks
    found = {}

    def record(b, name, *args):
        found[name] = b
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "check_bimodule", record)
        mp.setattr(laws, "check_eqmonoid", record)
        laws.bimodule_suite(2)
    return {"bool": (found["eq(lens,bool)"], BOOL_AND),
            "witness": (found["eq(lens,witness)"], WITNESSES)}


@pytest.mark.parametrize("monoid", ["bool", "witness"])
def test_row_actions_match_the_tabulated_equilibrium_bimodule(monoid):
    # every tabulated predicate, lifted to a one-grade row, is acted on and
    # strengthened as the law-checked tabulated bimodule does, at every context
    eq, m_monoid = _suite_eq_bimodules()[monoid]
    rows = row_bimodule(m_monoid)
    lens = eq.arrow
    cb = ctx_of_arrow(lens)
    objs = list(dict.fromkeys(lens.objects))

    def lift(h):
        return RowElement(h.src, h.dst, ONE, lambda c: (eq_apply(cb, h, c),))

    def family(a):
        return ParamFamily(a.src, a.dst, ONE, (a,))

    def agree(got, want):
        contexts = cb.hom_cached(want.dst, want.src)
        assert (got.src, got.dst, len(got.grade)) == (want.src, want.dst, 1)
        for c in contexts:
            assert got.row(c) == (eq_apply(cb, want, c),), (want, c)
        return len(contexts)

    for x, y in itertools.product(objs, repeat=2):
        hs = eq.hom_cached(x, y)
        for h1, h2 in itertools.product(hs, repeat=2):
            assert rows.equal(lift(h1), lift(h2)) == (h1 == h2)
    checked = 0
    for x, y, z in itertools.product(objs, repeat=3):
        for a in lens.hom_cached(x, y):
            for h in eq.hom_cached(y, z):
                checked += agree(rows.glact(family(a), lift(h)), eq.lact(a, h))
        for h in eq.hom_cached(x, y):
            checked += agree(rows.st(lift(h), z), eq.st(h, z))
            for a in lens.hom_cached(y, z):
                checked += agree(rows.gract(lift(h), family(a)), eq.ract(h, a))
    assert checked > 1000


def test_row_regrade_permutes_and_merge_combines_position_by_position():
    rows = row_bimodule(WITNESSES)
    grade = FinSet((0, 1, 2))
    b = RowElement(PAIR_I, PAIR_I, grade, lambda c: (("a",), (), ("b",)))
    phi = FinFun.of(grade, grade, {0: 2, 1: 0, 2: 1})
    c = GAME_CTX.hom_cached(PAIR_I, PAIR_I)[0]
    moved = rows.regrade(phi, b)
    assert moved.row(c) == (("b",), ("a",), ())
    assert rows.m(b, moved).row(c) == (("a", "b"), ("a",), ("b",))
    assert rows.m(rows.e(grade, PAIR_I, PAIR_I), b).row(c) == b.row(c)



@pytest.mark.parametrize("m_monoid", [BOOL_AND, WITNESSES])
def test_row_actions_refuse_mismatched_endpoints(m_monoid):
    rows = row_bimodule(m_monoid)
    d = decision(UNIT, MOVES, UTIL4, m_monoid=m_monoid)
    # the plays run (1, 1) -> (MOVES, UTIL4), and so does the row: neither
    # action composes them
    with pytest.raises(CompositionError, match="left action"):
        rows.glact(d.plays, d.judgement)
    with pytest.raises(CompositionError, match="right action"):
        rows.gract(d.judgement, d.plays)

MOVES7 = FinSet(tuple(f"m{i}" for i in range(7)))
UTIL7 = FinSet(tuple(range(7)))


def test_composing_evaluates_no_judgement_and_enumerates_no_context(monkeypatch):
    rows_read = []

    def spied(g):
        row = g.judgement.row

        def counted(c):
            rows_read.append(c)
            return row(c)

        judgement = replace(g.judgement, row=counted)
        return OpenGame(g.arrow, GradedPairMor(g.plays, judgement))

    def no_enumeration(*args):
        raise AssertionError("a game context was enumerated")

    u = FinFun.of(product(MOVES7, MOVES7), product(UTIL7, UTIL7),
                  lambda p: (int(p[0][1]), int(p[1][1])))
    d1, d2 = (spied(decision(UNIT, MOVES7, UTIL7)) for _ in range(2))
    with monkeypatch.context() as mp:
        mp.setattr(GAME_CTX, "hom", no_enumeration)
        mp.setattr(GAME_CTX, "hom_cached", no_enumeration)
        g = seq(par(d1, d2), payoff_block(u))
    assert rows_read == []
    assert len(g.index) == 49
    # each decision's row is read once per strategy of the other player
    assert _profiles(equilibria(g, trivial_context(g))) == [("m6", "m6")]
    assert len(rows_read) == 14


def test_comparing_games_with_too_many_contexts_fails_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("a game context was enumerated")

    g = par(decision(UNIT, MOVES7, UTIL7), decision(UNIT, MOVES7, UTIL7))
    monkeypatch.setattr(GAME_CTX, "hom", no_enumeration)
    monkeypatch.setattr(GAME_CTX, "hom_cached", no_enumeration)
    with pytest.raises(SizeError, match="contexts, over the bound"):
        g.arrow.equal(g.member, g.member)


PAYOFFS = FinSet(tuple(range(-3, 4)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_generated_two_player_games_agree_with_the_oracle(n1, n2, data):
    rows = FinSet(tuple(f"r{i}" for i in range(n1)))
    cols = FinSet(tuple(f"c{i}" for i in range(n2)))
    joint = product(rows, cols)
    pays = data.draw(st.lists(
        st.tuples(st.sampled_from(PAYOFFS.elements), st.sampled_from(PAYOFFS.elements)),
        min_size=len(joint), max_size=len(joint),
    ))
    pay = dict(zip(joint, pays))
    u = FinFun.of(joint, product(PAYOFFS, PAYOFFS), pay)

    def game(m_monoid):
        d1 = decision(UNIT, rows, PAYOFFS, m_monoid=m_monoid)
        d2 = decision(UNIT, cols, PAYOFFS, m_monoid=m_monoid)
        return d1, d2, seq(par(d1, d2), payoff_block(u, m_monoid))

    d1, d2, gb = game(BOOL_AND)
    _, _, gw = game(WITNESSES)
    boolean = gb.row(trivial_context(gb))
    assert tuple(map(witnesses_empty, gw.row(trivial_context(gw)))) == boolean
    utils = [FinFun.of(joint, PAYOFFS, lambda p, i=i: pay[p][i]) for i in range(2)]
    oracle_eq, _ = nash_oracle(decisions_to_normal_form([d1, d2], utils))
    assert _profiles(equilibria(gb, trivial_context(gb))) == sorted(oracle_eq)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_probabilistic_verdicts_are_exact_expected_payoff_checks(n1, n2, data):
    rows = FinSet(tuple(f"r{i}" for i in range(n1)))
    cols = FinSet(tuple(f"c{i}" for i in range(n2)))
    joint = product(rows, cols)
    values = st.sampled_from(PAYOFFS.elements)
    utils = [data.draw(st.lists(values, min_size=len(joint), max_size=len(joint)))
             for _ in range(2)]
    # an indifferent player passes every probe, so the verdicts turn on the
    # other player's expected payoffs alone
    flat = data.draw(st.sampled_from((None, 0, 1)))
    if flat is not None:
        utils[flat] = [utils[flat][0]] * len(joint)
    pay = dict(zip(joint, zip(*utils)))
    u = FinFun.of(joint, product(PAYOFFS, PAYOFFS), pay)
    g = seq(
        par(prob_decision(UNIT, rows, PAYOFFS), prob_decision(UNIT, cols, PAYOFFS)),
        prob_payoff_block(u),
    )

    def mixed(moves):
        # weights k/n with 2 <= n <= 4, on at least two moves
        order = data.draw(st.permutations(moves.elements))
        n = data.draw(st.integers(2, 4))
        picks = order[:2] + data.draw(
            st.lists(st.sampled_from(order[:n]), min_size=n - 2, max_size=n - 2)
        )
        return {m: Fraction(picks.count(m), n) for m in moves if m in picks}

    def payoff(i, p, q):
        return sum(
            wp * wq * pay[(r, c)][i] for r, wp in p.items() for c, wq in q.items()
        )

    def strategies(moves, weights):
        return Dist([(FinFun.of(UNIT, moves, lambda _x, m=m: m), w)
                     for m, w in weights.items()])

    # a random profile, and each pure move of one player against the other's
    # random mix: the verdicts at the pure moves trace a best-response set
    p, q = mixed(rows), mixed(cols)
    probes = [(p, q)] + [({r: 1}, q) for r in rows] + [(p, {c: 1}) for c in cols]
    ctx = trivial_context(g)
    for a, b in probes:
        stable = all(payoff(0, a, b) >= payoff(0, {r: 1}, b) for r in rows) and all(
            payoff(1, a, b) >= payoff(1, a, {c: 1}) for c in cols
        )
        d = dist_product(
            dist_product(strategies(rows, a), strategies(cols, b)), dist_pure(STAR)
        )
        assert g.judge(ctx, d) is stable, (a, b)
