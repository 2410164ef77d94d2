"""Contexts as bimodules and monoid-valued equilibrium predicates."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openarrows.arrow import dimap, left_strength
from openarrows.base import PAIR, PAIR_I, PairObj, bit_set
from openarrows.bimodule import (
    CtxPair,
    EqFun,
    ctx_of_arrow,
    eq_from_context,
    eq_tabulate,
    with_bimodule,
    with_eq,
)
from openarrows.finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    CompositionError,
    DomainError,
    FinFun,
    FinSet,
    product,
)
from openarrows.lens import (
    Lens,
    all_lenses,
    lens_arrow,
    lens_comp,
    lens_key,
    lens_strength,
)
from openarrows.record import replace

from references import cont_lens, eq_apply, point_lens

B = bit_set(2)
X = PairObj(B, B)
I = PAIR_I
LENS = lens_arrow([I, X])
CTX = ctx_of_arrow(LENS)


def _cont(table) -> FinFun:
    return FinFun.of(B, B, table)


def test_contexts_enumerate_point_continuation_pairs():
    ctxs = CTX.hom_cached(X, X)
    # 2 points x 4 continuation tables (B x unit -> B)
    assert len(ctxs) == 2 * 4
    c = ctxs[0]
    assert c.state in X.fwd and (c.cont.dom, c.cont.cod) == (X.fwd, X.bwd)


def test_left_action_prepends_the_continuation():
    c = CtxPair(X, X, 0, _cont({0: 1, 1: 0}))
    s = LENS.hom_cached(X, X)[7]
    out = CTX.lact(s, c)
    assert out.state == c.state
    assert cont_lens(X, out.cont) == lens_comp(s, cont_lens(X, c.cont))


def test_right_action_extends_the_state():
    c = CtxPair(X, X, 0, _cont({0: 1, 1: 0}))
    a = LENS.hom_cached(X, X)[7]
    out = CTX.ract(c, a)
    assert out.cont == c.cont
    assert point_lens(X, out.state) == lens_comp(point_lens(X, c.state), a)


def test_costrength_splits_state_and_pads_continuation():
    xx = PAIR.tensor(X, X)
    k = FinFun.of(xx.fwd, xx.bwd, lambda p: p)
    b = CtxPair(xx, xx, (1, 0), k)
    c = CTX.cst(b, X, X, X)
    assert c.state == 1
    # the spectator point 0 is fed to the padded continuation, so the
    # identity table on pairs collapses to the identity on the first factor
    assert c.cont == FinFun.of(B, B, lambda y: y)


# -- the reference: contexts as the paper states them, pairs of lenses --------
#
# Ctx(X, Y) = Lens(I, Y) x Lens(X, I).  Each action below composes lenses and
# reads the point and the continuation table back off the composite.

def _lenses(c):
    return point_lens(c.dst, c.state), cont_lens(c.src, c.cont)


def _of_lenses(x, y, j, k):
    cont = FinFun.of(x.fwd, x.bwd, lambda v: k.coplay(v, STAR))
    return CtxPair(x, y, j.fwd(STAR), cont)


def _composed_hom(x, y):
    return [
        _of_lenses(x, y, j, k)
        for j in LENS.hom_cached(I, y)
        for k in LENS.hom_cached(x, I)
    ]


def _composed_lact(s, c):
    j, k = _lenses(c)
    return _of_lenses(s.src, c.dst, j, lens_comp(s, k))


def _composed_ract(c, a):
    j, k = _lenses(c)
    return _of_lenses(c.src, a.dst, lens_comp(j, a), k)


def _composed_key(c):
    return tuple(map(lens_key, _lenses(c)))


def _composed_cst(c, x, y, z):
    # the costrength as a composite of lenses: split the state's point,
    # pad the spectator point onto X (X -> X (x) I -> X (x) Z) and run the
    # continuation after the padding
    yv, zv = c.state
    padded = dimap(
        LENS,
        PAIR.inv(PAIR.runit(x)),
        left_strength(LENS, point_lens(z, zv), x),
        PAIR.id(PAIR.tensor(x, z)),
    )
    return _of_lenses(
        x, y, point_lens(y, yv), lens_comp(padded, cont_lens(c.src, c.cont))
    )


def _objs(tag):
    # 1-3 points on each side, labelled apart so no two carriers compare equal
    def carrier(side):
        return st.integers(1, 3).map(
            lambda n: FinSet(tuple(f"{tag}{side}{i}" for i in range(n)))
        )
    return st.builds(PairObj, carrier("f"), carrier("b"))


def _assert_same(got, want):
    assert got == want
    assert CTX.key(got) == CTX.key(want)
    assert _composed_key(got) == _composed_key(want)


def _assert_cst_matches_composite(c, x, y, z):
    _assert_same(CTX.cst(c, x, y, z), _composed_cst(c, x, y, z))


def _assert_keys_match_composite(ctxs):
    # one key per context, and equal keys exactly where the lens pairs are
    keys = [CTX.key(c) for c in ctxs]
    by_key = dict(zip(keys, map(_composed_key, ctxs)))
    assert len(by_key) == len(set(by_key.values())) == len(ctxs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_objs("x"), _objs("y"), _objs("z"), st.data())
def test_costrength_reads_the_continuation_at_the_spectator_point(x, y, z, data):
    xz, yz = PAIR.tensor(x, z), PAIR.tensor(y, z)
    point = data.draw(st.sampled_from(yz.fwd.elements))
    table = data.draw(st.tuples(*[st.sampled_from(xz.bwd.elements)] * len(xz.fwd)))
    c = CtxPair(xz, yz, point, FinFun(xz.fwd, xz.bwd, table))
    _assert_cst_matches_composite(c, x, y, z)


def test_costrength_matches_the_composite_with_a_spectator_larger_than_x():
    x = PairObj(FinSet(("x0",)), FinSet(("s0", "s1")))
    y = PairObj(FinSet(("y0", "y1")), FinSet(("r0",)))
    z = PairObj(FinSet(("z0", "z1", "z2")), FinSet(("t0", "t1")))
    # every context: 6 state points by 4**3 continuation tables
    ctxs = CTX.hom_cached(PAIR.tensor(x, z), PAIR.tensor(y, z))
    assert len(ctxs) == 6 * 4 ** 3
    assert ctxs == _composed_hom(PAIR.tensor(x, z), PAIR.tensor(y, z))
    _assert_keys_match_composite(ctxs)
    for c in ctxs:
        _assert_cst_matches_composite(c, x, y, z)
    # and the actions of strengthened lenses, which the costrength laws chase
    for s in all_lenses(x, x):
        padded = lens_strength(s, z)
        for c in ctxs:
            _assert_same(CTX.lact(padded, c), _composed_lact(padded, c))
    for a in all_lenses(y, y):
        padded = lens_strength(a, z)
        for c in ctxs:
            _assert_same(CTX.ract(c, padded), _composed_ract(c, padded))


# a one-point carrier, a two-point pair and a spectator-sized forward carrier
W = PairObj(FinSet(("w0", "w1", "w2")), FinSet(("s0",)))
SMALL = lens_arrow([I, X, W])
SMALL_CTX = ctx_of_arrow(SMALL)


def test_context_actions_match_the_composites_exhaustively():
    objs = SMALL.objects
    for x, y in itertools.product(objs, repeat=2):
        ctxs = SMALL_CTX.hom_cached(x, y)
        assert ctxs == _composed_hom(x, y)
        _assert_keys_match_composite(ctxs)
    checked = 0
    for x, y, z in itertools.product(objs, repeat=3):
        for s in SMALL.hom_cached(x, y):
            for c in SMALL_CTX.hom_cached(y, z):
                _assert_same(SMALL_CTX.lact(s, c), _composed_lact(s, c))
                checked += 1
        for c in SMALL_CTX.hom_cached(x, y):
            for a in SMALL.hom_cached(y, z):
                _assert_same(SMALL_CTX.ract(c, a), _composed_ract(c, a))
                checked += 1
    assert checked == 2208 + 1932  # lact and ract cases


def _draw_lens(data, x, y):
    fwd = data.draw(st.tuples(*[st.sampled_from(y.fwd.elements)] * len(x.fwd)))
    n = len(x.fwd) * len(y.bwd)
    bwd = data.draw(st.tuples(*[st.sampled_from(x.bwd.elements)] * n))
    return Lens(
        x, y, FinFun(x.fwd, y.fwd, fwd), FinFun(product(x.fwd, y.bwd), x.bwd, bwd)
    )


def _draw_ctx(data, x, y):
    point = data.draw(st.sampled_from(y.fwd.elements))
    table = data.draw(st.tuples(*[st.sampled_from(x.bwd.elements)] * len(x.fwd)))
    return CtxPair(x, y, point, FinFun(x.fwd, x.bwd, table))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_objs("x"), _objs("y"), _objs("z"), st.data())
def test_context_actions_match_the_composites_on_sampled_contexts(x, y, z, data):
    s, c = _draw_lens(data, x, y), _draw_ctx(data, y, z)
    _assert_same(CTX.lact(s, c), _composed_lact(s, c))
    c, a = _draw_ctx(data, x, y), _draw_lens(data, y, z)
    _assert_same(CTX.ract(c, a), _composed_ract(c, a))
    c1, c2 = _draw_ctx(data, x, y), _draw_ctx(data, x, y)
    same = CTX.key(c1) == CTX.key(c2)
    assert same == (_composed_key(c1) == _composed_key(c2)) == (c1 == c2)


def test_context_actions_refuse_mismatched_endpoints():
    c = CtxPair(X, X, 0, _cont({0: 1, 1: 0}))
    a = LENS.identity(I)
    with pytest.raises(CompositionError, match="left action"):
        CTX.lact(a, c)
    with pytest.raises(CompositionError, match="right action"):
        CTX.ract(c, a)


def test_costrength_needs_a_state_into_the_stated_tensor():
    xx = PAIR.tensor(X, X)
    k = FinFun.of(xx.fwd, xx.bwd, lambda p: p)
    b = CtxPair(xx, xx, (1, 0), k)
    with pytest.raises(DomainError, match="stated tensor"):
        CTX.cst(b, X, I, X)


def test_eq_bimodule_tabulates_over_contexts():
    eq = eq_from_context(CTX, BOOL_AND)
    h = eq_tabulate(CTX, X, X, lambda c: c.state == 0)
    some = CTX.hom_cached(X, X)[3]
    assert eq_apply(CTX, h, some) == (some.state == 0)
    unit = eq.e(X, X)
    assert eq.m(unit, h) == h


def test_eq_bimodule_rejects_noncommutative_monoids():
    from openarrows.finset import Monoid

    skew = Monoid("first", lambda a, b: a, None, commutative=False)
    with pytest.raises(DomainError):
        eq_from_context(CTX, skew)


def test_witness_monoid_needs_a_value_pool():
    with pytest.raises(DomainError):
        eq_from_context(CTX, WITNESSES)
    eq = eq_from_context(CTX, WITNESSES, value_pool=[(), (("w",),)])
    hs = eq.hom_cached(I, I)
    assert all(eq.m(h1, h2) == eq.m(h2, h1) for h1 in hs for h2 in hs)


def test_with_eq_pairs_lenses_with_predicates():
    weq = with_eq(lens_arrow([I]), ctx_of_arrow(lens_arrow([I])), BOOL_AND)
    ms = weq.hom_cached(I, I)
    assert len(ms) == 2  # one lens, two Boolean tables over the one context
    m = ms[0]
    assert weq.comp(m, weq.identity(I)).inner == m.inner


def test_with_bimodule_needs_monoid_and_strength():
    with pytest.raises(DomainError):
        with_bimodule(LENS, CTX)


def _assert_actions_match_tabulation(monoid, pool):
    # The actions gather through memoised position tables.  The reference
    # is eq_tabulate's definition: every context b of the result, in
    # enumeration order, reads h at the acted context (computed once per
    # acting morphism, so the sweep over every h stays cheap).
    eq = eq_from_context(CTX, monoid, value_pool=pool)

    def direct(h, x, z, acted):
        assert len(acted) == len(CTX.hom_cached(z, x))
        return EqFun(x, z, tuple(eq_apply(CTX, h, c) for c in acted))

    for x, y, z in itertools.product(LENS.objects, repeat=3):
        for a in LENS.hom_cached(x, y):
            acted = [CTX.ract(b, a) for b in CTX.hom_cached(z, x)]
            for h in eq.hom_cached(y, z):
                want = direct(h, x, z, acted)
                assert eq.lact(a, h) == want
                assert eq.lact(a, h) == want  # a memo hit
        for a in LENS.hom_cached(y, z):
            acted = [CTX.lact(a, b) for b in CTX.hom_cached(z, x)]
            for h in eq.hom_cached(x, y):
                want = direct(h, x, z, acted)
                assert eq.ract(h, a) == want
                assert eq.ract(h, a) == want
        xz, yz = PAIR.tensor(x, z), PAIR.tensor(y, z)
        acted = [CTX.cst(b, y, x, z) for b in CTX.hom_cached(yz, xz)]
        for h in eq.hom_cached(x, y):
            want = direct(h, xz, yz, acted)
            assert eq.st(h, z) == want
            assert eq.st(h, z) == want


def test_eq_actions_match_direct_tabulation_for_booleans():
    _assert_actions_match_tabulation(BOOL_AND, None)


def test_eq_actions_match_direct_tabulation_for_witnesses():
    _assert_actions_match_tabulation(WITNESSES, [(), (("w",),)])


def test_eq_actions_read_each_predicate_not_a_cached_result():
    eq = eq_from_context(CTX, BOOL_AND)
    a = LENS.identity(X)
    h1, h2 = eq.hom_cached(X, X)[:2]
    assert h1 != h2
    assert eq.lact(a, h1) == h1 and eq.lact(a, h2) == h2
    assert eq.ract(h1, a) == h1 and eq.ract(h2, a) == h2
    assert eq.st(h1, I) != eq.st(h2, I)


def test_eq_action_memo_tells_apart_members_with_equal_tables():
    # a1 and a2 have the same tables but different targets, so the memo of
    # the right action must hold their endpoints as well as their key
    y, z1, z2 = PairObj(B, UNIT), PairObj(B, B), PairObj(bit_set(3), B)
    eq = eq_from_context(CTX, BOOL_AND)
    bwd = FinFun.of(product(B, B), UNIT, lambda _: STAR)
    a1, a2 = (Lens(y, z, FinFun.of(B, z.fwd, lambda v: v), bwd) for z in (z1, z2))
    assert (a1.fwd.table, a1.bwd.table) == (a2.fwd.table, a2.bwd.table)
    h = eq.hom_cached(I, y)[0]
    for a, n in ((a1, 4), (a2, 8)):
        out = eq.ract(h, a)
        assert (out.src, out.dst) == (I, a.dst)
        assert len(out.values) == len(CTX.hom_cached(a.dst, I)) == n


def test_eq_actions_on_a_keyless_arrow_raise_domain_error():
    keyless = replace(LENS, key=None)
    eq = eq_from_context(ctx_of_arrow(keyless), BOOL_AND)
    a = keyless.identity(X)
    h = eq.hom_cached(X, X)[0]
    with pytest.raises(DomainError):
        eq.lact(a, h)
    with pytest.raises(DomainError):
        eq.ract(h, a)
