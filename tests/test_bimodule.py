"""Contexts as bimodules and monoid-valued equilibrium predicates."""

from __future__ import annotations

import dataclasses
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
    eq_apply,
    eq_from_context,
    eq_tabulate,
    with_bimodule,
    with_eq,
)
from openarrows.finset import BOOL_AND, WITNESSES, DomainError, FinFun, FinSet
from openarrows.lens import (
    cont_lens,
    identity_lens,
    lens_arrow,
    lens_comp,
    lens_point,
    point_lens,
)

B = bit_set(2)
X = PairObj(B, B)
I = PAIR_I
LENS = lens_arrow([I, X])
CTX = ctx_of_arrow(LENS)


def _cont(table) -> FinFun:
    return FinFun.of(B, B, table)


def test_contexts_enumerate_point_continuation_pairs():
    ctxs = CTX.bimodule.hom_cached(X, X)
    # 2 points x 4 continuation tables (B x unit -> B)
    assert len(ctxs) == 2 * 4
    c = ctxs[0]
    assert c.state.src == I and c.cont.dst == I


def test_left_action_prepends_the_continuation():
    c = CtxPair(X, X, point_lens(X, 0), cont_lens(X, _cont({0: 1, 1: 0})))
    s = LENS.hom_cached(X, X)[7]
    out = CTX.bimodule.lact(s, c)
    assert out.state == c.state
    assert out.cont == lens_comp(s, c.cont)


def test_right_action_extends_the_state():
    c = CtxPair(X, X, point_lens(X, 0), cont_lens(X, _cont({0: 1, 1: 0})))
    a = LENS.hom_cached(X, X)[7]
    out = CTX.bimodule.ract(c, a)
    assert out.cont == c.cont
    assert out.state == lens_comp(c.state, a)


def test_costrength_splits_state_and_pads_continuation():
    xx = PAIR.tensor(X, X)
    k = FinFun.of(xx.fwd, xx.bwd, lambda p: p)
    b = CtxPair(xx, xx, point_lens(xx, (1, 0)), cont_lens(xx, k))
    c = CTX.cst(b, X, X, X)
    assert lens_point(c.state) == 1
    # the spectator point 0 is fed to the padded continuation, so the
    # identity table on pairs collapses to the identity on the first factor
    assert c.cont == cont_lens(X, FinFun.of(B, B, lambda y: y))


def _composed_cst(c, x, y, z):
    # the costrength as a composite of lenses: split the state's point,
    # pad the spectator point onto X (X -> X (x) I -> X (x) Z) and run the
    # continuation after the padding
    yv, zv = lens_point(c.state)
    padded = dimap(
        LENS,
        PAIR.inv(PAIR.runit(x)),
        left_strength(LENS, point_lens(z, zv), x),
        PAIR.id(PAIR.tensor(x, z)),
    )
    return CtxPair(x, y, point_lens(y, yv), lens_comp(padded, c.cont))


def _objs(tag):
    # 1-3 points on each side, labelled apart so no two carriers compare equal
    def carrier(side):
        return st.integers(1, 3).map(
            lambda n: FinSet(tuple(f"{tag}{side}{i}" for i in range(n)))
        )
    return st.builds(PairObj, carrier("f"), carrier("b"))


def _assert_cst_matches_composite(c, x, y, z):
    got, want = CTX.cst(c, x, y, z), _composed_cst(c, x, y, z)
    assert got == want
    assert CTX.bimodule.key(got) == CTX.bimodule.key(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_objs("x"), _objs("y"), _objs("z"), st.data())
def test_costrength_reads_the_continuation_at_the_spectator_point(x, y, z, data):
    xz, yz = PAIR.tensor(x, z), PAIR.tensor(y, z)
    point = data.draw(st.sampled_from(yz.fwd.elements))
    table = data.draw(st.tuples(*[st.sampled_from(xz.bwd.elements)] * len(xz.fwd)))
    k = cont_lens(xz, FinFun(xz.fwd, xz.bwd, table))
    c = CtxPair(xz, yz, point_lens(yz, point), k)
    _assert_cst_matches_composite(c, x, y, z)


def test_costrength_matches_the_composite_with_a_spectator_larger_than_x():
    x = PairObj(FinSet(("x0",)), FinSet(("s0", "s1")))
    y = PairObj(FinSet(("y0", "y1")), FinSet(("r0",)))
    z = PairObj(FinSet(("z0", "z1", "z2")), FinSet(("t0", "t1")))
    # every context: 6 state points by 4**3 continuation tables
    ctxs = CTX.bimodule.hom_cached(PAIR.tensor(x, z), PAIR.tensor(y, z))
    assert len(ctxs) == 6 * 4 ** 3
    for c in ctxs:
        _assert_cst_matches_composite(c, x, y, z)


def test_costrength_needs_a_state_out_of_the_unit():
    xx = PAIR.tensor(X, X)
    k = FinFun.of(xx.fwd, xx.bwd, lambda p: p)
    b = CtxPair(xx, xx, identity_lens(xx), cont_lens(xx, k))
    with pytest.raises(DomainError, match="out of the unit"):
        CTX.cst(b, X, X, X)


def test_costrength_needs_a_state_into_the_stated_tensor():
    xx = PAIR.tensor(X, X)
    k = FinFun.of(xx.fwd, xx.bwd, lambda p: p)
    b = CtxPair(xx, xx, point_lens(xx, (1, 0)), cont_lens(xx, k))
    with pytest.raises(DomainError, match="stated tensor"):
        CTX.cst(b, X, I, X)


def test_eq_bimodule_tabulates_over_contexts():
    eq = eq_from_context(CTX, BOOL_AND)
    h = eq_tabulate(CTX, X, X, lambda c: lens_point(c.state) == 0)
    some = CTX.bimodule.hom_cached(X, X)[3]
    assert eq_apply(CTX, h, some) == (lens_point(some.state) == 0)
    unit = eq.monoid.e(X, X)
    assert eq.monoid.m(unit, h) == h


def test_eq_bimodule_rejects_noncommutative_monoids():
    from openarrows.finset import Monoid

    skew = Monoid("first", lambda a, b: a, None, commutative=False)
    with pytest.raises(DomainError):
        eq_from_context(CTX, skew)


def test_witness_monoid_needs_a_value_pool():
    with pytest.raises(DomainError):
        eq_from_context(CTX, WITNESSES)
    eq = eq_from_context(CTX, WITNESSES, value_pool=[(), (("w",),)])
    assert eq.monoid.commutative


def test_with_eq_pairs_lenses_with_predicates():
    weq = with_eq(lens_arrow([I]), ctx_of_arrow(lens_arrow([I])), BOOL_AND)
    ms = weq.hom_cached(I, I)
    assert len(ms) == 2  # one lens, two Boolean tables over the one context
    m = ms[0]
    assert weq.comp(m, weq.identity(I)).inner == m.inner


def test_with_bimodule_needs_monoid_and_strength():
    with pytest.raises(DomainError):
        with_bimodule(LENS, CTX.bimodule)


def _assert_actions_match_tabulation(monoid, pool):
    # The actions gather through memoised position tables.  The reference
    # is eq_tabulate's definition: every context b of the result, in
    # enumeration order, reads h at the acted context (computed once per
    # acting morphism, so the sweep over every h stays cheap).
    eq = eq_from_context(CTX, monoid, value_pool=pool)

    def direct(h, x, z, acted):
        assert len(acted) == len(CTX.bimodule.hom_cached(z, x))
        return EqFun(x, z, tuple(eq_apply(CTX, h, c) for c in acted))

    for x, y, z in itertools.product(LENS.objects, repeat=3):
        for a in LENS.hom_cached(x, y):
            acted = [CTX.bimodule.ract(b, a) for b in CTX.bimodule.hom_cached(z, x)]
            for h in eq.hom_cached(y, z):
                want = direct(h, x, z, acted)
                assert eq.lact(a, h) == want
                assert eq.lact(a, h) == want  # a memo hit
        for a in LENS.hom_cached(y, z):
            acted = [CTX.bimodule.lact(a, b) for b in CTX.bimodule.hom_cached(z, x)]
            for h in eq.hom_cached(x, y):
                want = direct(h, x, z, acted)
                assert eq.ract(h, a) == want
                assert eq.ract(h, a) == want
        xz, yz = PAIR.tensor(x, z), PAIR.tensor(y, z)
        acted = [CTX.cst(b, y, x, z) for b in CTX.bimodule.hom_cached(yz, xz)]
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


def test_eq_actions_on_a_keyless_arrow_raise_domain_error():
    keyless = dataclasses.replace(LENS, key=None, _hom_cache={})
    eq = eq_from_context(ctx_of_arrow(keyless), BOOL_AND)
    a = keyless.identity(X)
    h = eq.hom_cached(X, X)[0]
    with pytest.raises(DomainError):
        eq.lact(a, h)
    with pytest.raises(DomainError):
        eq.ract(h, a)
    with pytest.raises(DomainError):
        eq.st(h, X)
