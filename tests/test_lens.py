"""Lenses: play/coplay mechanics and the composition threading."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from openarrows.base import PAIR, PAIR_I, BaseMap, PairObj, bit_set
from openarrows.finset import (
    STAR,
    CompositionError,
    DomainError,
    FinFun,
    FinSet,
    product,
)
from openarrows.lens import (
    Lens,
    all_lenses,
    identity_lens,
    lens_comp,
    lens_pure,
    lens_strength,
)

from references import cont_lens, point_lens

B = bit_set(2)
R = FinSet(("r0", "r1"))
X = PairObj(B, R)
Y = PairObj(FinSet(("u", "v")), B)


def _mirror() -> Lens:
    fwd = FinFun.of(B, Y.fwd, lambda x: "uv"[x])
    bwd = FinFun.of(product(B, B), R, lambda xr: ("r0", "r1")[xr[1]])
    return Lens(X, Y, fwd, bwd)


def test_lens_endpoints_are_enforced():
    fwd = FinFun.of(B, Y.fwd, lambda x: "u")
    bad_bwd = FinFun.of(product(B, B), B, lambda xr: 0)
    with pytest.raises(CompositionError):
        Lens(X, Y, fwd, bad_bwd)


def test_identity_lens_echoes_the_residual():
    i = identity_lens(X)
    assert i.play(1) == 1
    assert i.coplay(0, "r1") == "r1"


def test_composition_threads_coplay_through_play():
    l1 = _mirror()
    fwd2 = FinFun.of(Y.fwd, B, lambda u: int(u == "v"))
    bwd2 = FinFun.of(product(Y.fwd, R), B, lambda yr: int(yr[1] == "r1"))
    l2 = Lens(Y, PairObj(B, R), fwd2, bwd2)
    c = lens_comp(l1, l2)
    for x in B.elements:
        for q in R.elements:
            assert c.play(x) == l2.play(l1.play(x))
            assert c.coplay(x, q) == l1.coplay(x, l2.coplay(l1.play(x), q))
    with pytest.raises(CompositionError):
        lens_comp(l2, l2)


def test_pure_lens_ignores_the_state():
    m = PAIR.id(X)
    p = lens_pure(m)
    assert p.coplay(0, "r1") == p.coplay(1, "r1") == "r1"


def test_strength_is_a_spectator():
    st = lens_strength(_mirror(), X)
    assert st.play((1, 0)) == ("v", 0)
    got = st.coplay((0, 1), ("u" == "u" and 1, "r0"))
    assert got == (_mirror().coplay(0, 1), "r0")


def test_points_and_continuations_round_trip():
    p = point_lens(X, 1)
    assert p.src == PAIR_I and p.play(STAR) == 1
    k = FinFun.of(Y.fwd, Y.bwd, {"u": 0, "v": 1})
    c = cont_lens(Y, k)
    assert c.dst == PAIR_I
    assert FinFun.of(Y.fwd, Y.bwd, lambda y: c.coplay(y, STAR)) == k
    xx = PAIR.tensor(X, X)
    j = point_lens(xx, (0, 1))
    p0, p1 = (point_lens(X, x) for x in j.play(STAR))
    assert p0.play(STAR) == 0 and p1.play(STAR) == 1


def test_all_lenses_counts():
    # |Y_f|^|X_f| forward maps, |X_b|^(|X_f| * |Y_b|) backward maps
    assert len(all_lenses(X, Y)) == (2 ** 2) * (2 ** 4)


def test_memoised_tensor_keeps_each_operands_elements():
    bools, ints = FinSet((True, False)), FinSet((1, 0))
    xb, xi = PairObj(bools, R), PairObj(ints, R)
    assert xb == xi  # equal objects, different elements
    tb, ti = PAIR.tensor(xb, xb), PAIR.tensor(xi, xi)
    assert repr(tb.fwd) == "{(True, True), (True, False), (False, True), (False, False)}"
    assert repr(ti.fwd) == "{(1, 1), (1, 0), (0, 1), (0, 0)}"
    assert PAIR.tensor(xb, xb) is tb and PAIR.tensor(xi, xi) is ti
    assert repr(PAIR.tensor(xb, xi).fwd.elements[0]) == "(True, 1)"


# -- trusted lenses equal the validating construction -------------------------
#
# Composites, lifts, strengthenings and enumerations are built from table
# slices without validation; each must equal the lens the public constructor
# builds from its defining play and coplay.

_LABELS = ("a", "b", 0, 1)


def carriers(max_size: int = 2, min_size: int = 1):
    return st.lists(
        st.sampled_from(_LABELS), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda xs: FinSet(tuple(xs)))


def pair_objs(max_size: int = 2, min_size: int = 1):
    carrier = carriers(max_size, min_size)
    return st.builds(PairObj, carrier, carrier)


def _fun(data, a: FinSet, b: FinSet) -> FinFun:
    return FinFun(a, b, data.draw(st.tuples(*[st.sampled_from(b.elements)] * len(a))))


def _lens(data, x: PairObj, y: PairObj) -> Lens:
    fwd = _fun(data, x.fwd, y.fwd)
    return Lens(x, y, fwd, _fun(data, product(x.fwd, y.bwd), x.bwd))


@given(pair_objs(3), pair_objs(3, min_size=2), pair_objs(3, min_size=2), st.data())
def test_trusted_comp_matches_the_public_constructor(x, y, z, data):
    # the middle and last objects have two or more points on each side, so
    # that a coplay read from the wrong position shows
    l1, l2 = _lens(data, x, y), _lens(data, y, z)
    fwd = FinFun.of(x.fwd, z.fwd, lambda a: l2.play(l1.play(a)))
    bwd = FinFun.of(
        product(x.fwd, z.bwd), x.bwd,
        lambda aq: l1.coplay(aq[0], l2.coplay(l1.play(aq[0]), aq[1])),
    )
    assert lens_comp(l1, l2) == Lens(x, z, fwd, bwd)


@given(pair_objs(3), pair_objs(3), st.data())
def test_trusted_pure_matches_the_public_constructor(x, y, data):
    m = BaseMap(x, y, _fun(data, x.fwd, y.fwd), _fun(data, y.bwd, x.bwd))
    bwd = FinFun.of(product(x.fwd, y.bwd), x.bwd, lambda ar: m.bwd(ar[1]))
    assert lens_pure(m) == Lens(x, y, m.fwd, bwd)


@given(pair_objs(3), pair_objs(3), pair_objs(3), st.data())
def test_trusted_strength_matches_the_public_constructor(x, y, z, data):
    lens = _lens(data, x, y)
    src, dst = PAIR.tensor(x, z), PAIR.tensor(y, z)
    fwd = FinFun.of(src.fwd, dst.fwd, lambda ac: (lens.play(ac[0]), ac[1]))
    bwd = FinFun.of(
        product(src.fwd, dst.bwd), src.bwd,
        lambda p: (lens.coplay(p[0][0], p[1][0]), p[1][1]),
    )
    assert lens_strength(lens, z) == Lens(src, dst, fwd, bwd)


@given(pair_objs(), pair_objs())
def test_trusted_enumeration_matches_the_public_constructor(x, y):
    xr = product(x.fwd, y.bwd)
    plays = itertools.product(y.fwd.elements, repeat=len(x.fwd))
    coplays = itertools.product(x.bwd.elements, repeat=len(xr))
    fwds = [FinFun(x.fwd, y.fwd, t) for t in plays]
    bwds = [FinFun(xr, x.bwd, t) for t in coplays]
    assert all_lenses(x, y) == [Lens(x, y, f, g) for f in fwds for g in bwds]


def test_public_lens_still_validates_its_endpoints():
    fwd = FinFun.of(B, Y.fwd, lambda x: "u")
    bwd = FinFun.of(product(B, B), R, lambda xr: "r0")
    assert Lens(X, Y, fwd, bwd).play(0) == "u"
    with pytest.raises(CompositionError, match="forward"):
        Lens(Y, Y, fwd, bwd)
    with pytest.raises(CompositionError, match="backward"):
        Lens(X, PairObj(Y.fwd, R), fwd, bwd)
    with pytest.raises(DomainError):
        FinFun(product(B, B), R, ("r0",) * 3)
