"""Lenses: play/coplay mechanics and the composition threading."""

from __future__ import annotations

import pytest

from openarrows.base import PAIR, PAIR_I, PairObj, bit_set
from openarrows.finset import (
    STAR,
    CompositionError,
    FinFun,
    FinSet,
    product,
)
from openarrows.lens import (
    Lens,
    all_lenses,
    cont_lens,
    identity_lens,
    lens_comp,
    lens_cont,
    lens_point,
    lens_proj_points,
    lens_pure,
    lens_strength,
    point_lens,
)

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
    assert p.src == PAIR_I and lens_point(p) == 1
    k = FinFun.of(Y.fwd, Y.bwd, {"u": 0, "v": 1})
    c = cont_lens(Y, k)
    assert c.dst == PAIR_I and lens_cont(c) == k
    xx = PAIR.tensor(X, X)
    j = point_lens(xx, (0, 1))
    p0, p1 = lens_proj_points(j, X, X)
    assert lens_point(p0) == 0 and lens_point(p1) == 1


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
