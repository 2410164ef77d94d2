"""Arrow instances: composition, strength, tensor, and the induced category."""

from __future__ import annotations

import pytest

from openarrows.arrow import (
    CommutativityError,
    arrow_tensor,
    arrow_tensor_flipped,
    dimap,
    hom_arrow,
    induced_category,
    left_strength,
)
from openarrows.base import SET, bit_set
from openarrows.finset import UNIT, FinFun, FinSet, fun_compose

B = bit_set(2)
T = FinSet((0, 1, 2))
HOM = hom_arrow(SET, [UNIT, B, T])


def test_identity_is_neutral():
    for f in HOM.hom_cached(B, T):
        assert HOM.comp(HOM.identity(B), f) == f
        assert HOM.comp(f, HOM.identity(T)) == f


def test_composition_matches_function_composition():
    f = FinFun.of(B, T, lambda x: x + 1)
    g = FinFun.of(T, B, lambda x: x % 2)
    assert HOM.comp(f, g) == fun_compose(f, g)


def test_dimap_is_conjugation_by_pure():
    f = FinFun.of(B, B, lambda x: 1 - x)
    m = FinFun.of(B, T, lambda x: 2 * x)
    g = FinFun.of(T, T, lambda x: min(x + 1, 2))
    got = dimap(HOM, f, m, g)
    for x in B.elements:
        assert got(x) == g(m(f(x)))


def test_strength_pads_an_inert_factor():
    m = FinFun.of(B, B, lambda x: 1 - x)
    st = HOM.st(m, T)
    for x in B.elements:
        for z in T.elements:
            assert st((x, z)) == (1 - x, z)
            assert left_strength(HOM, m, T)((z, x)) == (z, 1 - x)


def test_tensor_interleavings_agree_on_sets():
    a = FinFun.of(B, B, lambda x: 1 - x)
    b = FinFun.of(T, T, lambda x: (x + 1) % 3)
    assert arrow_tensor(HOM, a, b) == arrow_tensor_flipped(HOM, a, b)


def test_induced_category_embeds_the_base():
    cat = induced_category(HOM)
    f = FinFun.of(B, T, lambda x: x)
    assert cat.compose(cat.id(B), cat.embed(f)) == f
    assert cat.tensor(f, f)((0, 1)) == (0, 1)


def test_noncommutative_arrows_refuse_the_tensor():
    skew = hom_arrow(SET, [B])
    skew.commutative = False
    f = FinFun.of(B, B, lambda x: x)
    with pytest.raises(CommutativityError):
        arrow_tensor(skew, f, f)
    with pytest.raises(CommutativityError):
        induced_category(skew)


def test_hom_cache_is_stable():
    first = HOM.hom_cached(B, B)
    assert HOM.hom_cached(B, B) is first
    assert len(first) == 4
