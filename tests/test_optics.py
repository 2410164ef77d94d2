"""Optics: sliding-canonical forms agree with lenses on the cartesian base."""

from __future__ import annotations

import time

from openarrows.base import PAIR_I, PairObj, bit_set
from openarrows.finset import FinFun, FinSet, product
from openarrows.lens import Lens, all_lenses, lens_comp
from openarrows.optic import (
    TwElement,
    TwGrade,
    carrier_set_arrow,
    embed_lens,
    optic_arrow,
    optic_canonicalize,
    optic_comp,
    optic_equiv,
    optic_strength,
    twisted_grading,
)

B = bit_set(2)
I = PAIR_I
X = PairObj(B, B)
Y = PairObj(B, B)
OBJS = [I, PairObj(B, FinSet(("*",))), PairObj(FinSet(("*",)), B), X]
INNER = carrier_set_arrow(OBJS)
ARROW = optic_arrow(OBJS)


def test_canonicalize_inverts_embedding_on_all_bit_lenses():
    start = time.monotonic()
    count = 0
    for src in OBJS:
        for dst in OBJS:
            for lens in all_lenses(src, dst):
                assert optic_canonicalize(embed_lens(lens)) == lens
                count += 1
    assert count > 100
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"canonicalization took {elapsed:.1f} s (budget 30 s)"


def test_canonicalization_commutes_with_composition():
    start = time.monotonic()
    for mid in (I, X):
        for l1 in all_lenses(X, mid):
            for l2 in all_lenses(mid, Y):
                direct = lens_comp(l1, l2)
                via = optic_canonicalize(
                    ARROW.comp(embed_lens(l1), embed_lens(l2))
                )
                assert via == direct
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"canonicalization took {elapsed:.1f} s (budget 30 s)"


def test_sliding_relates_different_residuals():
    lens = all_lenses(X, Y)[5]
    o1 = embed_lens(lens)
    o2 = embed_lens(lens_comp(lens, Lens(
        Y, Y,
        FinFun.of(B, B, lambda v: v),
        FinFun.of(product(B, B), B, lambda p: p[1]),
    )))
    assert optic_equiv(o1, o1) is True
    # two distinct canonical forms are genuinely inequivalent
    other = embed_lens(all_lenses(X, Y)[6])
    assert optic_equiv(o1, other) is False


def test_composite_residuals_multiply_until_the_cap():
    lens = all_lenses(X, X)[3]
    o = embed_lens(lens)
    oo = optic_comp(INNER, o, o)
    # both residuals have size 2, so the composite remembers 4 states
    assert len(oo.residual) == 4
    ooo = optic_comp(INNER, oo, oo)
    # above the cap the cartesian composite re-canonicalizes through a lens
    assert len(ooo.residual) <= 8
    assert optic_canonicalize(ooo) == lens_comp(lens_comp(lens, lens),
                                                lens_comp(lens, lens))


def test_twisted_grading_tracks_residuals():
    g = twisted_grading(INNER, OBJS)
    assert g.grades  # at least the unit residual is registered


def test_twisted_grading_agrees_with_optics_at_identity_grades():
    # An optic with residual P is the twisted component at grade id_P:
    # composites and strengthenings must carry the same left and right parts.
    g = twisted_grading(INNER, OBJS)
    c = INNER.base

    def tw(o):
        return TwElement(o.src, o.dst, TwGrade(c.id(o.residual)), o.left, o.right)

    optics = {
        (x, y): [embed_lens(lens) for lens in all_lenses(x, y)]
        for x in OBJS
        for y in OBJS
    }
    checked = 0
    for (x, y), hom_xy in optics.items():
        for o1 in hom_xy:
            for z in OBJS:
                e = g.st(tw(o1), z)
                o = optic_strength(INNER, o1, z)
                assert (e.src, e.dst, e.grade) == (o.src, o.dst, tw(o1).grade)
                assert (e.left, e.right) == (o.left, o.right)
            for w in OBJS:
                for o2 in optics[y, w]:
                    e = g.gcomp(tw(o1), tw(o2))
                    o = optic_comp(INNER, o1, o2)
                    pq = c.tensor(o1.residual, o2.residual)
                    assert o.residual == pq
                    assert e.grade == TwGrade(c.id(pq))
                    assert (e.src, e.dst) == (o.src, o.dst)
                    assert (e.left, e.right) == (o.left, o.right)
                    checked += 1
    assert checked > 1000
