"""Optics: sliding-canonical forms agree with lenses on the cartesian base."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openarrows.arrow import hom_arrow, left_strength
from openarrows.base import PAIR, PAIR_I, SET, BaseMap, PairObj, bit_set, pair_atoms
from openarrows.bimodule import CtxPair, ctx_of_arrow
from openarrows.finset import STAR, CompositionError, FinFun, FinSet, product
from openarrows.lens import (
    Lens,
    all_lenses,
    lens_arrow,
    lens_comp,
    lens_pure,
)
from references import cont_lens, point_lens

from openarrows.optic import (
    Optic,
    OpticCtx,
    TwElement,
    TwGrade,
    TwIso,
    embed_lens,
    lens_optic_context,
    optic_arrow,
    optic_canonicalize,
    optic_comp,
    optic_equiv,
    optic_pure,
    optic_strength,
    twisted_grading,
)

B = bit_set(2)
I = PAIR_I
X = PairObj(B, B)
Y = PairObj(B, B)
OBJS = [I, PairObj(B, FinSet(("*",))), PairObj(FinSet(("*",)), B), X]
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
    oo = optic_comp(o, o)
    # both residuals have size 2, so the composite remembers 4 states
    assert len(oo.residual) == 4
    ooo = optic_comp(oo, oo)
    # above the cap the cartesian composite re-canonicalizes through a lens
    assert len(ooo.residual) <= 8
    assert optic_canonicalize(ooo) == lens_comp(lens_comp(lens, lens),
                                                lens_comp(lens, lens))


def test_twisted_grading_tracks_residuals():
    g = twisted_grading(OBJS)
    assert g.grades  # at least the unit residual is registered


def test_twisted_grading_agrees_with_optics_at_identity_grades():
    # An optic with residual P is the twisted component at grade id_P:
    # composites and strengthenings must carry the same left and right parts.
    g = twisted_grading(OBJS)

    def tw(o):
        return TwElement(o.src, o.dst, TwGrade(SET.id(o.residual)), o.left, o.right)

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
                o = optic_strength(o1, z)
                assert (e.src, e.dst, e.grade) == (o.src, o.dst, tw(o1).grade)
                assert (e.left, e.right) == (o.left, o.right)
            for w in OBJS:
                for o2 in optics[y, w]:
                    e = g.gcomp(tw(o1), tw(o2))
                    o = optic_comp(o1, o2)
                    pq = SET.tensor(o1.residual, o2.residual)
                    assert o.residual == pq
                    assert e.grade == TwGrade(SET.id(pq))
                    assert (e.src, e.dst) == (o.src, o.dst)
                    assert (e.left, e.right) == (o.left, o.right)
                    checked += 1
    assert checked > 1000


# -- the composed formulas, kept as references --------------------------------
#
# Optics once took an inner arrow and built each part by composing its
# strength with structural isos.  Over the set arrow those composites are
# the reference the tables must match.

REF = hom_arrow(SET, [])


def _ref_pure(m: BaseMap) -> Optic:
    left = REF.pure(SET.compose(m.fwd, SET.inv(SET.lunit(m.dst.fwd))))
    right = REF.pure(SET.compose(SET.lunit(m.dst.bwd), m.bwd))
    return Optic(m.src, m.dst, SET.unit, left, right)


def _ref_comp(o1: Optic, o2: Optic) -> Optic:
    p, q = o1.residual, o2.residual
    z, w = o2.dst.fwd, o2.dst.bwd
    left = REF.comp(
        REF.comp(o1.left, left_strength(REF, o2.left, p)),
        REF.pure(SET.inv(SET.assoc(p, q, z))),
    )
    right = REF.comp(
        REF.comp(REF.pure(SET.assoc(p, q, w)), left_strength(REF, o2.right, p)),
        o1.right,
    )
    return Optic(o1.src, o2.dst, SET.tensor(p, q), left, right)


def _ref_strength(o: Optic, z: PairObj) -> Optic:
    p, y, r = o.residual, o.dst.fwd, o.dst.bwd
    left = REF.comp(REF.st(o.left, z.fwd), REF.pure(SET.assoc(p, y, z.fwd)))
    right = REF.comp(
        REF.pure(SET.inv(SET.assoc(p, r, z.bwd))), REF.st(o.right, z.bwd)
    )
    return Optic(PAIR.tensor(o.src, z), PAIR.tensor(o.dst, z), p, left, right)


def _ref_regrade(phi: TwIso, e: TwElement) -> TwElement:
    y, r = e.dst.fwd, e.dst.bwd
    left = REF.comp(e.left, REF.pure(SET.tensor_mor(SET.inv(phi.u), SET.id(y))))
    right = REF.comp(REF.pure(SET.tensor_mor(phi.v, SET.id(r))), e.right)
    q = TwGrade(SET.compose(SET.compose(phi.u, e.grade.f), SET.inv(phi.v)))
    return TwElement(e.src, e.dst, q, left, right)


def _optic_pool():
    # embedded lenses (residual = source) and embedded base maps (unit residual)
    return {
        (x, y): [embed_lens(lens) for lens in all_lenses(x, y)]
        + [optic_pure(m) for m in PAIR.morphisms(x, y)]
        for x in OBJS
        for y in OBJS
    }


def test_pure_tables_match_the_composed_formula():
    for x in OBJS:
        for y in OBJS:
            for m in PAIR.morphisms(x, y):
                assert optic_pure(m) == _ref_pure(m)


def test_composite_and_strength_tables_match_the_composed_formulas():
    pool = _optic_pool()
    composites = 0
    for (_, y), hom_xy in pool.items():
        for o1 in hom_xy:
            for z in OBJS:
                assert optic_strength(o1, z) == _ref_strength(o1, z)
            for w in OBJS:
                for o2 in pool[y, w]:
                    assert optic_comp(o1, o2) == _ref_comp(o1, o2)
                    composites += 1
    assert composites == 16240


def test_regrade_tables_match_the_composed_formula():
    g = twisted_grading(OBJS)
    regraded = 0
    for p in g.grades:
        for q in g.grades:
            for phi in g.grade_isos(q, p):
                for x in OBJS:
                    for y in OBJS:
                        for e in g.hom(p, x, y):
                            assert g.regrade(phi, e) == _ref_regrade(phi, e)
                            regraded += 1
    assert regraded == 9216


# -- the optic context: costrength and key against the composed forms ---------

LENS_ARROW = lens_arrow([])
PLAIN = ctx_of_arrow(LENS_ARROW)


def _octx(size):
    # the context suite's residuals and costrength objects at ``size``
    return (
        lens_optic_context(LENS_ARROW, [PAIR_I, pair_atoms((size, 1))[0]]),
        pair_atoms((1, 1), (1, size)),
    )


def _composed_cst(c: OpticCtx, x, y, z) -> OpticCtx:
    # absorb Z into the residual by composing with base isos:
    # Theta (x) (Y (x) Z) -> (Theta (x) Z) (x) Y after the state, and
    # (Theta (x) Z) (x) X -> Theta (x) (X (x) Z) before the continuation
    theta = c.residual
    state_iso = PAIR.compose(
        PAIR.tensor_mor(PAIR.id(theta), PAIR.sym(y, z)),
        PAIR.inv(PAIR.assoc(theta, z, y)),
    )
    cont_iso = PAIR.compose(
        PAIR.assoc(theta, z, x), PAIR.tensor_mor(PAIR.id(theta), PAIR.sym(z, x))
    )
    return OpticCtx(
        x,
        y,
        PAIR.tensor(theta, z),
        lens_comp(c.state, lens_pure(state_iso)),
        lens_comp(lens_pure(cont_iso), c.cont),
    )


def _collapse(c: OpticCtx) -> CtxPair:
    # the plain context a residual-bridged one stands for: the point y of
    # the state's (theta, y), and the continuation read at theta with the
    # X half of its coplay
    theta, y = c.state.fwd(STAR)
    k = FinFun.of(
        c.src.fwd, c.src.bwd, lambda x: c.cont.coplay((theta, x), STAR)[1]
    )
    return CtxPair(c.src, c.dst, y, k)


def _assert_keys_collapse_alike(octx, ctxs):
    # one key per collapsed context, and one collapsed context per key
    by_key = {}
    for c in ctxs:
        plain = PLAIN.key(_collapse(c))
        assert by_key.setdefault(octx.key(c), plain) == plain
    assert len(set(by_key.values())) == len(by_key)


@pytest.mark.parametrize("size", [1, 2])
def test_optic_costrength_tables_match_the_composite_on_every_context(size):
    octx, objs = _octx(size)
    objs = objs + [PAIR.tensor(objs[-1], objs[-1])]
    checked = 0
    for x, y, z in itertools.product(objs, repeat=3):
        for c in octx.hom(PAIR.tensor(x, z), PAIR.tensor(y, z)):
            assert octx.cst(c, x, y, z) == _composed_cst(c, x, y, z)
            checked += 1
    assert checked == {1: 54, 2: 2793}[size]


def test_optic_costrength_matches_the_composite_with_two_point_x_and_z():
    # the suite's X and Z have one forward point at most; here the
    # continuation's rows at (theta, (x, z)) and (theta, (z, x)) differ
    octx, (_, a) = _octx(2)
    f = pair_atoms((2, 1))[0]
    z = PAIR.tensor(f, a)
    ctxs = octx.hom(PAIR.tensor(f, z), PAIR.tensor(f, z))
    assert len(ctxs) == 4 * 2**4 + 8 * 2**8
    for c in ctxs:
        assert octx.cst(c, f, f, z) == _composed_cst(c, f, f, z)


@pytest.mark.parametrize("size", [1, 2])
def test_optic_context_keys_match_the_collapse_on_every_context(size):
    octx, objs = _octx(size)
    objs = objs + [pair_atoms((size, size))[0]]
    for x, y in itertools.product(objs, repeat=2):
        _assert_keys_collapse_alike(octx, octx.hom(x, y))


def _labelled(tag, n_fwd, n_bwd):
    return PairObj(
        FinSet(tuple(f"{tag}f{i}" for i in range(n_fwd))),
        FinSet(tuple(f"{tag}b{i}" for i in range(n_bwd))),
    )


def _sized(tag):
    return st.builds(_labelled, st.just(tag), st.integers(1, 2), st.integers(1, 2))


def _draw_ctx(data, theta, x, y):
    # a context of Ctx(X, Y) bridged by theta, with every table drawn
    ty, tx = PAIR.tensor(theta, y), PAIR.tensor(theta, x)
    point = data.draw(st.sampled_from(ty.fwd.elements))
    table = data.draw(st.tuples(*[st.sampled_from(tx.bwd.elements)] * len(tx.fwd)))
    k = cont_lens(tx, FinFun(tx.fwd, tx.bwd, table))
    return OpticCtx(x, y, theta, point_lens(ty, point), k)


THETA2 = _labelled("t", 2, 2)
Z22 = _labelled("z", 2, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sized("x"), _sized("y"), st.data())
def test_optic_costrength_matches_the_composite_on_sampled_contexts(x, y, data):
    octx, _ = _octx(2)
    c = _draw_ctx(data, THETA2, PAIR.tensor(x, Z22), PAIR.tensor(y, Z22))
    assert octx.cst(c, x, y, Z22) == _composed_cst(c, x, y, Z22)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sized("x"), _sized("y"), st.data())
def test_optic_context_keys_match_the_collapse_on_sampled_contexts(x, y, data):
    octx, _ = _octx(2)
    x, y = PAIR.tensor(x, Z22), PAIR.tensor(y, Z22)
    c1, c2 = _draw_ctx(data, THETA2, x, y), _draw_ctx(data, THETA2, x, y)
    # rebuild c2 around c1's point and c1's coplay row at its theta, read
    # by c2 at its own theta; then disturb a cell, the point or nothing
    theta1, yv = c1.state.fwd(STAR)
    theta2 = data.draw(st.sampled_from(THETA2.fwd.elements))
    row = {xv: c1.cont.coplay((theta1, xv), STAR)[1] for xv in x.fwd}
    tx = c2.cont.src
    table = [
        (cell[0], row[xv]) if th == theta2 else cell
        for (th, xv), cell in zip(tx.fwd.elements, c2.cont.bwd.table)
    ]
    disturb = data.draw(st.sampled_from(["nothing", "cell", "point"]))
    if disturb == "cell":
        at = data.draw(st.integers(0, len(table) - 1))
        table[at] = data.draw(st.sampled_from(tx.bwd.elements))
    if disturb == "point":
        yv = data.draw(st.sampled_from(y.fwd.elements))
    c2 = OpticCtx(
        x,
        y,
        THETA2,
        point_lens(PAIR.tensor(THETA2, y), (theta2, yv)),
        cont_lens(tx, FinFun(tx.fwd, tx.bwd, tuple(table))),
    )
    same_key = octx.key(c1) == octx.key(c2)
    assert same_key == (_collapse(c1) == _collapse(c2))


def _raised(f, *args) -> str:
    with pytest.raises(CompositionError) as exc:
        f(*args)
    return str(exc.value)


def test_optic_costrength_needs_a_state_into_theta_y_z():
    octx, (i, a) = _octx(2)
    aa = PAIR.tensor(a, a)
    c = octx.hom(aa, aa)[-1]
    # with I stated as the spectator, Y (x) Z is A (x) I, not A (x) A
    assert c.state.dst != PAIR.tensor(c.residual, PAIR.tensor(a, i))
    message = _raised(octx.cst, c, a, a, i)
    assert message == _raised(_composed_cst, c, a, a, i)


def test_optic_costrength_needs_a_continuation_out_of_theta_x_z():
    octx, (i, a) = _octx(2)
    c = octx.hom(PAIR.tensor(i, a), PAIR.tensor(a, a))[-1]
    # the state fits Y (x) Z = A (x) A, but the continuation leaves
    # Theta (x) (I (x) A), not Theta (x) (A (x) A)
    assert c.state.dst == PAIR.tensor(c.residual, PAIR.tensor(a, a))
    message = _raised(octx.cst, c, a, a, a)
    assert message == _raised(_composed_cst, c, a, a, a)
