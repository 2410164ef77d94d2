"""Optics over a base arrow, their canonical forms, and optic contexts.

An optic between pair objects routes the forward pass through a hidden
residual carrier that the backward pass may consult.  Optics live on the
cartesian base, where they are taken up to "sliding" a map across the
residual and every sliding class holds exactly one lens, so equality is
decided by that canonical lens form.  The grade-indexed view (one
component per base morphism between residual carriers) exposes the same
data as a graded arrow, and the optic-shaped context of the lens arrow
re-injects spectator carriers into the residual rather than splitting
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .arrow import ArrowInstance, hom_arrow, left_strength
from .base import PAIR, BaseMap, PairObj, SET
from .bimodule import Bimodule, ContextStruct, CtxPair, ctx_of_arrow
from .finset import (
    STAR,
    CompositionError,
    FinFun,
    FinSet,
    all_funs,
    assoc_iso,
    lunit_iso,
    product,
    runit_iso,
    sym_iso,
)
from .grading import GradedArrow
from .lens import (
    Lens,
    all_lenses,
    cont_lens,
    lens_comp,
    lens_key,
    point_lens,
)

DEFAULT_RESIDUAL_CAP = 8


@dataclass(frozen=True)
class Optic:
    """A residual carrier with a left part into it and a right part out of it."""

    src: PairObj
    dst: PairObj
    residual: FinSet
    left: FinFun  # X -> P (x) Y
    right: FinFun  # P (x) R -> S


def carrier_set_arrow(objects: list[PairObj]) -> ArrowInstance:
    """The identity arrow on the carriers of pair objects, smallest first.

    The inner arrow of cartesian optics over those objects.
    """
    carriers = {o.fwd for o in objects} | {o.bwd for o in objects}
    return hom_arrow(SET, sorted(carriers, key=lambda s: (len(s), repr(s.elements))))


def optic_pure(a_inst: ArrowInstance, m: BaseMap) -> Optic:
    """Embed a pair-base map with the unit carrier as residual."""
    c = a_inst.base
    unit = c.unit
    left = a_inst.pure(c.compose(m.fwd, c.inv(c.lunit(m.dst.fwd))))
    right = a_inst.pure(c.compose(c.lunit(m.dst.bwd), m.bwd))
    return Optic(m.src, m.dst, unit, left, right)


# The composite and strength formulas, over residuals given explicitly: an
# optic passes its one residual to both sides, a component of the twisted
# grading its left residual to the left part and its right one to the right.

def _comp_left(a_inst: ArrowInstance, left1, left2, p, q, z):
    # X -> P (x) Y -> P (x) (Q (x) Z) -> (P (x) Q) (x) Z
    c = a_inst.base
    return a_inst.comp(
        a_inst.comp(left1, left_strength(a_inst, left2, p)),
        a_inst.pure(c.inv(c.assoc(p, q, z))),
    )


def _comp_right(a_inst: ArrowInstance, right1, right2, p, q, w):
    # (P (x) Q) (x) W -> P (x) (Q (x) W) -> P (x) R -> S
    c = a_inst.base
    return a_inst.comp(
        a_inst.comp(
            a_inst.pure(c.assoc(p, q, w)),
            left_strength(a_inst, right2, p),
        ),
        right1,
    )


def _st_left(a_inst: ArrowInstance, left, p, y, z0):
    # X (x) Z0 -> (P (x) Y) (x) Z0 -> P (x) (Y (x) Z0)
    c = a_inst.base
    return a_inst.comp(a_inst.st(left, z0), a_inst.pure(c.assoc(p, y, z0)))


def _st_right(a_inst: ArrowInstance, right, p, r, z1):
    # P (x) (R (x) Z1) -> (P (x) R) (x) Z1 -> S (x) Z1
    c = a_inst.base
    return a_inst.comp(a_inst.pure(c.inv(c.assoc(p, r, z1))), a_inst.st(right, z1))


def optic_comp(a_inst: ArrowInstance, o1: Optic, o2: Optic) -> Optic:
    """Compose optics; the residuals multiply.

    Above ``DEFAULT_RESIDUAL_CAP`` the composite canonicalizes through a lens.
    """
    if o1.dst != o2.src:
        raise CompositionError(
            f"cannot compose optic {o1.src}->{o1.dst} with {o2.src}->{o2.dst}"
        )
    c = a_inst.base
    p, q = o1.residual, o2.residual
    pq = c.tensor(p, q)
    if len(pq) > DEFAULT_RESIDUAL_CAP:
        return embed_lens(lens_comp(optic_canonicalize(o1), optic_canonicalize(o2)))
    left = _comp_left(a_inst, o1.left, o2.left, p, q, o2.dst.fwd)
    right = _comp_right(a_inst, o1.right, o2.right, p, q, o2.dst.bwd)
    return Optic(o1.src, o2.dst, pq, left, right)


def optic_strength(a_inst: ArrowInstance, o: Optic, z: PairObj) -> Optic:
    """Pad a spectator pair object; the residual is untouched."""
    p = o.residual
    src = PAIR.tensor(o.src, z)
    dst = PAIR.tensor(o.dst, z)
    left = _st_left(a_inst, o.left, p, o.dst.fwd, z.fwd)
    right = _st_right(a_inst, o.right, p, o.dst.bwd, z.bwd)
    return Optic(src, dst, p, left, right)


# -- the cartesian canonical form --------------------------------------------

def embed_lens(lens: Lens) -> Optic:
    """A lens as an optic: the residual remembers the whole input."""
    x = lens.src.fwd
    left = FinFun.of(
        x, product(x, lens.dst.fwd), lambda v: (v, lens.fwd(v))
    )
    return Optic(lens.src, lens.dst, x, left, lens.bwd)


def optic_canonicalize(o: Optic) -> Lens:
    """The unique lens in an optic's sliding class."""
    fwd = FinFun.of(o.src.fwd, o.dst.fwd, lambda x: o.left(x)[1])
    bwd = FinFun.of(
        product(o.src.fwd, o.dst.bwd),
        o.src.bwd,
        lambda xr: o.right((o.left(xr[0])[0], xr[1])),
    )
    return Lens(o.src, o.dst, fwd, bwd)


def optic_equiv(o1: Optic, o2: Optic) -> bool:
    """Sliding-equivalence of optics: same endpoints and canonical lens."""
    return (
        (o1.src, o1.dst) == (o2.src, o2.dst)
        and optic_canonicalize(o1) == optic_canonicalize(o2)
    )


def optic_arrow(objects: list[PairObj]) -> ArrowInstance:
    """The optic arrow over the carriers of the given pair objects.

    Every sliding class contains an embedded lens, so the hom
    enumeration lists exactly those.
    """
    a_inst = carrier_set_arrow(objects)

    def hom(x, y):
        return [embed_lens(lens) for lens in all_lenses(x, y)]

    return ArrowInstance(
        name=f"optic({a_inst.name})",
        base=PAIR,
        objects=list(objects),
        hom=hom,
        pure=lambda m: optic_pure(a_inst, m),
        comp=lambda o1, o2: optic_comp(a_inst, o1, o2),
        st=lambda o, z: optic_strength(a_inst, o, z),
        equal=optic_equiv,
        key=lambda o: lens_key(optic_canonicalize(o)),
        commutative=True,
    )


# -- the grade-indexed view ---------------------------------------------------
#
# A coend over residuals unrolls to a colimit indexed by base morphisms
# f : P' -> P between residual carriers: a component at grade f keeps its
# left part at P' and its right part at P.  Reindexing along commuting
# squares of bijections is the grade-isomorphism relation.

@dataclass(frozen=True)
class TwGrade:
    f: FinFun  # P' -> P

    @property
    def left_res(self):
        return self.f.dom

    @property
    def right_res(self):
        return self.f.cod

    def __len__(self):
        # size proxy used by index bounds
        return max(len(self.f.dom), len(self.f.cod))


@dataclass(frozen=True)
class TwIso:
    """A commuting square of bijections between two grades."""

    u: FinFun  # between the left residuals
    v: FinFun  # between the right residuals


@dataclass(frozen=True)
class TwElement:
    src: PairObj
    dst: PairObj
    grade: TwGrade
    left: Any  # A(X, P' (x) Y)
    right: Any  # A(P (x) R, S)


def _tw_isos(c, q: TwGrade, p: TwGrade) -> list[TwIso]:
    out = []
    for u in c.isos(q.left_res, p.left_res):
        lhs = c.compose(u, p.f)
        for v in c.isos(q.right_res, p.right_res):
            if lhs == c.compose(q.f, v):
                out.append(TwIso(u, v))
    return out


def twisted_grading(
    a_inst: ArrowInstance,
    objects: list[PairObj],
    grades: list[TwGrade] | None = None,
    member_pool: Callable[[Any, Any], list] | None = None,
) -> GradedArrow:
    """Optic components as a graded arrow over residual-carrier morphisms,
    keyed by the grade and both parts' inner keys when the inner arrow is."""
    c = a_inst.base
    unit_grade = TwGrade(c.id(c.unit))
    if grades is None:
        bit = FinSet((0, 1))
        grades = [unit_grade] + [TwGrade(f) for f in all_funs(bit, bit)]
    pool = member_pool or a_inst.hom_cached

    def hom(g: TwGrade, x: PairObj, y: PairObj):
        return [
            TwElement(x, y, g, left, right)
            for left in pool(x.fwd, c.tensor(g.left_res, y.fwd))
            for right in pool(c.tensor(g.right_res, y.bwd), x.bwd)
        ]

    def unit(m: BaseMap):
        o = optic_pure(a_inst, m)
        return TwElement(m.src, m.dst, unit_grade, o.left, o.right)

    def gcomp(e1: TwElement, e2: TwElement):
        if e1.dst != e2.src:
            raise CompositionError("graded optic composition: endpoint mismatch")
        g1, g2 = e1.grade, e2.grade
        g = TwGrade(c.tensor_mor(g1.f, g2.f))
        left = _comp_left(
            a_inst, e1.left, e2.left, g1.left_res, g2.left_res, e2.dst.fwd
        )
        right = _comp_right(
            a_inst, e1.right, e2.right, g1.right_res, g2.right_res, e2.dst.bwd
        )
        return TwElement(e1.src, e2.dst, g, left, right)

    def st(e: TwElement, z: PairObj):
        g = e.grade
        left = _st_left(a_inst, e.left, g.left_res, e.dst.fwd, z.fwd)
        right = _st_right(a_inst, e.right, g.right_res, e.dst.bwd, z.bwd)
        return TwElement(
            PAIR.tensor(e.src, z), PAIR.tensor(e.dst, z), g, left, right
        )

    def regrade(phi: TwIso, e: TwElement):
        # pull a component at grade p back along an iso square from grade q
        y, r = e.dst.fwd, e.dst.bwd
        left = a_inst.comp(
            e.left, a_inst.pure(c.tensor_mor(c.inv(phi.u), c.id(y)))
        )
        right = a_inst.comp(
            a_inst.pure(c.tensor_mor(phi.v, c.id(r))), e.right
        )
        q = TwGrade(c.compose(c.compose(phi.u, e.grade.f), c.inv(phi.v)))
        return TwElement(e.src, e.dst, q, left, right)

    def equal(e1, e2):
        if (e1.src, e1.dst, e1.grade) != (e2.src, e2.dst, e2.grade):
            return False
        return a_inst.equal(e1.left, e2.left) and a_inst.equal(e1.right, e2.right)

    key = None
    if a_inst.key is not None:
        key = lambda e: (e.grade, a_inst.key(e.left), a_inst.key(e.right))  # noqa: E731

    def grade_structural(kind: str, args: tuple) -> TwIso:
        def both(mk):
            return TwIso(
                mk(*[g.left_res for g in args]),
                mk(*[g.right_res for g in args]),
            )

        if kind == "lunit":
            return both(lambda p: lunit_iso(p).inverse())
        if kind == "runit":
            return both(lambda p: runit_iso(p).inverse())
        if kind == "assoc":
            return both(lambda p, q, r: assoc_iso(p, q, r).inverse())
        if kind == "sym":
            return both(lambda p, q: sym_iso(q, p))
        raise ValueError(f"unknown structural grade iso {kind!r}")

    return GradedArrow(
        name=f"twisted({a_inst.name})",
        base=PAIR,
        objects=list(objects),
        grades=list(grades),
        grade_unit=unit_grade,
        grade_tensor=lambda g1, g2: TwGrade(c.tensor_mor(g1.f, g2.f)),
        grade_isos=lambda q, p: _tw_isos(c, q, p),
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=equal,
        key=key,
        commutative=a_inst.commutative,
        grade_structural=grade_structural,
    )


# -- optic-shaped contexts ----------------------------------------------------
#
# A context for lenses X -> Y: a residual pair object bridging a state into
# it and a continuation out of it.  No point-splitting is needed; the
# costrength re-injects the spectator into the residual.

@dataclass(frozen=True)
class OpticCtx:
    src: PairObj
    dst: PairObj
    residual: PairObj
    state: Lens  # I -> Theta (x) Y
    cont: Lens  # Theta (x) X -> I


def lens_optic_context(
    g_inst: ArrowInstance, residual_pool: list[PairObj]
) -> ContextStruct:
    """Contexts of the lens arrow in residual-bridged form.

    Two contexts are equal when they collapse to the same (point,
    continuation) pair, the sliding-invariant content of a context.
    """
    base = g_inst.base
    unit = base.unit
    plain = ctx_of_arrow(g_inst)

    def key(c: OpticCtx):
        # the state picks a point (theta, y); fixing theta in the
        # continuation and projecting its coplay recovers the bare
        # continuation
        theta, y = c.state.fwd(STAR)
        cont_fun = FinFun.of(
            c.src.fwd,
            c.src.bwd,
            lambda x: c.cont.coplay((theta, x), STAR)[1],
        )
        return plain.bimodule.key(
            CtxPair(c.src, c.dst, point_lens(c.dst, y), cont_lens(c.src, cont_fun))
        )

    def hom(x, y):
        return [
            OpticCtx(x, y, theta, s, k)
            for theta in residual_pool
            for s in g_inst.hom_cached(unit, base.tensor(theta, y))
            for k in g_inst.hom_cached(base.tensor(theta, x), unit)
        ]

    def lact(a, c):
        if g_inst.dst(a) != c.src:
            raise CompositionError("optic context left action: endpoint mismatch")
        cont = g_inst.comp(left_strength(g_inst, a, c.residual), c.cont)
        return OpticCtx(g_inst.src(a), c.dst, c.residual, c.state, cont)

    def ract(c, a):
        if g_inst.src(a) != c.dst:
            raise CompositionError("optic context right action: endpoint mismatch")
        state = g_inst.comp(c.state, left_strength(g_inst, a, c.residual))
        return OpticCtx(c.src, g_inst.dst(a), c.residual, state, cont=c.cont)

    def cst(c, x_obj, y_obj, z_obj):
        # Ctx(X (x) Z, Y (x) Z) -> Ctx(X, Y): absorb Z into the residual.
        theta = c.residual
        enlarged = base.tensor(theta, z_obj)
        # Theta (x) (Y (x) Z) -> Theta (x) (Z (x) Y) -> (Theta (x) Z) (x) Y
        state_iso = base.compose(
            base.tensor_mor(base.id(theta), base.sym(y_obj, z_obj)),
            base.inv(base.assoc(theta, z_obj, y_obj)),
        )
        # (Theta (x) Z) (x) X -> Theta (x) (Z (x) X) -> Theta (x) (X (x) Z)
        cont_iso = base.compose(
            base.assoc(theta, z_obj, x_obj),
            base.tensor_mor(base.id(theta), base.sym(z_obj, x_obj)),
        )
        return OpticCtx(
            x_obj,
            y_obj,
            enlarged,
            g_inst.comp(c.state, g_inst.pure(state_iso)),
            g_inst.comp(g_inst.pure(cont_iso), c.cont),
        )

    def equal(c1, c2):
        return (c1.src, c1.dst) == (c2.src, c2.dst) and key(c1) == key(c2)

    bim = Bimodule(
        name=f"opticctx({g_inst.name})",
        arrow=g_inst,
        hom=hom,
        lact=lact,
        ract=ract,
        equal=equal,
        key=key,
        commutative=True,
    )
    return ContextStruct(bimodule=bim, cst=cst)
