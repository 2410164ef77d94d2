"""Optics as set-function tables, their canonical forms, and optic contexts.

An optic between pair objects routes the forward pass through a hidden
residual carrier that the backward pass may consult.  Optics live on the
cartesian base: both parts are tables of finite functions, and composition
and strength build each part as one table.  Optics are taken up to
"sliding" a map across the residual, and every sliding class holds exactly
one lens, so equality is decided by that canonical lens form.  The
grade-indexed view (one component per function between residual carriers)
exposes the same data as a graded arrow.  The optic-shaped context of the
lens arrow re-injects spectator carriers into the residual rather than
splitting points; its key and costrength read the state's and the
continuation's tables.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .arrow import ArrowInstance, left_strength
from .base import PAIR, BaseMap, PairObj, SET
from .bimodule import Bimodule
from .finset import (
    STAR,
    UNIT,
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
from .lens import Lens, _point_lens, all_lenses, lens_comp, lens_key
from .record import record

DEFAULT_RESIDUAL_CAP = 8


@record(frozen=True)
class Optic:
    """A residual carrier with a left part into it and a right part out of it."""

    src: PairObj
    dst: PairObj
    residual: FinSet
    left: FinFun  # X -> P (x) Y
    right: FinFun  # P (x) R -> S


def optic_pure(m: BaseMap) -> Optic:
    """Embed a pair-base map with the unit carrier as residual."""
    # x |-> (*, fwd(x)), and (*, r) |-> bwd(r)
    left = FinFun._trusted(
        m.src.fwd, product(UNIT, m.dst.fwd), tuple((STAR, y) for y in m.fwd.table)
    )
    right = FinFun._trusted(product(UNIT, m.dst.bwd), m.src.bwd, m.bwd.table)
    return Optic(m.src, m.dst, UNIT, left, right)


# The composite and strength tables, over residuals given explicitly: an
# optic passes its one residual to both sides, a component of the twisted
# grading its left residual to the left part and its right one to the right.

def _comp_left(left1: FinFun, left2: FinFun, p, q, z) -> FinFun:
    # X -> (P (x) Q) (x) Z: x |-> ((a, b), w), where left1(x) = (a, y) and
    # left2(y) = (b, w)
    at, t2 = left2.dom._index, left2.table
    table = tuple(((a, b), w) for a, y in left1.table for b, w in [t2[at[y]]])
    return FinFun._trusted(left1.dom, product(product(p, q), z), table)


def _comp_right(right1: FinFun, right2: FinFun, p, q, w) -> FinFun:
    # (P (x) Q) (x) W -> S: ((a, b), v) |-> right1(a, right2(b, v)).  The
    # domain is row-major, so under a_i the (b, v) run through right2's
    # domain in order, and right1's row of a_i starts at i*|R|.
    rs, n_r, t1 = right2.cod._index, len(right2.cod), right1.table
    table = tuple(t1[i * n_r + rs[r]] for i in range(len(p)) for r in right2.table)
    return FinFun._trusted(product(product(p, q), w), right1.cod, table)


def _st_left(left: FinFun, p, y, z0) -> FinFun:
    # X (x) Z0 -> P (x) (Y (x) Z0): (x, c) |-> (a, (v, c)), where left(x) = (a, v)
    table = tuple((a, (v, c)) for a, v in left.table for c in z0.elements)
    return FinFun._trusted(product(left.dom, z0), product(p, product(y, z0)), table)


def _st_right(right: FinFun, p, r, z1) -> FinFun:
    # P (x) (R (x) Z1) -> S (x) Z1: (a, (r, c)) |-> (right(a, r), c)
    table = tuple((s, c) for s in right.table for c in z1.elements)
    return FinFun._trusted(product(p, product(r, z1)), product(right.cod, z1), table)


def optic_comp(o1: Optic, o2: Optic) -> Optic:
    """Compose optics; the residuals multiply.

    Above ``DEFAULT_RESIDUAL_CAP`` the composite canonicalizes through a lens.
    """
    if o1.dst != o2.src:
        raise CompositionError(
            f"cannot compose optic {o1.src}->{o1.dst} with {o2.src}->{o2.dst}"
        )
    p, q = o1.residual, o2.residual
    pq = product(p, q)
    if len(pq) > DEFAULT_RESIDUAL_CAP:
        return embed_lens(lens_comp(optic_canonicalize(o1), optic_canonicalize(o2)))
    left = _comp_left(o1.left, o2.left, p, q, o2.dst.fwd)
    right = _comp_right(o1.right, o2.right, p, q, o2.dst.bwd)
    return Optic(o1.src, o2.dst, pq, left, right)


def optic_strength(o: Optic, z: PairObj) -> Optic:
    """Pad a spectator pair object; the residual is untouched."""
    p = o.residual
    src = PAIR.tensor(o.src, z)
    dst = PAIR.tensor(o.dst, z)
    left = _st_left(o.left, p, o.dst.fwd, z.fwd)
    right = _st_right(o.right, p, o.dst.bwd, z.bwd)
    return Optic(src, dst, p, left, right)


# -- the cartesian canonical form --------------------------------------------

def embed_lens(lens: Lens) -> Optic:
    """A lens as an optic: the residual remembers the whole input."""
    x = lens.src.fwd
    left = FinFun._trusted(
        x, product(x, lens.dst.fwd), tuple(zip(x.elements, lens.fwd.table))
    )
    return Optic(lens.src, lens.dst, x, left, lens.bwd)


def optic_canonicalize(o: Optic) -> Lens:
    """The unique lens in an optic's sliding class."""
    # x |-> y and (x, r) |-> right(a, r), where left(x) = (a, y); right's
    # row of a starts at |R| times a's position in the residual
    at, n_r, t = o.residual._index, len(o.dst.bwd), o.right.table
    fwd = FinFun._trusted(o.src.fwd, o.dst.fwd, tuple(y for _, y in o.left.table))
    bwd = FinFun._trusted(
        product(o.src.fwd, o.dst.bwd),
        o.src.bwd,
        tuple(t[at[a] * n_r + k] for a, _ in o.left.table for k in range(n_r)),
    )
    return Lens._trusted(o.src, o.dst, fwd, bwd)


def optic_equiv(o1: Optic, o2: Optic) -> bool:
    """Sliding-equivalence of optics: same endpoints and canonical lens."""
    return (
        (o1.src, o1.dst) == (o2.src, o2.dst)
        and optic_canonicalize(o1) == optic_canonicalize(o2)
    )


def optic_arrow(objects: list[PairObj]) -> ArrowInstance:
    """The optic arrow over the given pair objects.

    Every sliding class contains an embedded lens, so the hom
    enumeration lists exactly those.
    """

    def hom(x, y):
        return [embed_lens(lens) for lens in all_lenses(x, y)]

    return ArrowInstance(
        name="optic(set)",
        base=PAIR,
        objects=list(objects),
        hom=hom,
        pure=optic_pure,
        comp=optic_comp,
        st=optic_strength,
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

@record(frozen=True)
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


@record(frozen=True)
class TwIso:
    """A commuting square of bijections between two grades."""

    u: FinFun  # between the left residuals
    v: FinFun  # between the right residuals


@record(frozen=True)
class TwElement:
    src: PairObj
    dst: PairObj
    grade: TwGrade
    left: FinFun  # X -> P' (x) Y
    right: FinFun  # P (x) R -> S


def _tw_isos(q: TwGrade, p: TwGrade) -> list[TwIso]:
    out = []
    for u in SET.isos(q.left_res, p.left_res):
        lhs = SET.compose(u, p.f)
        for v in SET.isos(q.right_res, p.right_res):
            if lhs == SET.compose(q.f, v):
                out.append(TwIso(u, v))
    return out


def twisted_grading(
    objects: list[PairObj],
    grades: list[TwGrade] | None = None,
    member_pool: Callable[[Any, Any], list] | None = None,
) -> GradedArrow:
    """Optic components as a graded arrow over residual-carrier functions,
    keyed by the grade and both parts' tables.

    ``member_pool(A, B)`` lists the functions A -> B a component's parts
    range over; all of them by default.
    """
    unit_grade = TwGrade(SET.id(UNIT))
    pool = member_pool or all_funs
    if grades is None:
        bit = FinSet((0, 1))
        grades = [unit_grade] + [TwGrade(f) for f in all_funs(bit, bit)]

    def hom(g: TwGrade, x: PairObj, y: PairObj):
        return [
            TwElement(x, y, g, left, right)
            for left in pool(x.fwd, product(g.left_res, y.fwd))
            for right in pool(product(g.right_res, y.bwd), x.bwd)
        ]

    def unit(m: BaseMap):
        o = optic_pure(m)
        return TwElement(m.src, m.dst, unit_grade, o.left, o.right)

    def gcomp(e1: TwElement, e2: TwElement):
        if e1.dst != e2.src:
            raise CompositionError("graded optic composition: endpoint mismatch")
        g1, g2 = e1.grade, e2.grade
        g = TwGrade(SET.tensor_mor(g1.f, g2.f))
        left = _comp_left(e1.left, e2.left, g1.left_res, g2.left_res, e2.dst.fwd)
        right = _comp_right(
            e1.right, e2.right, g1.right_res, g2.right_res, e2.dst.bwd
        )
        return TwElement(e1.src, e2.dst, g, left, right)

    def st(e: TwElement, z: PairObj):
        g = e.grade
        left = _st_left(e.left, g.left_res, e.dst.fwd, z.fwd)
        right = _st_right(e.right, g.right_res, e.dst.bwd, z.bwd)
        return TwElement(
            PAIR.tensor(e.src, z), PAIR.tensor(e.dst, z), g, left, right
        )

    def regrade(phi: TwIso, e: TwElement):
        # pull a component at grade p back along an iso square from grade q
        y, r = e.dst.fwd, e.dst.bwd
        left = SET.compose(e.left, SET.tensor_mor(SET.inv(phi.u), SET.id(y)))
        right = SET.compose(SET.tensor_mor(phi.v, SET.id(r)), e.right)
        q = TwGrade(SET.compose(SET.compose(phi.u, e.grade.f), SET.inv(phi.v)))
        return TwElement(e.src, e.dst, q, left, right)

    def key(e: TwElement):
        return e.grade, e.left.table, e.right.table

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
        name="twisted(set)",
        base=PAIR,
        objects=list(objects),
        grades=list(grades),
        grade_isos=_tw_isos,
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=operator.eq,
        key=key,
        commutative=True,
        grade_structural=grade_structural,
    )


# -- optic-shaped contexts ----------------------------------------------------
#
# A context for lenses X -> Y: a residual pair object bridging a state into
# it and a continuation out of it.  No point-splitting is needed; the
# costrength re-injects the spectator into the residual.

@record(frozen=True)
class OpticCtx:
    src: PairObj
    dst: PairObj
    residual: PairObj
    state: Lens  # I -> Theta (x) Y
    cont: Lens  # Theta (x) X -> I


def lens_optic_context(
    g_inst: ArrowInstance, residual_pool: list[PairObj]
) -> Bimodule:
    """Contexts of the lens arrow in residual-bridged form.

    Two contexts are equal when they collapse to the same (point,
    continuation) pair, the sliding-invariant content of a context.
    """
    base = g_inst.base
    unit = base.unit

    def key(c: OpticCtx):
        # the state's point (theta, y), and the X half of the continuation's
        # coplay row at theta: the bare point and continuation it collapses to
        theta, y = c.state.fwd.table[0]
        n_x = len(c.src.fwd)
        row = c.residual.fwd.index(theta) * n_x
        return y, tuple(s for _, s in c.cont.bwd.table[row:row + n_x])

    def hom(x, y):
        return [
            OpticCtx(x, y, theta, s, k)
            for theta in residual_pool
            for s in g_inst.hom_cached(unit, base.tensor(theta, y))
            for k in g_inst.hom_cached(base.tensor(theta, x), unit)
        ]

    def lact(a, c):
        if a.dst != c.src:
            raise CompositionError("optic context left action: endpoint mismatch")
        cont = g_inst.comp(left_strength(g_inst, a, c.residual), c.cont)
        return OpticCtx(a.src, c.dst, c.residual, c.state, cont)

    def ract(c, a):
        if a.src != c.dst:
            raise CompositionError("optic context right action: endpoint mismatch")
        state = g_inst.comp(c.state, left_strength(g_inst, a, c.residual))
        return OpticCtx(c.src, a.dst, c.residual, state, cont=c.cont)

    def cst(c, x_obj, y_obj, z_obj):
        # Ctx(X (x) Z, Y (x) Z) -> Ctx(X, Y): absorb Z into the residual.
        # The state's point (t, (y, z)) becomes ((t, z), y); the continuation
        # at ((t, z), x) is the old one at (t, (x, z)), with each coplay
        # (t', (s, u)) regrouped as ((t', u), s).
        theta, j, k = c.residual, c.state, c.cont
        enlarged = base.tensor(theta, z_obj)
        tyz = base.tensor(theta, base.tensor(y_obj, z_obj))
        if j.dst != tyz:
            raise CompositionError(
                f"cannot compose lens {j.src}->{j.dst} with "
                f"{tyz}->{base.tensor(enlarged, y_obj)}"
            )
        src = base.tensor(enlarged, x_obj)
        txz = base.tensor(theta, base.tensor(x_obj, z_obj))
        if k.src != txz:
            raise CompositionError(
                f"cannot compose lens {src}->{txz} with {k.src}->{k.dst}"
            )
        t, (y, z) = j.fwd.table[0]
        state = _point_lens(base.tensor(enlarged, y_obj), ((t, z), y))
        # (t_i, (x_l, z_m)) is row (i*|X| + l)*|Z| + m of the continuation,
        # each of |R| coplay cells
        n_x, n_z, n_r = len(x_obj.fwd), len(z_obj.fwd), len(k.dst.bwd)
        rows = [
            (i * n_x + l) * n_z + m
            for i in range(len(theta.fwd))
            for m in range(n_z)
            for l in range(n_x)
        ]
        b = k.bwd.table
        fwd = FinFun._trusted(
            src.fwd, k.dst.fwd, tuple(map(k.fwd.table.__getitem__, rows))
        )
        bwd = FinFun._trusted(
            product(src.fwd, k.dst.bwd),
            src.bwd,
            tuple(
                ((tb, u), s)
                for row in rows
                for tb, (s, u) in b[row * n_r:(row + 1) * n_r]
            ),
        )
        return OpticCtx(
            x_obj, y_obj, enlarged, state, Lens._trusted(src, k.dst, fwd, bwd)
        )

    def equal(c1, c2):
        return (c1.src, c1.dst) == (c2.src, c2.dst) and key(c1) == key(c2)

    return Bimodule(
        name=f"opticctx({g_inst.name})",
        arrow=g_inst,
        hom=hom,
        lact=lact,
        ract=ract,
        equal=equal,
        key=key,
        cst=cst,
        commutative=True,
    )
