"""Grading: indexed families of morphisms and the colimit that hides them.

A graded arrow keeps per-index hom-families whose composition multiplies
the indices; summing the grading out (``hide``) yields a plain arrow
whose morphisms are families identified up to index bijection.  The
family construction, the parameterisation operator and their bimodule
variants all live here.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .arrow import ArrowInstance, left_strength
from .base import BaseMap, PairObj
from .finset import (
    CompositionError,
    DomainError,
    FinFun,
    FinSet,
    all_bijections,
    assoc_iso,
    product,
    sym_iso,
)
from .record import record

#: hide and fam refuse index sets larger than this: composition grows indices
#: multiplicatively and the bijection search must stay tractable.
DEFAULT_INDEX_BOUND = 8


class SizeError(ValueError):
    """An index or residual set exceeded the configured bound."""


# -- graded arrows -----------------------------------------------------------

@record
class GradedArrow:
    """A grade-indexed hom-family whose composition multiplies grades.

    Each member carries its own grade and endpoints as ``.grade``,
    ``.src`` and ``.dst``, so the unit grade and the grade tensor are read
    off members: ``unit`` builds one at the unit grade, and ``gcomp`` one
    at the tensor of its operands' grades.
    """

    name: str
    base: Any
    objects: list
    grades: list
    grade_isos: Callable[[Any, Any], list]
    hom: Callable[[Any, Any, Any], list]  # (grade, X, Y) -> elements
    unit: Callable[[Any], Any]  # base morphism -> element at the unit grade
    gcomp: Callable[[Any, Any], Any]
    st: Callable[[Any, Any], Any]
    regrade: Callable[[Any, Any], Any]  # (grade iso q -> p, elem at p) -> at q
    equal: Callable[[Any, Any], bool]
    key: Callable[[Any], Any] | None = None
    commutative: bool = False
    # canonical structural grade isos, in the direction regrade consumes
    # (an iso q -> p relabels an element at p down to q):
    #   "lunit": p -> 1 (x) p      "runit": p -> p (x) 1
    #   "assoc": p (x) (q (x) r) -> (p (x) q) (x) r
    #   "sym":   q (x) p -> p (x) q
    grade_structural: Callable[[str, tuple], Any] | None = None


@record(frozen=True)
class ParamFamily:
    """A morphism family indexed by a parameter set (one grade's worth)."""

    src: Any
    dst: Any
    grade: FinSet
    members: tuple

    def member(self, j):
        return self.members[self.grade.index(j)]


def default_grades() -> list[FinSet]:
    """Canonical small index sets: {0} and {0,1}."""
    return [FinSet((0,)), FinSet((0, 1))]


GRADE_UNIT = FinSet((0,))


def param_structural(kind: str, args: tuple) -> FinFun:
    """The structural grade isos of finite-set grades under product."""
    if kind == "lunit":
        (p,) = args
        return FinFun.of(p, product(GRADE_UNIT, p), lambda j: (0, j))
    if kind == "runit":
        (p,) = args
        return FinFun.of(p, product(p, GRADE_UNIT), lambda j: (j, 0))
    if kind == "assoc":
        return assoc_iso(*args).inverse()
    if kind == "sym":
        p, q = args
        return sym_iso(q, p)
    raise ValueError(f"unknown structural grade iso {kind!r}")


def grade_by_param(
    a_inst: ArrowInstance,
    grades: list[FinSet] | None = None,
    member_pool: Callable[[Any, Any], list] | None = None,
) -> GradedArrow:
    """Tables grade -> A(X, Y), graded by finite sets under product.

    ``member_pool`` bounds which morphisms families draw from during
    enumeration (law checking needs a finite, small pool); operations are
    defined for arbitrary members regardless.
    """
    grades = grades if grades is not None else default_grades()
    pool = member_pool or a_inst.hom_cached

    def hom(p, x, y):
        ms = pool(x, y)
        return [
            ParamFamily(x, y, p, members)
            for members in itertools.product(ms, repeat=len(p))
        ]

    def unit(base_mor):
        a = a_inst.pure(base_mor)
        return ParamFamily(a.src, a.dst, GRADE_UNIT, (a,))

    def gcomp(e1, e2):
        if e1.dst != e2.src:
            raise CompositionError("graded composition: endpoint mismatch")
        p, q = e1.grade, e2.grade
        pq = product(p, q)
        return ParamFamily(
            e1.src,
            e2.dst,
            pq,
            tuple(a_inst.comp(e1.member(j), e2.member(k)) for j, k in pq),
        )

    def st(e, z):
        zt = a_inst.base.tensor
        return ParamFamily(
            zt(e.src, z),
            zt(e.dst, z),
            e.grade,
            tuple(a_inst.st(m, z) for m in e.members),
        )

    def regrade(phi: FinFun, e: ParamFamily):
        # contravariant relabelling: an index map q -> p pulls a p-family
        # back to a q-family
        if phi.cod != e.grade:
            raise CompositionError("regrade: index map does not target the grade")
        return ParamFamily(
            e.src, e.dst, phi.dom, tuple(e.member(phi(j)) for j in phi.dom)
        )

    def equal(e1, e2):
        if (e1.src, e1.dst, e1.grade) != (e2.src, e2.dst, e2.grade):
            return False
        return all(map(a_inst.equal, e1.members, e2.members))

    key = None
    if a_inst.key is not None:
        key = lambda e: (  # noqa: E731
            e.grade.elements,
            tuple(a_inst.key(m) for m in e.members),
        )

    return GradedArrow(
        name=f"param({a_inst.name})",
        base=a_inst.base,
        objects=list(a_inst.objects),
        grades=list(grades),
        grade_isos=all_bijections,
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=equal,
        key=key,
        commutative=a_inst.commutative,
        grade_structural=param_structural,
    )


def hide(graded: GradedArrow) -> ArrowInstance:
    """Sum out the grading: morphisms are graded elements up to grade iso.

    The result is keyless, as a graded key need not be invariant under
    regrading, and equality searches the grade isomorphisms.
    """
    return _hide(graded, DEFAULT_INDEX_BOUND, None, f"hide({graded.name})")


def _hide(graded: GradedArrow, bound: int, key, name: str) -> ArrowInstance:
    # a given key is invariant under regrading and decides equality

    def hom(x, y):
        return [e for p in graded.grades for e in graded.hom(p, x, y)]

    def comp(e1, e2):
        out = graded.gcomp(e1, e2)
        n = len(out.grade)
        if n > bound:
            raise SizeError(f"composite index of size {n} exceeds the bound {bound}")
        return out

    def equal(e1, e2):
        p, q = e1.grade, e2.grade
        if (e1.src, e1.dst) != (e2.src, e2.dst):
            return False
        if len(p) > bound or len(q) > bound:
            raise SizeError("index sets exceed the fam-equality bound")
        if len(p) != len(q):
            return False
        if key is not None:
            return key(e1) == key(e2)
        return any(
            graded.equal(graded.regrade(phi, e1), e2)
            for phi in graded.grade_isos(q, p)
        )

    return ArrowInstance(
        name=name,
        base=graded.base,
        objects=list(graded.objects),
        hom=hom,
        pure=lambda m: graded.unit(m),
        comp=comp,
        st=graded.st,
        equal=equal,
        key=key,
        commutative=graded.commutative,
    )


def fam(
    a_inst: ArrowInstance,
    grades: list[FinSet] | None = None,
    member_pool: Callable[[Any, Any], list] | None = None,
    bound: int = DEFAULT_INDEX_BOUND,
) -> ArrowInstance:
    """Strategy families over an arrow: hide applied to the parameterisation."""
    key = None
    if a_inst.key is not None:
        # regrading only permutes members, so their sorted keys are a key
        key = lambda e: tuple(sorted(map(a_inst.key, e.members)))  # noqa: E731
    graded = grade_by_param(a_inst, grades, member_pool)
    return _hide(graded, bound, key, f"fam({a_inst.name})")


# -- the parameterisation operator ------------------------------------------

@record(frozen=True)
class ParaMor:
    """A parameter object plus a morphism consuming it on the left."""

    src: Any  # the declared source X (the inner morphism runs from J (x) X)
    dst: Any
    param: Any  # a base object J
    inner: Any  # A(J (x) X, Y)


def para(
    a_inst: ArrowInstance,
    param_objs: list,
    member_pool: Callable[[Any, Any], list] | None = None,
) -> ArrowInstance:
    """Morphisms with a hidden parameter object tensored onto the source.

    Two morphisms are equal when a parameter bijection carries one's inner
    morphism to the other's.  Where both parameters have a one-point
    backward carrier, a morphism is the disjoint union of its blocks (its
    inner morphism restricted to each parameter index), a bijection only
    permutes them, and equality compares the sorted block keys.

    The arrow has a key when the inner arrow has one and the unit and
    every registered parameter object have a one-point backward carrier.
    Tensors keep that property, so every enumerated, lifted, composed or
    strengthened member has it too, and its key is its sorted tuple of
    block keys.  This key raises ``DomainError`` on a hand-built member
    whose parameter has a larger backward carrier.  Otherwise the arrow is
    keyless.
    """
    base = a_inst.base
    pool = member_pool or a_inst.hom_cached

    def hom(x, y):
        return [
            ParaMor(x, y, j, inner)
            for j in param_objs
            for inner in pool(base.tensor(j, x), y)
        ]

    def pure(m):
        lifted = a_inst.comp(
            a_inst.pure(base.lunit(m.src)), a_inst.pure(m)
        )
        return ParaMor(m.src, m.dst, base.unit, lifted)

    def comp(p1, p2):
        if p1.dst != p2.src:
            raise CompositionError("para composition: endpoint mismatch")
        j, k, x = p1.param, p2.param, p1.src
        # K (x) (J (x) X) --st'_K(inner1)--> K (x) Y --inner2--> Z
        body = a_inst.comp(left_strength(a_inst, p1.inner, k), p2.inner)
        jk = base.tensor(j, k)
        reshape = base.compose(
            base.tensor_mor(base.sym(j, k), base.id(x)),
            base.assoc(k, j, x),
        )  # (J (x) K) (x) X -> K (x) (J (x) X)
        return ParaMor(
            x, p2.dst, jk, a_inst.comp(a_inst.pure(reshape), body)
        )

    def st(p, z):
        xz = base.tensor(p.src, z)
        reshape = base.inv(base.assoc(p.param, p.src, z))
        # J (x) (X (x) Z) -> (J (x) X) (x) Z
        inner = a_inst.comp(a_inst.pure(reshape), a_inst.st(p.inner, z))
        return ParaMor(xz, base.tensor(p.dst, z), p.param, inner)

    insertions: dict = {}

    def _insertions(j, x):
        # pure(X -> J (x) X) at each index of J, built once per (J, X)
        k = (j, x)
        if k not in insertions:
            jx = base.tensor(j, x)
            insertions[k] = [
                a_inst.pure(BaseMap(
                    x,
                    jx,
                    FinFun.of(x.fwd, jx.fwd, lambda v, jv=jv: (jv, v)),
                    FinFun.of(jx.bwd, x.bwd, lambda t: t[1]),
                ))
                for jv in j.fwd
            ]
        return insertions[k]

    def _block_keys(p):
        # One key per parameter index: restrict the inner morphism to that
        # index by precomposing with the insertion map.  Sound only when the
        # parameter has no contravariant content, so a morphism is exactly
        # the disjoint union of its index blocks and a parameter bijection
        # just permutes them.
        out = [
            a_inst.key(a_inst.comp(ins, p.inner))
            for ins in _insertions(p.param, p.src)
        ]
        return sorted(out, key=repr)

    def _blockable(j):
        return isinstance(j, PairObj) and len(j.bwd) == 1

    key = None
    if a_inst.key is not None and all(map(_blockable, [base.unit, *param_objs])):
        def key(p):
            if not _blockable(p.param):
                raise DomainError(
                    f"para member with parameter {p.param} has no block key"
                )
            return tuple(_block_keys(p))

    def equal(p1, p2):
        if (p1.src, p1.dst) != (p2.src, p2.dst):
            return False
        if a_inst.key is not None and _blockable(p1.param) and _blockable(p2.param):
            return _block_keys(p1) == _block_keys(p2)
        # reindex p1's inner along phi^-1 to p2's parameter
        return any(
            a_inst.equal(
                a_inst.comp(
                    a_inst.pure(base.tensor_mor(base.inv(phi), base.id(p1.src))),
                    p1.inner,
                ),
                p2.inner,
            )
            for phi in base.isos(p1.param, p2.param)
        )

    return ArrowInstance(
        name=f"para({a_inst.name})",
        base=base,
        objects=list(a_inst.objects),
        hom=hom,
        pure=pure,
        comp=comp,
        st=st,
        equal=equal,
        key=key,
        commutative=a_inst.commutative,
    )


# -- structural combinators on graded arrows ---------------------------------

def graded_dimap(graded: GradedArrow, f, e, g):
    """pure(f) ; e ; pure(g), with the grade renormalized back to e's.

    The composite's grade is (1 (x) p) (x) 1, for p the grade of ``e``;
    the runit and lunit grade isos peel the units off, the first at the
    inner composite's grade 1 (x) p.
    """
    inner = graded.gcomp(graded.unit(f), e)
    out = graded.gcomp(inner, graded.unit(g))
    out = graded.regrade(graded.grade_structural("runit", (inner.grade,)), out)
    return graded.regrade(graded.grade_structural("lunit", (e.grade,)), out)


def graded_left_strength(graded: GradedArrow, e, z):
    base = graded.base
    # the spectator sits on the covariant side only; conjugate by symmetry
    zx = base.sym(z, e.src)
    yz = base.sym(e.dst, z)
    return graded_dimap(graded, zx, graded.st(e, z), yz)


def graded_tensor(graded: GradedArrow, a, b):
    """Side-by-side composition; the grades tensor."""
    if not graded.commutative:
        raise ValueError(
            f"graded arrow {graded.name!r} is not commutative; tensor refused"
        )
    first = graded.st(a, b.src)
    second = graded_left_strength(graded, b, a.dst)
    return graded.gcomp(first, second)


# -- graded bimodules and the graded product ---------------------------------

@record
class GradedBimodule:
    """A grade-indexed hom-family with graded actions of a graded arrow.

    Each member carries its own grade and endpoints as ``.grade``,
    ``.src`` and ``.dst``.
    """

    name: str
    arrow: GradedArrow
    hom: Callable[[Any, Any, Any], list]
    glact: Callable[[Any, Any], Any]  # A_p(X,Y) x B_q(Y,Z) -> B_pq(X,Z)
    gract: Callable[[Any, Any], Any]  # B_p(X,Y) x A_q(Y,Z) -> B_pq(X,Z)
    regrade: Callable[[Any, Any], Any]
    equal: Callable[[Any, Any], bool]
    # members with the same endpoints and key are equal
    key: Callable[[Any], Any] | None = None
    st: Callable[[Any, Any], Any] | None = None
    # per-grade pointwise monoid
    e: Callable[[Any, Any, Any], Any] | None = None  # (grade, X, Y) -> elem
    m: Callable[[Any, Any], Any] | None = None
    commutative: bool = False


@record(frozen=True)
class GradedPairMor:
    """A graded-product morphism: arrow part and bimodule part at one grade."""

    arrow_part: Any
    bim_part: Any

    @property
    def src(self):
        return self.arrow_part.src

    @property
    def dst(self):
        return self.arrow_part.dst

    @property
    def grade(self):
        return self.arrow_part.grade


def graded_product(graded: GradedArrow, gbim: GradedBimodule) -> GradedArrow:
    """Pair a graded arrow with a graded monoid bimodule, gradewise.

    The product is keyed by the pair of its parts' keys when both parts
    have one, and keyless otherwise.
    """
    if gbim.e is None or gbim.m is None:
        raise CompositionError(
            f"graded bimodule {gbim.name!r} has no per-grade monoid"
        )
    if gbim.st is None:
        raise CompositionError(f"graded bimodule {gbim.name!r} has no strength")

    def hom(p, x, y):
        return [
            GradedPairMor(a, b)
            for a in graded.hom(p, x, y)
            for b in gbim.hom(p, x, y)
        ]

    def unit(base_mor):
        a = graded.unit(base_mor)
        return GradedPairMor(a, gbim.e(a.grade, a.src, a.dst))

    def gcomp(m1, m2):
        return GradedPairMor(
            graded.gcomp(m1.arrow_part, m2.arrow_part),
            gbim.m(
                gbim.glact(m1.arrow_part, m2.bim_part),
                gbim.gract(m1.bim_part, m2.arrow_part),
            ),
        )

    def st(m, z):
        return GradedPairMor(graded.st(m.arrow_part, z), gbim.st(m.bim_part, z))

    def regrade(phi, m):
        return GradedPairMor(
            graded.regrade(phi, m.arrow_part), gbim.regrade(phi, m.bim_part)
        )

    def equal(m1, m2):
        return (
            graded.equal(m1.arrow_part, m2.arrow_part)
            and gbim.equal(m1.bim_part, m2.bim_part)
        )

    key = None
    if graded.key is not None and gbim.key is not None:
        key = lambda m: (graded.key(m.arrow_part), gbim.key(m.bim_part))  # noqa: E731

    return GradedArrow(
        name=f"{graded.name}*{gbim.name}",
        base=graded.base,
        objects=list(graded.objects),
        grades=list(graded.grades),
        grade_isos=graded.grade_isos,
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=equal,
        key=key,
        commutative=graded.commutative and gbim.commutative,
        grade_structural=graded.grade_structural,
    )
