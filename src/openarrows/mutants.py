"""Planted mutants: one deliberately broken instance per law id.

Each mutant violates exactly one law among all the checks that apply to its
family, which documents that every law the checkers in :mod:`openarrows.laws`
chase can fail on its own.  Tags ride along on otherwise-honest carriers, and
the mutation lives in how tags combine.  ``laws.run_mutants`` is its one
importer in the package, so no other command compiles the registry.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable

from .arrow import ArrowInstance, hom_arrow
from .base import SET, bit_set
from .bimodule import Bimodule
from .finset import (
    UNIT,
    FinFun,
    FinSet,
    all_bijections,
    all_funs,
    fun_compose,
    product,
    tensor_fun,
)
from .grading import (
    GRADE_UNIT,
    GRADES,
    GradedArrow,
    GradedBimodule,
    param_structural,
)
from .laws import (
    LAWS,
    LawReport,
    _arrow_laws,
    check_bimodule,
    check_context,
    check_eqmonoid,
    check_graded,
    check_graded_bimodule,
)
from .record import record, replace


@record(frozen=True)
class TagMor:
    """A set function carrying an extra tag; mutations act on the tag."""

    src: FinSet
    dst: FinSet
    fun: FinFun
    tag: Any


def _tag_arrow(
    name: str,
    objects: list,
    tags: tuple,
    tag_comp: Callable,
    pure_tag,
    st_tag: Callable | None = None,
    st_fun: Callable | None = None,
    commutative: bool = True,
) -> ArrowInstance:
    def hom(x, y):
        return [TagMor(x, y, f, t) for f in all_funs(x, y) for t in tags]

    def pure(f):
        t = pure_tag(f) if callable(pure_tag) else pure_tag
        return TagMor(f.dom, f.cod, f, t)

    def comp(m1, m2):
        return TagMor(
            m1.src, m2.dst, fun_compose(m1.fun, m2.fun), tag_comp(m1.tag, m2.tag)
        )

    def st(m, z):
        fun = tensor_fun(m.fun, FinFun.identity(z)) if st_fun is None else st_fun(m, z)
        tag = m.tag if st_tag is None else st_tag(m.tag, z)
        return TagMor(product(m.src, z), product(m.dst, z), fun, tag)

    return ArrowInstance(
        name=name,
        base=SET,
        objects=list(objects),
        hom=hom,
        pure=pure,
        comp=comp,
        st=st,
        equal=lambda m1, m2: m1 == m2,
        key=lambda m: (m.fun.table, m.tag),
        commutative=commutative,
    )


def _is_id_fun(f: FinFun) -> bool:
    return f.dom == f.cod and f.table == f.dom.elements


def _nonbij(f: FinFun) -> bool:
    return len(set(f.table)) < len(f.cod)


def _parity(f: FinFun) -> int:
    pos = [f.cod.index(v) for v in f.table]
    return sum(p > q for i, p in enumerate(pos) for q in pos[i + 1:]) % 2


_B2 = bit_set(2)
_C3 = FinSet((0, 1, 2))

# a commutative, non-associative magma with unit 0 on {0, 1, 2}
_MAGMA = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
    (1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 2,
}

# the four self-maps of a two-point set, under diagrammatic composition
_T2 = {"id": (0, 1), "c0": (0, 0), "c1": (1, 1), "sw": (1, 0)}


def _t2_comp(t1: str, t2: str) -> str:
    f1, f2 = _T2[t1], _T2[t2]
    table = (f2[f1[0]], f2[f1[1]])
    return next(k for k, v in _T2.items() if v == table)


def _run_tag_arrow(a: ArrowInstance) -> list[LawReport]:
    return _arrow_laws(a, a.name)


def _mutant_arrow_unit():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [UNIT, _B2], (0, 1), min, 0, st_tag=lambda t, z: 0
    ))


def _mutant_arrow_assoc():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [UNIT, _B2], (0, 1, 2), lambda t1, t2: _MAGMA[(t1, t2)], 0
    ))


def _mutant_arrow_pure():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [_B2], (0, 1), lambda t1, t2: t1 ^ t2,
        lambda f: 0 if _is_id_fun(f) else 1,
    ))


def _mutant_strength_unit():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [UNIT, _B2], ((0, 0), (0, 1), (1, 0), (1, 1)),
        lambda t1, t2: (t1[0] ^ t2[0], t1[1] ^ t2[1]), (0, 0),
        st_tag=lambda t, z: (t[0], t[0]),
    ))


def _mutant_strength_assoc():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [_B2], ((0, 0), (0, 1), (1, 0), (1, 1)),
        lambda t1, t2: (t1[0] ^ t2[0], t1[1] ^ t2[1]), (0, 0),
        st_tag=lambda t, z: (t[1], t[0]) if len(z) in (2, 4) else t,
    ))


def _mutant_strength_pure():
    def st_fun(m, z):
        if _nonbij(m.fun):
            tau = FinFun.of(z, z, lambda _v: z.elements[0])
            return tensor_fun(m.fun, tau)
        return tensor_fun(m.fun, FinFun.identity(z))

    return _run_tag_arrow(_tag_arrow(
        "mutant", [_B2], (0,), lambda t1, t2: 0, 0,
        st_fun=st_fun, commutative=False,
    ))


def _mutant_strength_comp():
    squash = (0, 1, 1)
    return _run_tag_arrow(_tag_arrow(
        "mutant", [_B2], (0, 1, 2), lambda t1, t2: (t1 + t2) % 3, 0,
        st_tag=lambda t, z: squash[t] if len(z) % 2 == 0 else t,
        commutative=False,
    ))


def _mutant_arrow_commute():
    return _run_tag_arrow(_tag_arrow(
        "mutant", [_B2], tuple(_T2), _t2_comp, "id"
    ))


@record(frozen=True)
class TagElem:
    """A bimodule element that is nothing but its endpoints and a tag."""

    src: FinSet
    dst: FinSet
    tag: Any


def _tag_bimodule(
    objects: list,
    tags: tuple,
    psi: Callable,  # (acting fun, tag) -> tag, for the left action
    chi: Callable,  # (acting fun, tag) -> tag, for the right action
    sigma: Callable | None = None,  # (tag, spectator) -> tag, for strength
    e: Callable | None = None,  # pointwise monoid, as from _tag_monoid
    m: Callable | None = None,
    commutative: bool = False,
    bijections_only: bool = False,
) -> Bimodule:
    arrow = hom_arrow(SET, objects, name="mutant-base")
    if bijections_only:
        arrow.hom = lambda x, y: [f for f in all_funs(x, y) if not _nonbij(f)]

    st = None
    if sigma is not None:
        def st(e, z):  # noqa: F811
            return TagElem(product(e.src, z), product(e.dst, z), sigma(e.tag, z))

    return Bimodule(
        name="mutant",
        arrow=arrow,
        hom=lambda x, y: [TagElem(x, y, t) for t in tags],
        lact=lambda a, e: TagElem(a.dom, e.dst, psi(a, e.tag)),
        ract=lambda e, a: TagElem(e.src, a.cod, chi(a, e.tag)),
        equal=lambda e1, e2: e1 == e2,
        key=operator.attrgetter("tag"),
        st=st,
        e=e,
        m=m,
        commutative=commutative,
    )


def _honest_psi(a, t):
    return t


def _run_bimodule(b: Bimodule) -> list[LawReport]:
    return check_bimodule(b, "mutant") + check_eqmonoid(b, "mutant")


def _sigma_id(t, z):
    return t


def _mutant_bim_lact_unit():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), lambda a, t: 0, _honest_psi, _sigma_id, commutative=True
    ))


def _mutant_bim_lact_comp():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), lambda a, t: t ^ (1 if _nonbij(a) else 0), _honest_psi,
        _sigma_id,
    ))


def _mutant_bim_ract_unit():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, lambda a, t: 0, _sigma_id, commutative=True
    ))


def _mutant_bim_ract_comp():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, lambda a, t: t ^ (1 if _nonbij(a) else 0),
        _sigma_id,
    ))


def _mutant_bim_mixed():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1),
        lambda a, t: 0 if _nonbij(a) else t,
        lambda a, t: 1 if _nonbij(a) else t,
        _sigma_id,
    ))


def _mutant_bim_lact_st():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), lambda a, t: 0 if _nonbij(a) else t, _honest_psi,
        lambda t, z: 1,
    ))


def _mutant_bim_ract_st():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, lambda a, t: 0 if _nonbij(a) else t,
        lambda t, z: 1,
    ))


def _mutant_bim_commute():
    return _run_bimodule(_tag_bimodule(
        [_C3], (0, 1), lambda a, t: t ^ _parity(a), _honest_psi, _sigma_id,
        commutative=True, bijections_only=True,
    ))


def _tag_monoid(unit_tag, mop) -> dict:
    return dict(
        e=lambda x, y: TagElem(x, y, unit_tag),
        m=lambda e1, e2: TagElem(e1.src, e1.dst, mop(e1.tag, e2.tag)),
    )


def _mutant_eq_m_unit():
    # a constant merge is associative and commutative, but 0 is no unit of it
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, _honest_psi, _sigma_id,
        **_tag_monoid(0, lambda t1, t2: 1),
        commutative=True,
    ))


def _mutant_eq_m_assoc():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2), _honest_psi, _honest_psi, _sigma_id,
        **_tag_monoid(0, lambda t1, t2: _MAGMA[(t1, t2)]),
        commutative=True,
    ))


def _mutant_eq_m_commute():
    return _run_bimodule(_tag_bimodule(
        [_B2], ("u", "a", "b"), _honest_psi, _honest_psi, _sigma_id,
        **_tag_monoid(
            "u",
            lambda t1, t2: t2 if t1 == "u" else (t1 if t2 == "u" else t1),
        ),
        commutative=True,
    ))


def _mutant_eq_lact_e():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), lambda a, t: t if not _nonbij(a) else 0, _honest_psi,
        _sigma_id, **_tag_monoid(1, min),
    ))


def _mutant_eq_lact_m():
    squash = (0, 1, 1)
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2),
        lambda a, t: squash[t] if _nonbij(a) else t, _honest_psi,
        _sigma_id, **_tag_monoid(0, lambda t1, t2: (t1 + t2) % 3),
    ))


def _mutant_eq_ract_e():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, lambda a, t: t if not _nonbij(a) else 0,
        _sigma_id, **_tag_monoid(1, min),
    ))


def _mutant_eq_ract_m():
    squash = (0, 1, 1)
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2),
        _honest_psi, lambda a, t: squash[t] if _nonbij(a) else t,
        _sigma_id, **_tag_monoid(0, lambda t1, t2: (t1 + t2) % 3),
    ))


def _tag_context(bim: Bimodule, mu: Callable) -> Bimodule:
    return replace(bim, cst=lambda e, x, y, z: TagElem(x, y, mu(e.tag, z)))


def _run_context(c: Bimodule) -> list[LawReport]:
    return check_bimodule(c, "mutant") + check_context(c, "mutant")


def _mutant_cst_unit():
    bim = _tag_bimodule(
        [_B2], ((0, 0), (0, 1), (1, 0), (1, 1)), _honest_psi, _honest_psi,
        _sigma_id, commutative=True,
    )
    return _run_context(_tag_context(bim, lambda t, z: (t[0], t[0])))


def _mutant_cst_assoc():
    bim = _tag_bimodule(
        [_B2], ((0, 0), (0, 1), (1, 0), (1, 1)), _honest_psi, _honest_psi,
        _sigma_id, commutative=True,
    )
    return _run_context(_tag_context(
        bim, lambda t, z: (t[1], t[0]) if len(z) in (2, 4) else t
    ))


def _mutant_cst_lact():
    bim = _tag_bimodule(
        [_C3], (0, 1), lambda a, t: t ^ _parity(a), _honest_psi, _sigma_id,
        bijections_only=True,
    )
    return _run_context(_tag_context(
        bim, lambda t, z: 0 if len(z) > 1 else t
    ))


def _mutant_cst_ract():
    bim = _tag_bimodule(
        [_C3], (0, 1), _honest_psi, lambda a, t: t ^ _parity(a), _sigma_id,
        bijections_only=True,
    )
    return _run_context(_tag_context(
        bim, lambda t, z: 0 if len(z) > 1 else t
    ))


def _mutant_cst_mixed():
    # the tag flips by the parity of log2|Z|, which differs between the
    # spectators UNIT and B2
    bim = _tag_bimodule(
        [UNIT, _B2], (0, 1), _honest_psi, _honest_psi, _sigma_id,
        commutative=True,
    )
    return _run_context(_tag_context(
        bim, lambda t, z: t ^ ((len(z).bit_length() - 1) % 2)
    ))


# graded mutants: honest set functions in two-grade families, with a scalar
# or per-index value whose bookkeeping carries the mutation

@record(frozen=True)
class GradeTag:
    src: FinSet
    dst: FinSet
    fun: FinFun
    grade: FinSet
    n: Any


def _tag_graded(
    tags: tuple,
    unit_n,
    n_comp: Callable,
    st_n: Callable | None = None,
    regrade_n: Callable | None = None,
    per_index: bool = False,
    commutative: bool = True,
) -> GradedArrow:
    def hom(p, x, y):
        funs = all_funs(x, y)[:2]
        if per_index:
            ns = list(itertools.product(tags, repeat=len(p)))
        else:
            ns = list(tags)
        return [GradeTag(x, y, f, p, n) for f in funs for n in ns]

    def unit(f):
        return GradeTag(f.dom, f.cod, f, GRADE_UNIT, unit_n)

    def gcomp(e1, e2):
        pq = product(e1.grade, e2.grade)
        if per_index:
            n = tuple(
                n_comp(e1.n[e1.grade.index(j)], e2.n[e2.grade.index(k)])
                for j, k in pq.elements
            )
        else:
            n = n_comp(e1.n, e2.n)
        return GradeTag(e1.src, e2.dst, fun_compose(e1.fun, e2.fun), pq, n)

    def st(e, z):
        n = e.n if st_n is None else st_n(e.n, z)
        return GradeTag(
            product(e.src, z),
            product(e.dst, z),
            tensor_fun(e.fun, FinFun.identity(z)),
            e.grade,
            n,
        )

    def regrade(phi, e):
        if per_index:
            n = tuple(e.n[e.grade.index(phi(j))] for j in phi.dom)
        else:
            n = e.n if regrade_n is None else regrade_n(phi, e.n)
        return GradeTag(e.src, e.dst, e.fun, phi.dom, n)

    return GradedArrow(
        name="mutant",
        base=SET,
        objects=[_B2],
        grades=GRADES,
        grade_isos=all_bijections,
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=lambda e1, e2: e1 == e2,
        key=lambda e: (e.grade.elements, e.fun.table, e.n),
        commutative=commutative,
        grade_structural=param_structural,
    )


def _mutant_graded_unit():
    return check_graded(
        _tag_graded((0, 1), 1, lambda n1, n2: n1 ^ n2), "mutant"
    )


def _mutant_graded_assoc():
    return check_graded(
        _tag_graded((0, 1, 2), 0, lambda n1, n2: _MAGMA[(n1, n2)]), "mutant"
    )


def _mutant_graded_regrade():
    def regrade_n(phi, n):
        return n ^ (1 if _is_id_fun(phi) and len(phi.dom) >= 2 else 0)

    return check_graded(
        _tag_graded((0, 1), 0, lambda n1, n2: n1 ^ n2, regrade_n=regrade_n),
        "mutant",
    )


def _mutant_graded_st_natural():
    def st_n(n, z):
        return (n[0] ^ 1,) + n[1:]

    return check_graded(
        _tag_graded(
            (0, 1), (0,), lambda n1, n2: n1 ^ n2, st_n=st_n, per_index=True
        ),
        "mutant",
    )


def _mutant_graded_commute():
    def leftish(n1, n2):
        if n1 == "u":
            return n2
        if n2 == "u":
            return n1
        return n1

    return check_graded(
        _tag_graded(("u", "x", "y"), "u", leftish), "mutant"
    )


@record(frozen=True)
class GBTag:
    src: FinSet
    dst: FinSet
    grade: FinSet
    tag: Any


def _tag_gbim(arrow: GradedArrow, psi: Callable, chi: Callable) -> GradedBimodule:
    return GradedBimodule(
        name="mutant",
        arrow=arrow,
        hom=lambda q, x, y: [GBTag(x, y, q, t) for t in (0, 1)],
        glact=lambda a, b: GBTag(
            a.src, b.dst, product(a.grade, b.grade), psi(a, b.tag)
        ),
        gract=lambda b, a: GBTag(
            b.src, a.dst, product(b.grade, a.grade), chi(a, b.tag)
        ),
        regrade=lambda phi, b: GBTag(b.src, b.dst, phi.dom, b.tag),
        equal=lambda b1, b2: b1 == b2,
        key=lambda b: (b.grade.elements, b.tag),
    )


def _run_gbim(gb: GradedBimodule) -> list[LawReport]:
    return check_graded_bimodule(gb, "mutant")


def _gbim_arrow(n_comp):
    return _tag_graded((0, 1), 0, n_comp)


def _mutant_gbim_lact_unit():
    return _run_gbim(_tag_gbim(
        _gbim_arrow(lambda n1, n2: n1 ^ n2),
        lambda a, t: 0, lambda a, t: t,
    ))


def _mutant_gbim_lact_comp():
    return _run_gbim(_tag_gbim(
        _gbim_arrow(lambda n1, n2: n1 ^ n2),
        lambda a, t: t if a.n == 0 else 0, lambda a, t: t,
    ))


def _mutant_gbim_ract_unit():
    return _run_gbim(_tag_gbim(
        _gbim_arrow(lambda n1, n2: n1 ^ n2),
        lambda a, t: t, lambda a, t: 1,
    ))


def _mutant_gbim_ract_comp():
    return _run_gbim(_tag_gbim(
        _gbim_arrow(lambda n1, n2: n1 ^ n2),
        lambda a, t: t, lambda a, t: t if a.n == 0 else 0,
    ))


def _mutant_gbim_mixed():
    return _run_gbim(_tag_gbim(
        _gbim_arrow(lambda n1, n2: n1 | n2),
        lambda a, t: 0 if a.n else t, lambda a, t: 1 if a.n else t,
    ))


#: target law id -> thunk producing the mutant's full report list
MUTANTS: dict[str, Callable[[], list[LawReport]]] = {
    "arrow.unit": _mutant_arrow_unit,
    "arrow.assoc": _mutant_arrow_assoc,
    "arrow.pure-functor": _mutant_arrow_pure,
    "strength.unit": _mutant_strength_unit,
    "strength.assoc": _mutant_strength_assoc,
    "strength.pure": _mutant_strength_pure,
    "strength.comp": _mutant_strength_comp,
    "arrow.commute": _mutant_arrow_commute,
    "bimodule.lact-unit": _mutant_bim_lact_unit,
    "bimodule.lact-comp": _mutant_bim_lact_comp,
    "bimodule.ract-unit": _mutant_bim_ract_unit,
    "bimodule.ract-comp": _mutant_bim_ract_comp,
    "bimodule.mixed": _mutant_bim_mixed,
    "bimodule.lact-st": _mutant_bim_lact_st,
    "bimodule.ract-st": _mutant_bim_ract_st,
    "bimodule.commute": _mutant_bim_commute,
    "eqmonoid.m-unit": _mutant_eq_m_unit,
    "eqmonoid.m-assoc": _mutant_eq_m_assoc,
    "eqmonoid.m-commute": _mutant_eq_m_commute,
    "eqmonoid.lact-e": _mutant_eq_lact_e,
    "eqmonoid.lact-m": _mutant_eq_lact_m,
    "eqmonoid.ract-e": _mutant_eq_ract_e,
    "eqmonoid.ract-m": _mutant_eq_ract_m,
    "costrength.unit": _mutant_cst_unit,
    "costrength.assoc": _mutant_cst_assoc,
    "costrength.lact": _mutant_cst_lact,
    "costrength.ract": _mutant_cst_ract,
    "costrength.mixed": _mutant_cst_mixed,
    "graded.unit": _mutant_graded_unit,
    "graded.assoc": _mutant_graded_assoc,
    "graded.regrade": _mutant_graded_regrade,
    "graded.st-natural": _mutant_graded_st_natural,
    "graded.commute": _mutant_graded_commute,
    "gbim.lact-unit": _mutant_gbim_lact_unit,
    "gbim.lact-comp": _mutant_gbim_lact_comp,
    "gbim.ract-unit": _mutant_gbim_ract_unit,
    "gbim.ract-comp": _mutant_gbim_ract_comp,
    "gbim.mixed": _mutant_gbim_mixed,
}


if set(MUTANTS) != set(LAWS):
    raise RuntimeError(
        "law manifest out of sync with the mutant registry: "
        f"{sorted(set(MUTANTS) ^ set(LAWS))}"
    )
