"""Coherence law checking: exhaustive diagram chases over registered universes.

Every equation the library's structures promise is written once here, as a
quantified trial generator; running a suite chases each diagram over a
registered finite universe and emits one report per (law, instance), with a
concrete counterexample on failure.  A registry of deliberately broken
("mutant") instances documents that each law is independently falsifiable:
every mutant fails exactly its target law among the checks that apply to it.

Universes are sized so the dominant law (usually associativity, which is
cubic in hom sizes) stays under a case budget; oversized requests are
refused up front with the closed-form case estimate rather than attempted.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .arrow import (
    ArrowInstance,
    arrow_tensor,
    arrow_tensor_flipped,
    dimap,
    hom_arrow,
)
from .base import PAIR, SET, PairObj, PAIR_I, bit_set, pair_atoms
from .bimodule import (
    Bimodule,
    ContextStruct,
    CtxPair,
    MonoidOnProfunctor,
    ctx_of_arrow,
    eq_from_context,
    with_eq,
)
from .finset import (
    BOOL_AND,
    UNIT,
    WITNESSES,
    Dist,
    FinFun,
    FinSet,
    all_funs,
    dist_pure,
    fun_compose,
    product,
    tensor_fun,
)
from .games import (
    BestRespElement,
    ProbCtx,
    ProbElement,
    best_resp_bimodule,
    prob_bimodule,
)
from .grading import (
    GRADE_UNIT,
    GradedArrow,
    GradedBimodule,
    SizeError,
    fam,
    grade_by_param,
    graded_left_strength,
    para,
)
from .lens import LENS_PROJECTIONS, Lens, all_lenses, cont_lens, lens_arrow, point_lens
from .optic import TwGrade, TwIso, lens_optic_context, optic_arrow, twisted_grading

#: refuse any suite whose dominant law would chase more cases than this
CASE_BUDGET = 1_000_000


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class LawReport:
    """Outcome of chasing one law over one registered instance."""

    law: str
    instance: str
    status: str  # "pass" | "fail" | "unknown"
    checked: int
    counterexample: tuple | None = None  # (inputs, lhs, rhs), stringified
    equality: str = "structural"


#: the full manifest: every law id the harness can emit, with its statement
LAWS: dict[str, str] = {
    "arrow.unit": "identities are neutral for composition",
    "arrow.assoc": "composition is associative",
    "arrow.pure-functor": "lifting base morphisms preserves composition",
    "strength.unit": "strength at the unit object is the unitor conjugate",
    "strength.assoc": "iterated strength is strength at the tensor",
    "strength.pure": "strength of a lifted morphism is the lifted tensor",
    "strength.comp": "strength distributes over composition",
    "arrow.commute": "the two tensor interleavings agree",
    "bimodule.lact-unit": "the left action by an identity is trivial",
    "bimodule.lact-comp": "the left action folds over composition",
    "bimodule.ract-unit": "the right action by an identity is trivial",
    "bimodule.ract-comp": "the right action folds over composition",
    "bimodule.mixed": "left and right actions commute past each other",
    "bimodule.lact-st": "strength distributes over the left action",
    "bimodule.ract-st": "strength distributes over the right action",
    "bimodule.commute": "actions by strengthened morphisms interchange",
    "eqmonoid.m-unit": "the designated element is neutral for the merge",
    "eqmonoid.m-assoc": "the merge is associative",
    "eqmonoid.m-commute": "the merge is commutative",
    "eqmonoid.lact-e": "the left action preserves the designated element",
    "eqmonoid.lact-m": "the left action preserves the merge",
    "eqmonoid.ract-e": "the right action preserves the designated element",
    "eqmonoid.ract-m": "the right action preserves the merge",
    "costrength.unit": "absorbing a unit spectator is the unitor conjugate",
    "costrength.assoc": "iterated absorption is absorption at the tensor",
    "costrength.lact": "absorption commutes with strengthened left actions",
    "costrength.ract": "absorption commutes with strengthened right actions",
    "costrength.mixed": "left and right spectators absorb interchangeably",
    "graded.unit": "graded identities are neutral up to the unit regrade",
    "graded.assoc": "graded composition is associative up to regrading",
    "graded.regrade": "regrading is functorial in grade isomorphisms",
    "graded.st-natural": "strength is natural in regrading",
    "graded.commute": "graded interleavings agree up to the symmetry regrade",
    "gbim.lact-unit": "the graded left action by an identity is trivial",
    "gbim.lact-comp": "the graded left action folds over composition",
    "gbim.ract-unit": "the graded right action by an identity is trivial",
    "gbim.ract-comp": "the graded right action folds over composition",
    "gbim.mixed": "graded left and right actions commute past each other",
}


def _clip(x: Any, width: int = 200) -> str:
    s = repr(x)
    return s if len(s) <= width else s[: width - 3] + "..."


def _report(law: str, instance: str, trials: Iterator, equality: str) -> LawReport:
    checked = 0
    unknown = False
    for inputs, lhs, rhs, verdict in trials:
        checked += 1
        if verdict is False:
            return LawReport(
                law,
                instance,
                "fail",
                checked,
                (tuple(_clip(i) for i in inputs), _clip(lhs), _clip(rhs)),
                equality,
            )
        if verdict is None:
            unknown = True
    return LawReport(law, instance, "unknown" if unknown else "pass", checked, None, equality)


# -- interned operation tables ------------------------------------------------
#
# Laws that chase composites and actions over whole hom sets meet the same
# operand pairs again and again.  Their checkers number every member they
# meet, run each real operation once per pair of numbers, and decide a case
# by comparing the numbers of its two sides, calling ``equal`` only when
# they differ.  This needs "key-equal implies equal" of every keyed family.

class _Interned:
    """Numbers the members of one family, one representative per class.

    Members with the same endpoints and the same ``key`` share a number.
    Endpoints belong to the class because a key need not carry them (an
    ``EqFun``'s key is its values alone).  A family with no key is numbered
    by identity; ``reps`` holds each member, so no id is reused.
    """

    def __init__(self, key: Callable | None, src: Callable, dst: Callable):
        self.key, self.src, self.dst = key, src, dst
        self.reps: list = []
        self._numbers: dict = {}
        self._lists: dict = {}

    def __call__(self, m) -> int:
        k = id(m) if self.key is None else (self.src(m), self.dst(m), self.key(m))
        n = self._numbers.get(k)
        if n is None:
            n = self._numbers[k] = len(self.reps)
            self.reps.append(m)
        return n

    def ids(self, members: list) -> list[int]:
        """The numbers of a ``hom_cached`` list, memoised on (and holding) it."""
        hit = self._lists.get(id(members))
        if hit is None:
            hit = self._lists[id(members)] = (members, [self(m) for m in members])
        return hit[1]

    def case(self, inputs: tuple, lhs: int, rhs: int, equal: Callable) -> tuple:
        """A trial whose sides are numbered members of this family."""
        reps = self.reps
        return inputs, reps[lhs], reps[rhs], lhs == rhs or equal(reps[lhs], reps[rhs])


class _Op(dict):
    """(i, j) -> the number of ``fn(left.reps[i], right.reps[j])``, run once."""

    def __init__(self, fn: Callable, left: _Interned, right: _Interned, out: _Interned):
        self.fn, self.left, self.right, self.out = fn, left, right, out

    def __missing__(self, pair):
        i, j = pair
        n = self[pair] = self.out(self.fn(self.left.reps[i], self.right.reps[j]))
        return n


class _Composites(dict):
    """(x, y, z) -> rows of the numbers of ``a1 ; a2``, a1 in A(x, y), a2 in A(y, z).

    Rows are positional (one list per ``a1``), so a table costs a pointer
    per composite; a dict keyed on pairs costs several times that.
    """

    def __init__(self, a: ArrowInstance, num: _Interned):
        self.a, self.num = a, num

    def __missing__(self, xyz):
        x, y, z = xyz
        a, num = self.a, self.num
        hyz = a.hom_cached(y, z)
        rows = self[xyz] = [
            [num(a.comp(a1, a2)) for a2 in hyz] for a1 in a.hom_cached(x, y)
        ]
        return rows


# -- arrow laws ---------------------------------------------------------------

def check_arrow_laws(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """Identity, associativity and functoriality of lifting."""
    name = instance or a.name
    objs = a.objects

    def unit_trials():
        for x, y in itertools.product(objs, repeat=2):
            for m in a.hom_cached(x, y):
                lhs = a.comp(a.identity(x), m)
                yield ((m,), lhs, m, a.equal(lhs, m))
                rhs = a.comp(m, a.identity(y))
                yield ((m,), rhs, m, a.equal(rhs, m))

    def assoc_trials():
        if a.key is not None:
            yield from _assoc_trials_keyed(a, objs)
            return
        for y, z, w in itertools.product(objs, repeat=3):
            hbc, hcd = a.hom_cached(y, z), a.hom_cached(z, w)
            if not (hbc and hcd):
                continue
            right = [[a.comp(m2, m3) for m3 in hcd] for m2 in hbc]
            for x in objs:
                for m1 in a.hom_cached(x, y):
                    for j, m2 in enumerate(hbc):
                        left12 = a.comp(m1, m2)
                        for k, m3 in enumerate(hcd):
                            lhs = a.comp(left12, m3)
                            rhs = a.comp(m1, right[j][k])
                            yield ((m1, m2, m3), lhs, rhs, a.equal(lhs, rhs))

    def pure_trials():
        base = a.base
        for x, y, z in itertools.product(objs, repeat=3):
            for f in base.morphisms(x, y):
                for g in base.morphisms(y, z):
                    lhs = a.pure(base.compose(f, g))
                    rhs = a.comp(a.pure(f), a.pure(g))
                    yield ((f, g), lhs, rhs, a.equal(lhs, rhs))

    return [
        _report("arrow.unit", name, unit_trials(), equality),
        _report("arrow.assoc", name, assoc_trials(), equality),
        _report("arrow.pure-functor", name, pure_trials(), equality),
    ]


def _assoc_trials_keyed(a: ArrowInstance, objs: list):
    num = _Interned(a.key, a.src, a.dst)
    comp = _Op(a.comp, num, num, num)
    composites = _Composites(a, num)
    for y, z, w in itertools.product(objs, repeat=3):
        hbc, hcd = a.hom_cached(y, z), a.hom_cached(z, w)
        if not (hbc and hcd):
            continue
        right, ncd = composites[(y, z, w)], num.ids(hcd)
        for x in objs:
            hab = a.hom_cached(x, y)
            for m1, n1, row in zip(hab, num.ids(hab), composites[(x, y, z)]):
                for m2, n12, right_row in zip(hbc, row, right):
                    for m3, n3, n23 in zip(hcd, ncd, right_row):
                        yield num.case(
                            (m1, m2, m3), comp[(n12, n3)], comp[(n1, n23)], a.equal
                        )


def check_strength(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """The four coherence equations of the strength."""
    name = instance or a.name
    base, objs = a.base, a.objects

    def unit_trials():
        for x, y in itertools.product(objs, repeat=2):
            for m in a.hom_cached(x, y):
                lhs = a.st(m, base.unit)
                rhs = dimap(a, base.runit(x), m, base.inv(base.runit(y)))
                yield ((m,), lhs, rhs, a.equal(lhs, rhs))

    def assoc_trials():
        for x, y in itertools.product(objs, repeat=2):
            hom = a.hom_cached(x, y)
            for z, zp in itertools.product(objs, repeat=2):
                for m in hom:
                    lhs = a.st(a.st(m, z), zp)
                    rhs = dimap(
                        a,
                        base.assoc(x, z, zp),
                        a.st(m, base.tensor(z, zp)),
                        base.inv(base.assoc(y, z, zp)),
                    )
                    yield ((m, z, zp), lhs, rhs, a.equal(lhs, rhs))

    def pure_trials():
        for x, y in itertools.product(objs, repeat=2):
            for f in base.morphisms(x, y):
                for z in objs:
                    lhs = a.st(a.pure(f), z)
                    rhs = a.pure(base.tensor_mor(f, base.id(z)))
                    yield ((f, z), lhs, rhs, a.equal(lhs, rhs))

    def comp_trials():
        for x, y, z in itertools.product(objs, repeat=3):
            for m1 in a.hom_cached(x, y):
                for m2 in a.hom_cached(y, z):
                    m12 = a.comp(m1, m2)
                    for zo in objs:
                        lhs = a.st(m12, zo)
                        rhs = a.comp(a.st(m1, zo), a.st(m2, zo))
                        yield ((m1, m2, zo), lhs, rhs, a.equal(lhs, rhs))

    return [
        _report("strength.unit", name, unit_trials(), equality),
        _report("strength.assoc", name, assoc_trials(), equality),
        _report("strength.pure", name, pure_trials(), equality),
        _report("strength.comp", name, comp_trials(), equality),
    ]


def check_commutativity(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """Interchange of the two tensor interleavings; only for flagged arrows."""
    if not a.commutative:
        return []
    name = instance or a.name
    objs = a.objects

    def trials():
        for x, y in itertools.product(objs, repeat=2):
            for x2, y2 in itertools.product(objs, repeat=2):
                for m1 in a.hom_cached(x, y):
                    for m2 in a.hom_cached(x2, y2):
                        lhs = arrow_tensor(a, m1, m2)
                        rhs = arrow_tensor_flipped(a, m1, m2)
                        yield ((m1, m2), lhs, rhs, a.equal(lhs, rhs))

    return [_report("arrow.commute", name, trials(), equality)]


# -- bimodule laws ------------------------------------------------------------

def _bim_left_strength(b: Bimodule, e, z):
    base = b.arrow.base
    x, y = b.src(e), b.dst(e)
    return b.dimap(base.sym(z, x), b.st(e, z), base.sym(y, z))


def check_bimodule(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
    objects: list | None = None,
) -> list[LawReport]:
    """Action, mixed-action and strength-compatibility laws of a bimodule.

    ``lact-comp``, ``ract-comp`` and ``mixed`` number the arrow and
    bimodule members they meet (``_Interned``), run each real composite and
    action once per pair of numbers, and decide a case by comparing the
    numbers of its two sides, calling ``equal`` only when they differ; so
    ``key`` equality must imply ``equal``.  Reported inputs are the
    enumerated members themselves.
    """
    name = instance or b.name
    a = b.arrow
    base = a.base
    objs = objects if objects is not None else a.objects
    num_a = _Interned(a.key, a.src, a.dst)
    num_b = _Interned(b.key, b.src, b.dst)
    composites = _Composites(a, num_a)
    lact = _Op(b.lact, num_a, num_b, num_b)
    ract = _Op(b.ract, num_b, num_a, num_b)

    def lact_unit():
        for x, y in itertools.product(objs, repeat=2):
            for e in b.hom_cached(x, y):
                lhs = b.lact(a.identity(x), e)
                yield ((e,), lhs, e, b.equal(lhs, e))

    def ract_unit():
        for x, y in itertools.product(objs, repeat=2):
            for e in b.hom_cached(x, y):
                lhs = b.ract(e, a.identity(y))
                yield ((e,), lhs, e, b.equal(lhs, e))

    def lact_comp():
        for x, y, z, w in itertools.product(objs, repeat=4):
            hxy, hyz, hzw = a.hom_cached(x, y), a.hom_cached(y, z), b.hom_cached(z, w)
            if not (hxy and hyz and hzw):
                continue
            n_yz, n_zw = num_a.ids(hyz), num_b.ids(hzw)
            for a1, n1, row in zip(hxy, num_a.ids(hxy), composites[(x, y, z)]):
                for a2, n2, n12 in zip(hyz, n_yz, row):
                    for e, ne in zip(hzw, n_zw):
                        yield num_b.case(
                            (a1, a2, e), lact[(n12, ne)], lact[(n1, lact[(n2, ne)])],
                            b.equal,
                        )

    def ract_comp():
        for x, y, z, w in itertools.product(objs, repeat=4):
            hxy, hyz, hzw = b.hom_cached(x, y), a.hom_cached(y, z), a.hom_cached(z, w)
            if not (hxy and hyz and hzw):
                continue
            rows, n_yz, n_zw = composites[(y, z, w)], num_a.ids(hyz), num_a.ids(hzw)
            for e, ne in zip(hxy, num_b.ids(hxy)):
                for a1, n1, row in zip(hyz, n_yz, rows):
                    ne1 = ract[(ne, n1)]
                    for a2, n2, n12 in zip(hzw, n_zw, row):
                        yield num_b.case(
                            (e, a1, a2), ract[(ne, n12)], ract[(ne1, n2)], b.equal
                        )

    def mixed():
        for x, y, z, w in itertools.product(objs, repeat=4):
            hxy, hyz, hzw = a.hom_cached(x, y), b.hom_cached(y, z), a.hom_cached(z, w)
            if not (hxy and hyz and hzw):
                continue
            n_yz, n_zw = num_b.ids(hyz), num_a.ids(hzw)
            for a1, n1 in zip(hxy, num_a.ids(hxy)):
                for e, ne in zip(hyz, n_yz):
                    n1e = lact[(n1, ne)]
                    for a2, n2 in zip(hzw, n_zw):
                        yield num_b.case(
                            (a1, e, a2), lact[(n1, ract[(ne, n2)])], ract[(n1e, n2)],
                            b.equal,
                        )

    out = [
        _report("bimodule.lact-unit", name, lact_unit(), equality),
        _report("bimodule.lact-comp", name, lact_comp(), equality),
        _report("bimodule.ract-unit", name, ract_unit(), equality),
        _report("bimodule.ract-comp", name, ract_comp(), equality),
        _report("bimodule.mixed", name, mixed(), equality),
    ]

    if b.st is not None:
        def lact_st():
            for x, y, z in itertools.product(objs, repeat=3):
                for a1 in a.hom_cached(x, y):
                    for e in b.hom_cached(y, z):
                        acted = b.lact(a1, e)
                        for zo in objs:
                            lhs = b.st(acted, zo)
                            rhs = b.lact(a.st(a1, zo), b.st(e, zo))
                            yield ((a1, e, zo), lhs, rhs, b.equal(lhs, rhs))

        def ract_st():
            for x, y, z in itertools.product(objs, repeat=3):
                for e in b.hom_cached(x, y):
                    for a1 in a.hom_cached(y, z):
                        acted = b.ract(e, a1)
                        for zo in objs:
                            lhs = b.st(acted, zo)
                            rhs = b.ract(b.st(e, zo), a.st(a1, zo))
                            yield ((e, a1, zo), lhs, rhs, b.equal(lhs, rhs))

        out.append(_report("bimodule.lact-st", name, lact_st(), equality))
        out.append(_report("bimodule.ract-st", name, ract_st(), equality))

        if b.commutative:
            def commute():
                for x, y in itertools.product(objs, repeat=2):
                    for x2, y2 in itertools.product(objs, repeat=2):
                        for a1 in a.hom_cached(x, y):
                            for e in b.hom_cached(x2, y2):
                                lhs = b.lact(
                                    a.st(a1, x2), _bim_left_strength(b, e, y)
                                )
                                rhs = b.ract(
                                    _bim_left_strength(b, e, x), a.st(a1, y2)
                                )
                                yield ((a1, e), lhs, rhs, b.equal(lhs, rhs))

            out.append(_report("bimodule.commute", name, commute(), equality))

    return out


def check_eqmonoid(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
    objects: list | None = None,
) -> list[LawReport]:
    """Monoid laws of the designated merge, and action preservation."""
    name = instance or b.name
    mon = b.monoid
    if mon is None:
        return []
    a = b.arrow
    objs = objects if objects is not None else a.objects

    def m_unit():
        for x, y in itertools.product(objs, repeat=2):
            e0 = mon.e(x, y)
            for e in b.hom_cached(x, y):
                lhs = mon.m(e0, e)
                yield ((e,), lhs, e, b.equal(lhs, e))
                rhs = mon.m(e, e0)
                yield ((e,), rhs, e, b.equal(rhs, e))

    def m_assoc():
        for x, y in itertools.product(objs, repeat=2):
            hom = b.hom_cached(x, y)
            for e1, e2, e3 in itertools.product(hom, repeat=3):
                lhs = mon.m(mon.m(e1, e2), e3)
                rhs = mon.m(e1, mon.m(e2, e3))
                yield ((e1, e2, e3), lhs, rhs, b.equal(lhs, rhs))

    def m_commute():
        for x, y in itertools.product(objs, repeat=2):
            hom = b.hom_cached(x, y)
            for e1, e2 in itertools.product(hom, repeat=2):
                lhs = mon.m(e1, e2)
                rhs = mon.m(e2, e1)
                yield ((e1, e2), lhs, rhs, b.equal(lhs, rhs))

    def lact_e():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(x, y):
                lhs = b.lact(a1, mon.e(y, z))
                rhs = mon.e(x, z)
                yield ((a1,), lhs, rhs, b.equal(lhs, rhs))

    def lact_m():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(x, y):
                hom = b.hom_cached(y, z)
                for e1, e2 in itertools.product(hom, repeat=2):
                    lhs = b.lact(a1, mon.m(e1, e2))
                    rhs = mon.m(b.lact(a1, e1), b.lact(a1, e2))
                    yield ((a1, e1, e2), lhs, rhs, b.equal(lhs, rhs))

    def ract_e():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(y, z):
                lhs = b.ract(mon.e(x, y), a1)
                rhs = mon.e(x, z)
                yield ((a1,), lhs, rhs, b.equal(lhs, rhs))

    def ract_m():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(y, z):
                hom = b.hom_cached(x, y)
                for e1, e2 in itertools.product(hom, repeat=2):
                    lhs = b.ract(mon.m(e1, e2), a1)
                    rhs = mon.m(b.ract(e1, a1), b.ract(e2, a1))
                    yield ((a1, e1, e2), lhs, rhs, b.equal(lhs, rhs))

    out = [
        _report("eqmonoid.m-unit", name, m_unit(), equality),
        _report("eqmonoid.m-assoc", name, m_assoc(), equality),
    ]
    if mon.commutative:
        out.append(_report("eqmonoid.m-commute", name, m_commute(), equality))
    out += [
        _report("eqmonoid.lact-e", name, lact_e(), equality),
        _report("eqmonoid.lact-m", name, lact_m(), equality),
        _report("eqmonoid.ract-e", name, ract_e(), equality),
        _report("eqmonoid.ract-m", name, ract_m(), equality),
    ]
    return out


# -- context (costrength) laws ------------------------------------------------

def check_context(
    c: ContextStruct,
    instance: str | None = None,
    equality: str = "structural",
    objects: list | None = None,
) -> list[LawReport]:
    """Spectator-absorption coherence of a context structure."""
    b = c.bimodule
    a = b.arrow
    base = a.base
    name = instance or b.name
    objs = objects if objects is not None else a.objects
    tens = base.tensor

    def unit_trials():
        for x, y in itertools.product(objs, repeat=2):
            for e in b.hom_cached(tens(x, base.unit), tens(y, base.unit)):
                lhs = c.cst(e, x, y, base.unit)
                rhs = b.dimap(base.inv(base.runit(x)), e, base.runit(y))
                yield ((e,), lhs, rhs, b.equal(lhs, rhs))

    def assoc_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            big_src = tens(tens(x, z), w)
            big_dst = tens(tens(y, z), w)
            for e in b.hom_cached(big_src, big_dst):
                lhs = c.cst(c.cst(e, tens(x, z), tens(y, z), w), x, y, z)
                reshaped = b.dimap(
                    base.inv(base.assoc(x, z, w)), e, base.assoc(y, z, w)
                )
                rhs = c.cst(reshaped, x, y, tens(z, w))
                yield ((e, z, w), lhs, rhs, b.equal(lhs, rhs))

    def lact_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(x, y):
                padded = a.st(a1, w)
                for e in b.hom_cached(tens(y, w), tens(z, w)):
                    lhs = c.cst(b.lact(padded, e), x, z, w)
                    rhs = b.lact(a1, c.cst(e, y, z, w))
                    yield ((a1, e, w), lhs, rhs, b.equal(lhs, rhs))

    def ract_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(y, z):
                padded = a.st(a1, w)
                for e in b.hom_cached(tens(x, w), tens(y, w)):
                    lhs = c.cst(b.ract(e, padded), x, z, w)
                    rhs = b.ract(c.cst(e, x, y, w), a1)
                    yield ((e, a1, w), lhs, rhs, b.equal(lhs, rhs))

    out = [
        _report("costrength.unit", name, unit_trials(), equality),
        _report("costrength.assoc", name, assoc_trials(), equality),
        _report("costrength.lact", name, lact_trials(), equality),
        _report("costrength.ract", name, ract_trials(), equality),
    ]

    if b.commutative:
        def mixed_trials():
            for x, y in itertools.product(objs, repeat=2):
                for x2, y2 in itertools.product(objs, repeat=2):
                    for a1 in a.hom_cached(x, y):
                        for e in b.hom_cached(tens(y, x2), tens(x, y2)):
                            lhs = c.cst_left(
                                b.lact(a.st(a1, x2), e), x2, y2, x
                            )
                            rhs = c.cst_left(
                                b.ract(e, a.st(a1, y2)), x2, y2, y
                            )
                            yield ((a1, e), lhs, rhs, b.equal(lhs, rhs))

        out.append(_report("costrength.mixed", name, mixed_trials(), equality))

    return out


# -- graded laws --------------------------------------------------------------

def _default_iso_id(p):
    return FinFun.identity(p)


def _default_iso_comp(phi, chi):
    # chi : r -> q after phi : q -> p, diagrammatically r -> p
    return fun_compose(chi, phi)


def check_graded(
    g: GradedArrow,
    instance: str | None = None,
    equality: str = "structural",
    iso_id: Callable = _default_iso_id,
    iso_comp: Callable = _default_iso_comp,
) -> list[LawReport]:
    """Unit, associativity, regrade functoriality and naturality laws."""
    name = instance or g.name
    base, objs, grades = g.base, g.objects, g.grades
    gs = g.grade_structural

    def unit_trials():
        for p in grades:
            for x, y in itertools.product(objs, repeat=2):
                for e in g.hom(p, x, y):
                    lhs = g.regrade(gs("lunit", (p,)), g.gcomp(g.unit(base.id(x)), e))
                    yield ((e,), lhs, e, g.equal(lhs, e))
                    rhs = g.regrade(gs("runit", (p,)), g.gcomp(e, g.unit(base.id(y))))
                    yield ((e,), rhs, e, g.equal(rhs, e))

    def assoc_trials():
        for p, q, r in itertools.product(grades, repeat=3):
            for x, y, z, w in itertools.product(objs, repeat=4):
                for e1 in g.hom(p, x, y):
                    for e2 in g.hom(q, y, z):
                        left = g.gcomp(e1, e2)
                        for e3 in g.hom(r, z, w):
                            lhs = g.regrade(
                                gs("assoc", (p, q, r)), g.gcomp(left, e3)
                            )
                            rhs = g.gcomp(e1, g.gcomp(e2, e3))
                            yield ((e1, e2, e3), lhs, rhs, g.equal(lhs, rhs))

    def regrade_trials():
        for p in grades:
            for x, y in itertools.product(objs, repeat=2):
                for e in g.hom(p, x, y):
                    lhs = g.regrade(iso_id(p), e)
                    yield ((e,), lhs, e, g.equal(lhs, e))
        for p, q, r in itertools.product(grades, repeat=3):
            for phi in g.grade_isos(q, p):
                for chi in g.grade_isos(r, q):
                    composite = iso_comp(phi, chi)
                    for x, y in itertools.product(objs, repeat=2):
                        for e in g.hom(p, x, y):
                            lhs = g.regrade(composite, e)
                            rhs = g.regrade(chi, g.regrade(phi, e))
                            yield ((phi, chi, e), lhs, rhs, g.equal(lhs, rhs))

    def st_natural_trials():
        for p, q in itertools.product(grades, repeat=2):
            for phi in g.grade_isos(q, p):
                for x, y in itertools.product(objs, repeat=2):
                    for e in g.hom(p, x, y):
                        for z in objs:
                            lhs = g.st(g.regrade(phi, e), z)
                            rhs = g.regrade(phi, g.st(e, z))
                            yield ((phi, e, z), lhs, rhs, g.equal(lhs, rhs))

    out = [
        _report("graded.unit", name, unit_trials(), equality),
        _report("graded.assoc", name, assoc_trials(), equality),
        _report("graded.regrade", name, regrade_trials(), equality),
        _report("graded.st-natural", name, st_natural_trials(), equality),
    ]

    if g.commutative:
        def commute_trials():
            for p, q in itertools.product(grades, repeat=2):
                for x, y in itertools.product(objs, repeat=2):
                    for x2, y2 in itertools.product(objs, repeat=2):
                        for e1 in g.hom(p, x, y):
                            for e2 in g.hom(q, x2, y2):
                                lhs = g.regrade(
                                    gs("sym", (p, q)),
                                    g.gcomp(
                                        g.st(e1, x2),
                                        graded_left_strength(g, e2, y),
                                    ),
                                )
                                rhs = g.gcomp(
                                    graded_left_strength(g, e2, x),
                                    g.st(e1, y2),
                                )
                                yield ((e1, e2), lhs, rhs, g.equal(lhs, rhs))

        out.append(_report("graded.commute", name, commute_trials(), equality))

    return out


def check_graded_bimodule(
    gb: GradedBimodule,
    objects: list,
    grades: list,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Graded action laws, with grade bookkeeping along structural regrades."""
    name = instance or gb.name
    g = gb.arrow
    base = g.base
    gs = g.grade_structural

    def lact_unit():
        for q in grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in gb.hom(q, x, y):
                    acted = gb.glact(g.unit(base.id(x)), e)
                    lhs = gb.regrade(gs("lunit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    def ract_unit():
        for q in grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in gb.hom(q, x, y):
                    acted = gb.gract(e, g.unit(base.id(y)))
                    lhs = gb.regrade(gs("runit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    def lact_comp():
        for p1, p2, q in itertools.product(grades, repeat=3):
            for x, y, z, w in itertools.product(objects, repeat=4):
                for a1 in g.hom(p1, x, y):
                    for a2 in g.hom(p2, y, z):
                        a12 = g.gcomp(a1, a2)
                        for e in gb.hom(q, z, w):
                            lhs = gb.regrade(
                                gs("assoc", (p1, p2, q)), gb.glact(a12, e)
                            )
                            rhs = gb.glact(a1, gb.glact(a2, e))
                            yield ((a1, a2, e), lhs, rhs, gb.equal(lhs, rhs))

    def ract_comp():
        for q, p1, p2 in itertools.product(grades, repeat=3):
            for x, y, z, w in itertools.product(objects, repeat=4):
                for e in gb.hom(q, x, y):
                    for a1 in g.hom(p1, y, z):
                        for a2 in g.hom(p2, z, w):
                            lhs = gb.gract(e, g.gcomp(a1, a2))
                            rhs = gb.regrade(
                                gs("assoc", (q, p1, p2)),
                                gb.gract(gb.gract(e, a1), a2),
                            )
                            yield ((e, a1, a2), lhs, rhs, gb.equal(lhs, rhs))

    def mixed():
        for p, q, r in itertools.product(grades, repeat=3):
            for x, y, z, w in itertools.product(objects, repeat=4):
                for a1 in g.hom(p, x, y):
                    for e in gb.hom(q, y, z):
                        for a2 in g.hom(r, z, w):
                            lhs = gb.glact(a1, gb.gract(e, a2))
                            rhs = gb.regrade(
                                gs("assoc", (p, q, r)),
                                gb.gract(gb.glact(a1, e), a2),
                            )
                            yield ((a1, e, a2), lhs, rhs, gb.equal(lhs, rhs))

    return [
        _report("gbim.lact-unit", name, lact_unit(), equality),
        _report("gbim.lact-comp", name, lact_comp(), equality),
        _report("gbim.ract-unit", name, ract_unit(), equality),
        _report("gbim.ract-comp", name, ract_comp(), equality),
        _report("gbim.mixed", name, mixed(), equality),
    ]


#: which law ids each checker can emit (cross-checked against the manifest)
CHECKER_LAWS: dict[str, tuple[str, ...]] = {
    "check_arrow_laws": ("arrow.unit", "arrow.assoc", "arrow.pure-functor"),
    "check_strength": (
        "strength.unit", "strength.assoc", "strength.pure", "strength.comp",
    ),
    "check_commutativity": ("arrow.commute",),
    "check_bimodule": (
        "bimodule.lact-unit", "bimodule.lact-comp", "bimodule.ract-unit",
        "bimodule.ract-comp", "bimodule.mixed", "bimodule.lact-st",
        "bimodule.ract-st", "bimodule.commute",
    ),
    "check_eqmonoid": (
        "eqmonoid.m-unit", "eqmonoid.m-assoc", "eqmonoid.m-commute",
        "eqmonoid.lact-e", "eqmonoid.lact-m", "eqmonoid.ract-e",
        "eqmonoid.ract-m",
    ),
    "check_context": (
        "costrength.unit", "costrength.assoc", "costrength.lact",
        "costrength.ract", "costrength.mixed",
    ),
    "check_graded": (
        "graded.unit", "graded.assoc", "graded.regrade", "graded.st-natural",
        "graded.commute",
    ),
    "check_graded_bimodule": (
        "gbim.lact-unit", "gbim.lact-comp", "gbim.ract-unit",
        "gbim.ract-comp", "gbim.mixed",
    ),
}


# -- registered universes -----------------------------------------------------

def _lens_h(x: PairObj, y: PairObj) -> int:
    return (len(y.fwd) ** len(x.fwd)) * (len(x.bwd) ** (len(x.fwd) * len(y.bwd)))


def _cases3(objs: list, h: Callable[[Any, Any], int]) -> int:
    tot = 0
    for x, y, z, w in itertools.product(objs, repeat=4):
        tot += h(x, y) * h(y, z) * h(z, w)
    return tot


def _refuse_over(name: str, estimate: int, budget: int) -> None:
    if estimate > budget:
        raise SizeError(
            f"{name}: dominant law would chase ~{estimate} cases, over the "
            f"bound of {budget}; refusing"
        )


def _truncated(pool_of: Callable, n: int) -> Callable:
    return lambda *args: pool_of(*args)[:n]


def _eq_h(x: PairObj, y: PairObj, values: int = 2) -> int:
    # one value per registered context: contexts of (x, y) pair a point of x
    # with a continuation out of y
    return values ** (len(x.fwd) * (len(y.bwd) ** len(y.fwd)))


def _ctx_h(x: PairObj, y: PairObj) -> int:
    return len(y.fwd) * (len(x.bwd) ** len(x.fwd))


def arrow_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    atoms4 = pair_atoms((1, 1), (size, 1), (1, size), (size, size))
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    atoms2 = pair_atoms((1, 1), (size, 1))
    j_obj = PairObj(bit_set(size), UNIT)

    def para_h(x, y):
        return _lens_h(x, y) + _lens_h(PAIR.tensor(j_obj, x), y)

    est = (
        _cases3([UNIT, bit_set(size)], lambda x, y: len(y) ** len(x))
        + _cases3(atoms4, _lens_h)
        + _cases3(atoms3, lambda x, y: _lens_h(x, y) * _eq_h(x, y))
        + _cases3(atoms2, lambda x, y: 6)
        + _cases3(atoms2, para_h)
    )
    _refuse_over(f"arrow law suite at size {size}", est, budget)

    reports: list[LawReport] = []

    hom = hom_arrow(SET, [UNIT, bit_set(size)], name="hom(set)")
    reports += check_arrow_laws(hom, "hom(set)")
    reports += check_strength(hom, "hom(set)")
    reports += check_commutativity(hom, "hom(set)")

    lens4 = lens_arrow(atoms4)
    reports += check_arrow_laws(lens4, "lens")
    reports += check_strength(lens4, "lens")
    reports += check_commutativity(lens4, "lens")

    lens3 = lens_arrow(atoms3)
    weq = with_eq(lens3, ctx_of_arrow(lens3, LENS_PROJECTIONS), BOOL_AND)
    reports += check_arrow_laws(weq, "witheq(lens,bool)")

    # strength laws tabulate values over tensored contexts, which is much
    # costlier per trial; quantify them over the two-object universe
    lens2 = lens_arrow(atoms2)
    weq2 = with_eq(lens2, ctx_of_arrow(lens2, LENS_PROJECTIONS), BOOL_AND)
    reports += check_strength(weq2, "witheq(lens,bool)")
    reports += check_commutativity(weq2, "witheq(lens,bool)")

    fam_arrow = fam(weq2, member_pool=_truncated(weq2.hom_cached, 2))
    fam_eq = "index-bijection over pooled members"
    reports += check_arrow_laws(fam_arrow, "fam(witheq(lens,bool))", fam_eq)
    reports += check_strength(fam_arrow, "fam(witheq(lens,bool))", fam_eq)
    reports += check_commutativity(fam_arrow, "fam(witheq(lens,bool))", fam_eq)

    para_arrow = para(lens_arrow(atoms2), [PAIR_I, j_obj])
    para_eq = "parameter-bijection"
    reports += check_arrow_laws(para_arrow, "para(lens)", para_eq)
    reports += check_strength(para_arrow, "para(lens)", para_eq)
    reports += check_commutativity(para_arrow, "para(lens)", para_eq)

    return reports


def optic_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    from .optic import DEFAULT_RESIDUAL_CAP

    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    est = _cases3(atoms3, _lens_h)
    _refuse_over(f"optic law suite at size {size}", est, budget)
    if size ** 3 > DEFAULT_RESIDUAL_CAP:
        raise SizeError(
            f"optic law suite at size {size}: triple composites reach residual "
            f"carriers of size {size ** 3}, over the residual cap of "
            f"{DEFAULT_RESIDUAL_CAP}; refusing (~{est} cases)"
        )

    opt = optic_arrow(atoms3)
    eq = "sliding-canonical form"
    return (
        check_arrow_laws(opt, "optic(set)", eq)
        + check_strength(opt, "optic(set)", eq)
        + check_commutativity(opt, "optic(set)", eq)
    )


def bimodule_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    atoms2 = pair_atoms((size, 1), (1, size))

    est_ctx = _cases3(atoms3, _lens_h)  # action laws are cubic like assoc
    def act_cases(objs, ha, hb):
        tot = 0
        for x, y, z, w in itertools.product(objs, repeat=4):
            tot += ha(x, y) * ha(y, z) * hb(z, w)
        return tot

    est_eq = act_cases(atoms2, _lens_h, _eq_h)
    est_eq_m = sum(
        _lens_h(x, y) * _eq_h(y, z) ** 2
        for x, y, z in itertools.product(atoms2, repeat=3)
    )
    _refuse_over(
        f"bimodule law suite at size {size}", est_ctx + 2 * (est_eq + est_eq_m), budget
    )

    reports: list[LawReport] = []

    lens3 = lens_arrow(atoms3)
    ctx3 = ctx_of_arrow(lens3, LENS_PROJECTIONS)
    reports += check_bimodule(ctx3.bimodule, "ctx(lens)")

    lens2 = lens_arrow(atoms2)
    ctx2 = ctx_of_arrow(lens2, LENS_PROJECTIONS)
    eq_bool = eq_from_context(ctx2, BOOL_AND)
    reports += check_bimodule(eq_bool, "eq(lens,bool)")
    reports += check_eqmonoid(eq_bool, "eq(lens,bool)")

    eq_wit = eq_from_context(ctx2, WITNESSES, value_pool=[(), (("w",),)])
    reports += check_bimodule(eq_wit, "eq(lens,witness)")
    reports += check_eqmonoid(eq_wit, "eq(lens,witness)")

    return reports


def context_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    atoms2 = pair_atoms((size, 1), (1, size))
    theta = pair_atoms((size, 1))[0]
    residuals = [PAIR_I, theta]

    def big(x, z, w):
        return PAIR.tensor(PAIR.tensor(x, z), w)

    def opt_h(x, y):
        return sum(
            len(t.fwd) * len(y.fwd)
            * (len(t.bwd) * len(x.bwd)) ** (len(t.fwd) * len(x.fwd))
            for t in residuals
        )

    cst_objs = pair_atoms((1, 1), (1, size))
    est = sum(
        _ctx_h(big(x, z, w), big(y, z, w))
        for x, y, z, w in itertools.product(atoms3, repeat=4)
    ) + sum(
        opt_h(big(x, z, w), big(y, z, w))
        for x, y, z, w in itertools.product(cst_objs, repeat=4)
    )
    _refuse_over(f"context law suite at size {size}", est, budget)

    reports: list[LawReport] = []

    lens3 = lens_arrow(atoms3)
    ctx3 = ctx_of_arrow(lens3, LENS_PROJECTIONS)
    reports += check_context(ctx3, "ctx(lens)")

    lens2 = lens_arrow(atoms2)
    octx = lens_optic_context(lens2, residuals)
    eq = "sliding-canonical form"
    reports += check_bimodule(octx.bimodule, "opticctx(lens)", eq)
    # spectator absorption over forward-trivial objects: states collapse but
    # the continuation side, where residual bookkeeping lives, stays rich
    reports += check_context(octx, "opticctx(lens)", eq, objects=cst_objs)

    return reports


def graded_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    from .finset import STAR
    from .optic import set_hom_arrow

    atoms2 = pair_atoms((1, 1), (size, 1))
    grades2 = [FinSet((0,)), FinSet((0, 1))]

    est_param = sum(
        _lens_h(x, y) ** len(p) * _lens_h(y, z) ** len(q) * _lens_h(z, w) ** len(r)
        for p, q, r in itertools.product(grades2, repeat=3)
        for x, y, z, w in itertools.product(atoms2, repeat=4)
    )
    est_tw = 27 * 16 * (2 * 2) ** 3
    est_gbim = sum(
        (2 ** len(p)) * (2 ** len(q)) * 2
        for p, q in itertools.product(grades2, repeat=2)
        for _ in range(16)
        for _r in grades2
    )
    _refuse_over(
        f"graded law suite at size {size}", est_param + est_tw + est_gbim, budget
    )

    reports: list[LawReport] = []

    gp = grade_by_param(lens_arrow(atoms2), grades2)
    reports += check_graded(gp, "param(lens)")

    bit = bit_set(2)
    tw_objs = pair_atoms((size, 1), (1, size))
    carriers = sorted(
        {o.fwd for o in tw_objs} | {o.bwd for o in tw_objs},
        key=lambda s: (len(s), repr(s.elements)),
    )
    inner = set_hom_arrow(list(carriers))
    tw_grades = [
        TwGrade(FinFun.identity(UNIT)),
        TwGrade(FinFun.identity(bit)),
        TwGrade(FinFun.of(bit, bit, lambda _j: 0)),
    ]
    tw = twisted_grading(
        inner, tw_objs, tw_grades, member_pool=_truncated(inner.hom_cached, 2)
    )
    reports += check_graded(
        tw,
        "twisted(set)",
        iso_id=lambda p: TwIso(
            FinFun.identity(p.left_res), FinFun.identity(p.right_res)
        ),
        iso_comp=lambda phi, chi: TwIso(
            fun_compose(chi.u, phi.u), fun_compose(chi.v, phi.v)
        ),
    )

    gobj = PairObj(bit_set(size), bit_set(size))
    gobjs = [PAIR_I, gobj]
    glens = grade_by_param(
        lens_arrow([]), grades2, member_pool=_truncated(all_lenses, 2)
    )

    def br_elements(grade, x, y):
        x0 = x.fwd.elements[0]

        def cmp_rel(c):
            return lambda p1, p2: grade.index(p2) >= grade.index(p1)

        def ctx_rel(c):
            flip = c.state.fwd(STAR) == x0
            return lambda p1, p2: (grade.index(p2) >= grade.index(p1)) == flip

        return [
            BestRespElement(x, y, grade, cmp_rel),
            BestRespElement(x, y, grade, ctx_rel),
        ]

    def br_contexts(x, y):
        ks = all_funs(y.fwd, y.bwd)
        return [
            CtxPair(y, x, point_lens(x, p), cont_lens(y, ks[0]))
            for p in x.fwd.elements[:2]
        ]

    br = best_resp_bimodule(glens, br_elements, br_contexts)
    reports += check_graded_bimodule(
        br, gobjs, grades2, "bestresp(lens)",
        "pointwise over registered contexts",
    )

    def ri_lenses(x, y):
        # only request-independent backward passes: mixing continuations
        # moves payoffs off the carrier, which state-dependent coplay rejects
        g0 = all_funs(x.fwd, x.bwd)[0]
        bwd = FinFun.of(
            product(x.fwd, y.bwd), x.bwd, lambda t: g0(t[0])
        )
        return [Lens(x, y, f, bwd) for f in all_funs(x.fwd, y.fwd)[:2]]

    pglens = grade_by_param(lens_arrow([]), grades2, member_pool=ri_lenses)

    def pr_elements(grade, x, y):
        x0 = x.fwd.elements[0]
        y0 = y.fwd.elements[0]

        def state_pred(cd, d):
            return all(c.state == x0 for c, _ in cd.weights)

        def pay_pred(cd, d):
            tot = Fraction(0)
            for c, w in cd.weights:
                v = c.cont(y0)
                if isinstance(v, (int, Fraction)):
                    tot += w * Fraction(v)
            return tot >= Fraction(1, 2)

        return [
            ProbElement(x, y, grade, state_pred),
            ProbElement(x, y, grade, pay_pred),
        ]

    def pr_contexts(x, y):
        k = all_funs(y.fwd, y.bwd)[0]
        return [ProbCtx(x, y, p, k) for p in x.fwd.elements[:2]]

    def pr_dists(grade):
        n = len(grade)
        out = [dist_pure(grade.elements[0])]
        if n > 1:
            out.append(dist_pure(grade.elements[-1]))
            out.append(Dist([(j, Fraction(1, n)) for j in grade.elements]))
        return out

    pr = prob_bimodule(pglens, pr_elements, pr_contexts, pr_dists)
    reports += check_graded_bimodule(
        pr, gobjs, grades2, "probequib(lens)",
        "pointwise over registered contexts and strategy distributions",
    )

    return reports


_SUITE_FNS = {
    "arrow": arrow_suite,
    "bimodule": bimodule_suite,
    "context": context_suite,
    "graded": graded_suite,
    "optic": optic_suite,
}

SUITE_NAMES = tuple(_SUITE_FNS) + ("all",)

_suite_cache: dict = {}


def run_suite(name: str, size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    """Deterministic reports for one suite, sorted by (law, instance)."""
    if name == "all":
        out: list[LawReport] = []
        for n in _SUITE_FNS:
            out += run_suite(n, size, budget)
        return sorted(out, key=lambda r: (r.law, r.instance))
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    key = (name, size, budget)
    if key not in _suite_cache:
        reports = _SUITE_FNS[name](size, budget)
        for r in reports:
            if r.law not in LAWS:
                raise RuntimeError(f"unregistered law id {r.law!r} emitted")
        _suite_cache[key] = sorted(reports, key=lambda r: (r.law, r.instance))
    return _suite_cache[key]


# -- mutants ------------------------------------------------------------------
#
# Each mutant is a deliberately broken instance, built so it violates exactly
# one law among all the checks that apply to its family.  Tags ride along on
# otherwise-honest carriers, and the mutation lives in how tags combine.

@dataclass(frozen=True)
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
        if st_fun is None:
            fun = tensor_fun(m.fun, FinFun.identity(z))
        else:
            fun = st_fun(m, z)
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
        commutative=commutative,
    )


def _is_id_fun(f: FinFun) -> bool:
    return f.dom == f.cod and f.table == f.dom.elements


def _nonbij(f: FinFun) -> bool:
    return len(set(f.table)) < len(f.cod)


def _parity(f: FinFun) -> int:
    pos = [f.cod.index(v) for v in f.table]
    inv = sum(
        1
        for i in range(len(pos))
        for j in range(i + 1, len(pos))
        if pos[i] > pos[j]
    )
    return inv % 2


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
    return (
        check_arrow_laws(a, a.name)
        + check_strength(a, a.name)
        + check_commutativity(a, a.name)
    )


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


@dataclass(frozen=True)
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
    monoid: MonoidOnProfunctor | None = None,
    commutative: bool = False,
    bijections_only: bool = False,
) -> Bimodule:
    arrow = hom_arrow(SET, objects, name="mutant-base")
    if bijections_only:
        arrow.hom = lambda x, y: [
            f for f in all_funs(x, y) if not _nonbij(f)
        ]

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
        monoid=monoid,
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


def _tag_monoid(unit_tag, mop, commutative=True) -> MonoidOnProfunctor:
    return MonoidOnProfunctor(
        e=lambda x, y: TagElem(x, y, unit_tag),
        m=lambda e1, e2: TagElem(e1.src, e1.dst, mop(e1.tag, e2.tag)),
        commutative=commutative,
    )


def _mutant_eq_m_unit():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, _honest_psi, _sigma_id,
        monoid=_tag_monoid(0, lambda t1, t2: t1, commutative=False),
        commutative=True,
    ))


def _mutant_eq_m_assoc():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2), _honest_psi, _honest_psi, _sigma_id,
        monoid=_tag_monoid(0, lambda t1, t2: _MAGMA[(t1, t2)]),
        commutative=True,
    ))


def _mutant_eq_m_commute():
    return _run_bimodule(_tag_bimodule(
        [_B2], ("u", "a", "b"), _honest_psi, _honest_psi, _sigma_id,
        monoid=_tag_monoid(
            "u",
            lambda t1, t2: t2 if t1 == "u" else (t1 if t2 == "u" else t1),
        ),
        commutative=True,
    ))


def _mutant_eq_lact_e():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), lambda a, t: t if not _nonbij(a) else 0, _honest_psi,
        _sigma_id, monoid=_tag_monoid(1, min),
    ))


def _mutant_eq_lact_m():
    squash = (0, 1, 1)
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2),
        lambda a, t: squash[t] if _nonbij(a) else t, _honest_psi,
        _sigma_id, monoid=_tag_monoid(0, lambda t1, t2: (t1 + t2) % 3),
    ))


def _mutant_eq_ract_e():
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1), _honest_psi, lambda a, t: t if not _nonbij(a) else 0,
        _sigma_id, monoid=_tag_monoid(1, min),
    ))


def _mutant_eq_ract_m():
    squash = (0, 1, 1)
    return _run_bimodule(_tag_bimodule(
        [_B2], (0, 1, 2),
        _honest_psi, lambda a, t: squash[t] if _nonbij(a) else t,
        _sigma_id, monoid=_tag_monoid(0, lambda t1, t2: (t1 + t2) % 3),
    ))


def _tag_context(bim: Bimodule, mu: Callable) -> ContextStruct:
    return ContextStruct(
        bimodule=bim,
        cst=lambda e, x, y, z: TagElem(x, y, mu(e.tag, z)),
    )


def _run_context(c: ContextStruct) -> list[LawReport]:
    return check_bimodule(c.bimodule, "mutant") + check_context(c, "mutant")


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
    bim = _tag_bimodule(
        [_B2, product(_B2, _B2)], (0, 1), _honest_psi, _honest_psi, _sigma_id,
        commutative=True,
    )
    return _run_context(_tag_context(
        bim, lambda t, z: t ^ ((len(z).bit_length() - 1) % 2)
    ))


# graded mutants: honest set functions in two-grade families, with a scalar
# or per-index value whose bookkeeping carries the mutation

@dataclass(frozen=True)
class GradeTag:
    src: FinSet
    dst: FinSet
    fun: FinFun
    grade: FinSet
    n: Any


_GRADES2 = [FinSet((0,)), FinSet((0, 1))]


def _param_structural(kind: str, args: tuple) -> FinFun:
    if kind == "lunit":
        (p,) = args
        return FinFun.of(p, product(GRADE_UNIT, p), lambda j: (0, j))
    if kind == "runit":
        (p,) = args
        return FinFun.of(p, product(p, GRADE_UNIT), lambda j: (j, 0))
    if kind == "assoc":
        p, q, r = args
        return FinFun.of(
            product(p, product(q, r)),
            product(product(p, q), r),
            lambda t: ((t[0], t[1][0]), t[1][1]),
        )
    if kind == "sym":
        p, q = args
        return FinFun.of(product(q, p), product(p, q), lambda t: (t[1], t[0]))
    raise ValueError(f"unknown structural grade iso {kind!r}")


def _tag_graded(
    tags: tuple,
    unit_n,
    n_comp: Callable,
    st_n: Callable | None = None,
    regrade_n: Callable | None = None,
    per_index: bool = False,
    commutative: bool = True,
) -> GradedArrow:
    from .finset import all_bijections

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
        grades=list(_GRADES2),
        grade_unit=GRADE_UNIT,
        grade_tensor=product,
        grade_isos=all_bijections,
        hom=hom,
        unit=unit,
        gcomp=gcomp,
        st=st,
        regrade=regrade,
        equal=lambda e1, e2: e1 == e2,
        grade_of=lambda e: e.grade,
        src=lambda e: e.src,
        dst=lambda e: e.dst,
        commutative=commutative,
        grade_structural=_param_structural,
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


@dataclass(frozen=True)
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
        grade_of=lambda b: b.grade,
        src=lambda b: b.src,
        dst=lambda b: b.dst,
    )


def _run_gbim(gb: GradedBimodule) -> list[LawReport]:
    return check_graded_bimodule(gb, [_B2], _GRADES2, "mutant")


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


@dataclass(frozen=True)
class MutantResult:
    target: str
    failed: tuple  # sorted law ids that actually failed
    isolated: bool  # failed == (target,)


def run_mutants(targets: Iterable[str] | None = None) -> list[MutantResult]:
    """Run each planted mutant and record which laws it breaks."""
    out = []
    for target in sorted(targets if targets is not None else MUTANTS):
        reports = MUTANTS[target]()
        failed = tuple(sorted({r.law for r in reports if r.status != "pass"}))
        out.append(MutantResult(target, failed, failed == (target,)))
    return out


def _manifest_check() -> None:
    emitted = set().union(*(set(v) for v in CHECKER_LAWS.values()))
    if emitted != set(LAWS):
        raise RuntimeError(
            "law manifest out of sync with checkers: "
            f"{sorted(emitted ^ set(LAWS))}"
        )
    if set(MUTANTS) != set(LAWS):
        raise RuntimeError(
            "law manifest out of sync with the mutant registry: "
            f"{sorted(set(MUTANTS) ^ set(LAWS))}"
        )


_manifest_check()
