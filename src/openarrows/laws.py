"""Coherence law checking: exhaustive diagram chases over registered universes.

Every equation the library's structures promise is written once here, as a
quantified trial generator; running a suite chases each diagram over a
registered finite universe and emits one report per (law, instance), with a
concrete counterexample on failure.  ``LAWS`` is the one manifest of law
ids: ``run_suite`` refuses a report whose id it lacks, and the planted
mutants of :mod:`openarrows.mutants` (one per id, loaded only by
``run_mutants``) show that each law is independently falsifiable.

Universes are sized so the dominant law (usually associativity, which is
cubic in hom sizes) stays under a case budget; oversized requests are
refused up front with the closed-form case estimate rather than attempted.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .arrow import ArrowInstance, dimap, hom_arrow, left_strength
from .base import PAIR, SET, PairObj, PAIR_I, bit_set, pair_atoms
from .bimodule import (
    Bimodule,
    ContextStruct,
    CtxPair,
    ctx_of_arrow,
    eq_from_context,
    with_eq,
)
from .finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    Dist,
    FinFun,
    FinSet,
    all_funs,
    dist_pure,
    fun_compose,
    product,
)
from .games import (
    BestRespElement,
    ProbCtx,
    ProbElement,
    best_resp_bimodule,
    context_count,
    prob_bimodule,
)
from .grading import (
    GradedArrow,
    GradedBimodule,
    SizeError,
    fam,
    grade_by_param,
    graded_left_strength,
    para,
)
from .lens import LENS_PROJECTIONS, Lens, all_lenses, cont_lens, lens_arrow, point_lens
from .optic import (
    DEFAULT_RESIDUAL_CAP,
    TwGrade,
    TwIso,
    carrier_set_arrow,
    lens_optic_context,
    optic_arrow,
    twisted_grading,
)

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
    """Stops at the first failing trial ``(inputs, lhs, rhs, verdict)``; an
    ``int`` trial is a slab of that many passing cases."""
    checked = 0
    unknown = False
    for trial in trials:
        if trial.__class__ is int:
            checked += trial
            continue
        checked += 1
        inputs, lhs, rhs, verdict = trial
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
# A slab, the innermost loop under one outer prefix, is decided by one ``==``
# of its two lists of numbers, and replayed case by case only if they differ.

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

    def slab(self, prefix: tuple, members: list, lhs: list, rhs: list, equal: Callable):
        """A slab's size if its numbers agree, else its cases in order."""
        if lhs == rhs:
            return (len(lhs),)
        case = self.case
        return (case((*prefix, m), l, r, equal) for m, l, r in zip(members, lhs, rhs))


class _Row(dict):
    """j -> the number of ``fn(m, right.reps[j])``; not pointing back, so acyclic."""

    __slots__ = ("fn", "m", "right", "out")

    def __init__(self, fn: Callable, m, right: _Interned, out: _Interned):
        self.fn, self.m, self.right, self.out = fn, m, right, out

    def __missing__(self, j):
        n = self[j] = self.out(self.fn(self.m, self.right.reps[j]))
        return n


class _Op(dict):
    """``op[i][j]`` is the number of ``fn(left.reps[i], right.reps[j])``, run
    once; a slab maps one row ``op[i]`` over a list of numbers ``j``."""

    def __init__(self, fn: Callable, left: _Interned, right: _Interned, out: _Interned):
        self.fn, self.left, self.right, self.out = fn, left, right, out

    def __missing__(self, i):
        row = self[i] = _Row(self.fn, self.left.reps[i], self.right, self.out)
        return row


class _Composites(dict):
    """(u, v) -> rows of the numbers of ``comp(m1, m2)``, m1 in hom(*u), m2 in hom(*v).

    Rows are positional (one exact-size tuple per ``m1``), so a table costs
    a pointer per composite; a dict keyed on pairs costs several times that.
    """

    def __init__(self, comp: Callable, hom: Callable, num: _Interned):
        self.comp, self.hom, self.num = comp, hom, num

    def __missing__(self, uv):
        comp, num, right = self.comp, self.num, self.hom(*uv[1])
        rows = self[uv] = [
            tuple(map(num, map(comp, itertools.repeat(m1), right)))
            for m1 in self.hom(*uv[0])
        ]
        return rows


_same = operator.index  # the identity on numbers, mapped at C speed


def _sides(op: _Op, nums: list, fix: Callable) -> Callable:
    """n -> ``[fix(op[n][j]) for j in nums]``, built once per n: a slab side
    that varies with one number only, shared by every slab that meets it."""
    return functools.cache(lambda n: list(map(fix, map(op[n].__getitem__, nums))))


def _action_trials(objs, grades, ha, hb, num_a, num_b, comp, lact, ract, assoc, equal):
    """The ``lact-comp``, ``ract-comp`` and ``mixed`` trials of a (graded) bimodule.

    ``ha(p, x, y)`` and ``hb(p, x, y)`` list the arrow's and the bimodule's
    members at grade ``p``, the same list on every call; a plain bimodule
    has the one grade ``None``.  ``assoc(p, q, r)`` maps the number of a
    bimodule member at grade (p q) r to that of its regrade to p (q r).
    A slab is the last member loop: ``e`` of ``lact-comp``, else ``a2``.
    """
    composites = _Composites(comp, ha, num_a)
    lact, ract = _Op(lact, num_a, num_b, num_b), _Op(ract, num_b, num_a, num_b)

    def lact_comp():
        for p, q, r in itertools.product(grades, repeat=3):
            fix = assoc(p, q, r)
            for x, y, z, w in itertools.product(objs, repeat=4):
                hxy, hyz, hzw = ha(p, x, y), ha(q, y, z), hb(r, z, w)
                if not (hxy and hyz and hzw):
                    continue
                rows = composites[((p, x, y), (q, y, z))]
                n_zw = num_b.ids(hzw)
                lhs_of, acted = _sides(lact, n_zw, fix), _sides(lact, n_zw, _same)
                for a1, n1, row in zip(hxy, num_a.ids(hxy), rows):
                    act1 = lact[n1].__getitem__
                    for a2, n2, n12 in zip(hyz, num_a.ids(hyz), row):
                        lhs = lhs_of(n12)
                        rhs = list(map(act1, acted(n2)))
                        yield from num_b.slab((a1, a2), hzw, lhs, rhs, equal)

    def ract_comp():
        for p, q, r in itertools.product(grades, repeat=3):
            fix = assoc(p, q, r)
            for x, y, z, w in itertools.product(objs, repeat=4):
                hxy, hyz, hzw = hb(p, x, y), ha(q, y, z), ha(r, z, w)
                if not (hxy and hyz and hzw):
                    continue
                rows = composites[((q, y, z), (r, z, w))]
                rhs_of = _sides(ract, num_a.ids(hzw), fix)
                for e, ne in zip(hxy, num_b.ids(hxy)):
                    act_e = ract[ne].__getitem__
                    for a1, n1, row in zip(hyz, num_a.ids(hyz), rows):
                        ne1 = act_e(n1)
                        lhs = list(map(act_e, row))
                        yield from num_b.slab((e, a1), hzw, lhs, rhs_of(ne1), equal)

    def mixed():
        for p, q, r in itertools.product(grades, repeat=3):
            fix = assoc(p, q, r)
            for x, y, z, w in itertools.product(objs, repeat=4):
                hxy, hyz, hzw = ha(p, x, y), hb(q, y, z), ha(r, z, w)
                if not (hxy and hyz and hzw):
                    continue
                n_zw = num_a.ids(hzw)
                acted, rhs_of = _sides(ract, n_zw, _same), _sides(ract, n_zw, fix)
                for a1, n1 in zip(hxy, num_a.ids(hxy)):
                    act1 = lact[n1].__getitem__
                    for e, ne in zip(hyz, num_b.ids(hyz)):
                        n1e = act1(ne)
                        lhs = list(map(act1, acted(ne)))
                        yield from num_b.slab((a1, e), hzw, lhs, rhs_of(n1e), equal)

    return lact_comp(), ract_comp(), mixed()


class _Rows(dict):
    """(p, x, y, z) -> ``[fn(m, z) for m in hom(p, x, y)]``, built on first use."""

    def __init__(self, hom: Callable, fn: Callable):
        self.hom, self.fn = hom, fn

    def __missing__(self, pxyz):
        p, x, y, z = pxyz
        row = self[pxyz] = [self.fn(m, z) for m in self.hom(p, x, y)]
        return row


# A plain arrow or bimodule is the graded case with the one grade ``None``,
# whose structural regrades are identities.

def _one_grade(a) -> Callable:
    return lambda p, x, y: a.hom_cached(x, y)


def _no_regrade(*grades) -> Callable:
    return _same


def _assoc_regrade(g: GradedArrow, regrade: Callable, num: _Interned) -> Callable:
    """The ``fix_num`` of a graded arrow or bimodule; each iso numbered by identity."""
    op = _Op(regrade, _Interned(None, None, None), num, num)

    def fix(p, q, r):
        return op[op.left(g.grade_structural("assoc", (p, q, r)))].__getitem__

    return fix


def _assoc_trials(objs, grades, hom, num, comp, fix_num, equal):
    """The ``assoc`` trials of a (graded) arrow, by interned numbers.

    ``hom`` is as in ``_action_trials``; ``fix_num(p, q, r)`` maps the
    number of a member at grade (p q) r to that of its regrade to p (q r).
    Cases run grades first, then objects y, z, w, then x, then members
    m1, m2, m3; a slab is the m3 loop.
    """
    op, composites = _Op(comp, num, num, num), _Composites(comp, hom, num)
    for p, q, r in itertools.product(grades, repeat=3):
        fix_pqr = fix_num(p, q, r)
        for y, z, w in itertools.product(objs, repeat=3):
            hbc, hcd = hom(q, y, z), hom(r, z, w)
            if not (hbc and hcd):
                continue
            right = composites[((q, y, z), (r, z, w))]
            lhs_of = _sides(op, num.ids(hcd), fix_pqr)
            for x in objs:
                hab = hom(p, x, y)
                left = composites[((p, x, y), (q, y, z))]
                for m1, n1, row in zip(hab, num.ids(hab), left):
                    comp1 = op[n1].__getitem__
                    for m2, n12, right_row in zip(hbc, row, right):
                        rhs = list(map(comp1, right_row))
                        yield from num.slab((m1, m2), hcd, lhs_of(n12), rhs, equal)


def _commute_trials(objs, grades, hom, st, ls, comp, fix_member, equal):
    """The interchange trials of a (graded) arrow, each side strengthened
    once per spectator (``_Rows``); ``fix_member(p, q)`` regrades a member
    from grade p q to q p."""
    st, ls = _Rows(hom, st), _Rows(hom, ls)
    for p, q in itertools.product(grades, repeat=2):
        fix_pq = fix_member(p, q)
        for x, y, x2, y2 in itertools.product(objs, repeat=4):
            h1, h2 = hom(p, x, y), hom(q, x2, y2)
            if not (h1 and h2):
                continue
            ls_y, ls_x = ls[(q, x2, y2, y)], ls[(q, x2, y2, x)]
            for m1, m1_x2, m1_y2 in zip(h1, st[(p, x, y, x2)], st[(p, x, y, y2)]):
                for m2, m2_y, m2_x in zip(h2, ls_y, ls_x):
                    lhs = fix_pq(comp(m1_x2, m2_y))
                    rhs = comp(m2_x, m1_y2)
                    yield ((m1, m2), lhs, rhs, equal(lhs, rhs))


# -- arrow laws ---------------------------------------------------------------

def check_arrow_laws(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """Identity, associativity and functoriality of lifting; a keyless
    arrow costs memory in proportion to its ``assoc`` cases."""
    name = instance or a.name
    objs = a.objects

    def unit_trials():
        for x, y in itertools.product(objs, repeat=2):
            for m in a.hom_cached(x, y):
                lhs = a.comp(a.identity(x), m)
                yield ((m,), lhs, m, a.equal(lhs, m))
                rhs = a.comp(m, a.identity(y))
                yield ((m,), rhs, m, a.equal(rhs, m))

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
        _report("arrow.assoc", name, _assoc_trials(
            objs, [None], _one_grade(a), _Interned(a.key, a.src, a.dst), a.comp,
            _no_regrade, a.equal,
        ), equality),
        _report("arrow.pure-functor", name, pure_trials(), equality),
    ]


def check_strength(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """The four coherence equations of the strength.

    ``comp`` strengthens each member once per spectator (``_Rows`` at the
    one grade), for the life of one call; the composite and its
    strengthening still run per case.
    """
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
        st = _Rows(_one_grade(a), a.st)
        for x, y, z in itertools.product(objs, repeat=3):
            for i, m1 in enumerate(a.hom_cached(x, y)):
                for j, m2 in enumerate(a.hom_cached(y, z)):
                    m12 = a.comp(m1, m2)
                    for zo in objs:
                        lhs = a.st(m12, zo)
                        rhs = a.comp(st[(None, x, y, zo)][i], st[(None, y, z, zo)][j])
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
    """Interchange of the two tensor interleavings; only for flagged arrows.

    The sides are ``arrow_tensor`` and ``arrow_tensor_flipped``, chased by
    ``_commute_trials`` at the one grade, as ``graded.commute`` is.
    """
    if not a.commutative:
        return []
    trials = _commute_trials(
        a.objects, [None], _one_grade(a), a.st,
        lambda m, z: left_strength(a, m, z), a.comp, lambda p, q: lambda m: m, a.equal,
    )
    return [_report("arrow.commute", instance or a.name, trials, equality)]


# -- bimodule laws ------------------------------------------------------------

def _bim_left_strength(b: Bimodule, e, z):
    base = b.arrow.base
    x, y = b.src(e), b.dst(e)
    return b.dimap(base.sym(z, x), b.st(e, z), base.sym(y, z))


def check_bimodule(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Action, mixed-action and strength-compatibility laws of a bimodule.

    ``lact-comp``, ``ract-comp`` and ``mixed`` (``_action_trials``) number
    the arrow and bimodule members they meet (``_Interned``), run each real
    composite and action once per pair of numbers, and decide a case by
    comparing the numbers of its two sides, calling ``equal`` only when
    they differ; so ``key`` equality must imply ``equal``.  Reported inputs
    are the enumerated members themselves.
    """
    name = instance or b.name
    a = b.arrow
    objs = a.objects

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

    lact_comp, ract_comp, mixed = _action_trials(
        objs, [None], _one_grade(a), _one_grade(b), _Interned(a.key, a.src, a.dst),
        _Interned(b.key, b.src, b.dst), a.comp, b.lact, b.ract, _no_regrade,
        b.equal,
    )

    out = [
        _report("bimodule.lact-unit", name, lact_unit(), equality),
        _report("bimodule.lact-comp", name, lact_comp, equality),
        _report("bimodule.ract-unit", name, ract_unit(), equality),
        _report("bimodule.ract-comp", name, ract_comp, equality),
        _report("bimodule.mixed", name, mixed, equality),
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
                for x, y, x2, y2 in itertools.product(objs, repeat=4):
                    for a1 in a.hom_cached(x, y):
                        for e in b.hom_cached(x2, y2):
                            lhs = b.lact(a.st(a1, x2), _bim_left_strength(b, e, y))
                            rhs = b.ract(_bim_left_strength(b, e, x), a.st(a1, y2))
                            yield ((a1, e), lhs, rhs, b.equal(lhs, rhs))

            out.append(_report("bimodule.commute", name, commute(), equality))

    return out


def check_eqmonoid(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Monoid laws of the designated merge, and action preservation."""
    name = instance or b.name
    mon = b.monoid
    if mon is None:
        return []
    a = b.arrow
    objs = a.objects

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
            for x, y, x2, y2 in itertools.product(objs, repeat=4):
                for a1 in a.hom_cached(x, y):
                    for e in b.hom_cached(tens(y, x2), tens(x, y2)):
                        lhs = c.cst_left(b.lact(a.st(a1, x2), e), x2, y2, x)
                        rhs = c.cst_left(b.ract(e, a.st(a1, y2)), x2, y2, y)
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
    """Unit, associativity, regrade functoriality and naturality laws.

    ``assoc`` and ``commute`` share their chases, and so their case order,
    with ``arrow.assoc`` and ``arrow.commute``; ``assoc`` regrades each
    interned composite once, so ``key`` equality must imply ``equal``, and
    a keyless ``g`` costs memory in proportion to its ``assoc`` cases.
    The other laws run per case.
    """
    name = instance or g.name
    base, objs, grades = g.base, g.objects, g.grades
    gs = g.grade_structural
    hom = functools.cache(g.hom)

    def unit_trials():
        for p in grades:
            for x, y in itertools.product(objs, repeat=2):
                for e in hom(p, x, y):
                    lhs = g.regrade(gs("lunit", (p,)), g.gcomp(g.unit(base.id(x)), e))
                    yield ((e,), lhs, e, g.equal(lhs, e))
                    rhs = g.regrade(gs("runit", (p,)), g.gcomp(e, g.unit(base.id(y))))
                    yield ((e,), rhs, e, g.equal(rhs, e))

    def regrade_trials():
        for p in grades:
            for x, y in itertools.product(objs, repeat=2):
                for e in hom(p, x, y):
                    lhs = g.regrade(iso_id(p), e)
                    yield ((e,), lhs, e, g.equal(lhs, e))
        for p, q, r in itertools.product(grades, repeat=3):
            for phi in g.grade_isos(q, p):
                for chi in g.grade_isos(r, q):
                    composite = iso_comp(phi, chi)
                    for x, y in itertools.product(objs, repeat=2):
                        for e in hom(p, x, y):
                            lhs = g.regrade(composite, e)
                            rhs = g.regrade(chi, g.regrade(phi, e))
                            yield ((phi, chi, e), lhs, rhs, g.equal(lhs, rhs))

    def st_natural_trials():
        for p, q in itertools.product(grades, repeat=2):
            for phi in g.grade_isos(q, p):
                for x, y in itertools.product(objs, repeat=2):
                    for e in hom(p, x, y):
                        for z in objs:
                            lhs = g.st(g.regrade(phi, e), z)
                            rhs = g.regrade(phi, g.st(e, z))
                            yield ((phi, e, z), lhs, rhs, g.equal(lhs, rhs))

    def assoc_trials():
        num = _Interned(g.key, g.src, g.dst)
        fix_num = _assoc_regrade(g, g.regrade, num)
        return _assoc_trials(objs, grades, hom, num, g.gcomp, fix_num, g.equal)

    out = [
        _report("graded.unit", name, unit_trials(), equality),
        _report("graded.assoc", name, assoc_trials(), equality),
        _report("graded.regrade", name, regrade_trials(), equality),
        _report("graded.st-natural", name, st_natural_trials(), equality),
    ]

    if g.commutative:
        sym = lambda p, q: functools.partial(g.regrade, gs("sym", (p, q)))  # noqa: E731
        out.append(_report("graded.commute", name, _commute_trials(
            objs, grades, hom, g.st, lambda e, z: graded_left_strength(g, e, z),
            g.gcomp, sym, g.equal,
        ), equality))

    return out


def check_graded_bimodule(
    gb: GradedBimodule,
    objects: list,
    grades: list,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Graded action laws, with grade bookkeeping along structural regrades.

    ``lact-comp``, ``ract-comp`` and ``mixed`` go through the interned
    tables as in ``check_bimodule``, structural regrades included: ``key``
    equality must imply ``equal``.
    """
    name = instance or gb.name
    g = gb.arrow
    base = g.base
    gs = g.grade_structural
    hb = functools.cache(gb.hom)
    num_b = _Interned(gb.key, gb.src, gb.dst)

    def lact_unit():
        for q in grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in hb(q, x, y):
                    acted = gb.glact(g.unit(base.id(x)), e)
                    lhs = gb.regrade(gs("lunit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    def ract_unit():
        for q in grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in hb(q, x, y):
                    acted = gb.gract(e, g.unit(base.id(y)))
                    lhs = gb.regrade(gs("runit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    lact_comp, ract_comp, mixed = _action_trials(
        objects, grades, functools.cache(g.hom), hb, _Interned(g.key, g.src, g.dst),
        num_b, g.gcomp, gb.glact, gb.gract, _assoc_regrade(g, gb.regrade, num_b),
        gb.equal,
    )
    return [
        _report("gbim.lact-unit", name, lact_unit(), equality),
        _report("gbim.lact-comp", name, lact_comp, equality),
        _report("gbim.ract-unit", name, ract_unit(), equality),
        _report("gbim.ract-comp", name, ract_comp, equality),
        _report("gbim.mixed", name, mixed, equality),
    ]


# -- registered universes -----------------------------------------------------

def _arrow_laws(a: ArrowInstance, name: str, eq: str = "structural") -> list[LawReport]:
    return (
        check_arrow_laws(a, name, eq) + check_strength(a, name, eq)
        + check_commutativity(a, name, eq)
    )


def _lens_h(x: PairObj, y: PairObj) -> int:
    return (len(y.fwd) ** len(x.fwd)) * (len(x.bwd) ** (len(x.fwd) * len(y.bwd)))


def _cases3(objs: list, h: Callable, h_last: Callable | None = None) -> int:
    h_last = h_last or h
    quads = itertools.product(objs, repeat=4)
    return sum(h(x, y) * h(y, z) * h_last(z, w) for x, y, z, w in quads)


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

    hom = hom_arrow(SET, [UNIT, bit_set(size)], name="hom(set)")
    reports = _arrow_laws(hom, "hom(set)")
    reports += _arrow_laws(lens_arrow(atoms4), "lens")

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
    reports += _arrow_laws(fam_arrow, "fam(witheq(lens,bool))", fam_eq)

    para_arrow = para(lens_arrow(atoms2), [PAIR_I, j_obj])
    return reports + _arrow_laws(para_arrow, "para(lens)", "parameter-bijection")


def optic_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    est = _cases3(atoms3, _lens_h)
    _refuse_over(f"optic law suite at size {size}", est, budget)
    if size ** 3 > DEFAULT_RESIDUAL_CAP:
        raise SizeError(
            f"optic law suite at size {size}: triple composites reach residual "
            f"carriers of size {size ** 3}, over the residual cap of "
            f"{DEFAULT_RESIDUAL_CAP}; refusing (~{est} cases)"
        )

    return _arrow_laws(optic_arrow(atoms3), "optic(set)", "sliding-canonical form")


def bimodule_suite(size: int = 2, budget: int = CASE_BUDGET) -> list[LawReport]:
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    atoms2 = pair_atoms((size, 1), (1, size))

    est_ctx = _cases3(atoms3, _lens_h)  # action laws are cubic like assoc
    est_eq = _cases3(atoms2, _lens_h, _eq_h)
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
        context_count(big(x, z, w), big(y, z, w))
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
    inner = carrier_set_arrow(tw_objs)
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
        # request-independent backward passes only; any other pool would
        # change the probequib(lens) reports and perfbench/expected_laws.json
        g0 = all_funs(x.fwd, x.bwd)[0]
        bwd = FinFun.of(product(x.fwd, y.bwd), x.bwd, lambda t: g0(t[0]))
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
    if size < 1:
        raise ValueError(f"suite size must be at least 1, got {size}")
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


@dataclass(frozen=True)
class MutantResult:
    target: str
    failed: tuple  # sorted law ids that actually failed
    isolated: bool  # failed == (target,)


def run_mutants(targets: Iterable[str] | None = None) -> list[MutantResult]:
    """Run each planted mutant and record which laws it breaks."""
    from .mutants import MUTANTS  # here, so no other caller compiles the registry

    chosen = sorted(targets if targets is not None else MUTANTS)
    for target in chosen:
        if target not in MUTANTS:
            raise ValueError(f"unknown mutant target {target!r}; choose a law id")
    out = []
    for target in chosen:
        reports = MUTANTS[target]()
        failed = tuple(sorted({r.law for r in reports if r.status != "pass"}))
        out.append(MutantResult(target, failed, failed == (target,)))
    return out
