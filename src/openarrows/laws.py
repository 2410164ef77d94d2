"""Coherence law checking: exhaustive diagram chases over registered universes.

Every equation the library's structures promise is written once here, as a
quantified trial generator; the identity law of every structure is one
generator, ``_neutral_trials``, given the sides that compose, act or merge
a member with a unit.  Running a suite chases each diagram over a
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
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .arrow import ArrowInstance, hom_arrow, left_strength
from .base import PAIR, SET, PairObj, PAIR_I, bit_set, pair_atoms
from .bimodule import (
    Bimodule,
    CtxPair,
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
)
from .games import (
    ProbElement,
    RowElement,
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
from .lens import Lens, all_lenses, lens_arrow
from .optic import (
    DEFAULT_RESIDUAL_CAP,
    TwGrade,
    TwIso,
    lens_optic_context,
    optic_arrow,
    twisted_grading,
)
from .record import record

#: refuse any suite whose dominant law would chase more cases than this
CASE_BUDGET = 1_000_000


# -- reports -----------------------------------------------------------------

@record(frozen=True)
class LawReport:
    """Outcome of chasing one law over one registered instance."""

    law: str
    instance: str
    status: str  # "pass" | "fail"
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
    for trial in trials:
        if trial.__class__ is int:
            checked += trial
            continue
        checked += 1
        inputs, lhs, rhs, verdict = trial
        if not verdict:
            return LawReport(
                law,
                instance,
                "fail",
                checked,
                (tuple(_clip(i) for i in inputs), _clip(lhs), _clip(rhs)),
                equality,
            )
    return LawReport(law, instance, "pass", checked, None, equality)


# -- interned operation tables ------------------------------------------------
#
# Laws that chase composites and actions over whole hom sets meet the same
# operand pairs again and again.  Their checkers number every member they
# meet, run each real operation once per pair of numbers (``_Op``), and
# decide a case by comparing the numbers of its two sides, calling ``equal``
# only when they differ.  This needs "key-equal implies equal" of every
# keyed family, before and after each operation.  A slab, the inner member
# loops under one outer prefix, is decided by one ``==`` of its two lists of
# numbers, and replayed case by case only if they differ.  Every law that
# compares two bracketings of three operands is one chase,
# ``_nested_trials``, whose slab is the (v, w) block of each first operand.
# The strength and interchange chases number the sides of each block of
# objects in a table of the block's own (``_once``), freed with the block.

class _Interned:
    """Numbers the members of one family, one representative per class.

    Members with the same endpoints and the same ``key`` share a number; a
    key carries no endpoints, so the class adds ``m.src`` and ``m.dst``.  A
    family with no key is numbered by identity; ``reps`` holds each member,
    so no id is reused.
    """

    def __init__(self, key: Callable | None):
        self.key = key
        self.reps: list = []
        self._numbers: dict = {}
        self._lists: dict = {}

    def __call__(self, m) -> int:
        k = id(m) if self.key is None else (m.src, m.dst, self.key(m))
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

    def slab(self, inputs: Iterable, lhs: list, rhs: list, equal: Callable):
        """A slab's size if its numbers agree, else its cases in order, each
        with its inputs from ``inputs``."""
        if lhs == rhs:
            return (len(lhs),)
        return map(self.case, inputs, lhs, rhs, itertools.repeat(equal))


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


_same = operator.index  # the identity on numbers, mapped at C speed


def _sides(op: _Op, nums: list, fix: Callable) -> Callable:
    """n -> ``[fix(op[n][j]) for j in nums]``, built once per n: a slab side
    that varies with one number only, shared by every slab that meets it."""
    return functools.cache(lambda n: list(map(fix, map(op[n].__getitem__, nums))))


def _chain_blocks(objs, grades, hu, hv, hw, assoc) -> Iterator:
    """The blocks of three composable operands: for grades p, q, r, then
    objects x, y, z, w, ``(assoc(p, q, r), hu(p, x, y), hv(q, y, z),
    hw(r, z, w))``."""
    for p, q, r in itertools.product(grades, repeat=3):
        fix = assoc(p, q, r)
        for x, y, z, w in itertools.product(objs, repeat=4):
            yield fix, hu(p, x, y), hv(q, y, z), hw(r, z, w)


def _nested_trials(blocks: Iterable, inner_l: _Op, out_l: _Op, inner_r: _Op,
                   out_r: _Op, fixed_lhs: bool, equal: Callable) -> Iterator:
    """The one bracketing chase: ``fix(out_l(inner_l(u, v), w))`` against
    ``out_r(u, inner_r(v, w))``, the fixed side first if ``fixed_lhs``.

    ``blocks`` yields ``(fix, hu, hv, hw)``: a block's structural regrade,
    as a map on numbers, and the member lists u, v and w range over.  Each
    u's (v, w) block is a slab: one ``==`` of two lists of numbers, replayed
    case by case only when they differ, so cases run u, then v, then w.
    """
    num_u, num_v, num_w = inner_l.left, inner_l.right, out_l.right
    # the two bracketings read u, v and w, and land, in the same families
    assert (out_r.left, inner_r.left, inner_r.right) == (num_u, num_v, num_w)
    assert (out_l.left, out_r.right, out_r.out) == (inner_l.out, inner_r.out, out_l.out)
    for fix, hu, hv, hw in blocks:
        if not (hu and hv and hw):
            continue
        n_v, n_w = num_v.ids(hv), num_w.ids(hw)
        nested, inner = _sides(out_l, n_w, fix), _sides(inner_r, n_w, _same)
        block = [*itertools.chain(*map(inner, n_v))]
        for u, n in zip(hu, num_u.ids(hu)):
            fixed = [*itertools.chain(*map(nested, map(inner_l[n].__getitem__, n_v)))]
            other = [*map(out_r[n].__getitem__, block)]
            lhs, rhs = (fixed, other) if fixed_lhs else (other, fixed)
            yield from out_l.out.slab(itertools.product((u,), hv, hw), lhs, rhs, equal)


def _hom_blocks(objs, hom) -> Iterator:
    """The blocks of three operands in one hom: for objects x, y, no
    regrade and ``hom(x, y)`` three times."""
    for x, y in itertools.product(objs, repeat=2):
        h = hom(x, y)
        yield _same, h, h, h


def _assoc_trials(blocks: Iterable, num: _Interned, op: Callable, equal: Callable):
    """Associativity of one operation: the bracketing chase with all four
    operations read from one table of ``op``.  A (graded) arrow's is
    ``lact-comp`` of the arrow acting on itself."""
    table = _Op(op, num, num, num)
    return _nested_trials(blocks, table, table, table, table, True, equal)


def _action_trials(objs, grades, ha, hb, num_a, num_b, comp, lact, ract, assoc, equal):
    """The ``lact-comp``, ``ract-comp`` and ``mixed`` trials of a (graded)
    bimodule, each one bracketing chase (``_nested_trials``).

    ``ha(p, x, y)`` and ``hb(p, x, y)`` list the arrow's and the bimodule's
    members at grade ``p``, the same list on every call; a plain bimodule
    has the one grade ``None``.  ``assoc(p, q, r)`` maps the number of a
    bimodule member at grade (p q) r to that of its regrade to p (q r).
    Composites and actions are ``_Op`` tables, shared by the laws that use
    them.
    """
    comp = _Op(comp, num_a, num_a, num_a)
    lact, ract = _Op(lact, num_a, num_b, num_b), _Op(ract, num_b, num_a, num_b)
    return (
        _nested_trials(_chain_blocks(objs, grades, ha, ha, hb, assoc),
                       comp, lact, lact, lact, True, equal),
        _nested_trials(_chain_blocks(objs, grades, hb, ha, ha, assoc),
                       ract, ract, comp, ract, False, equal),
        _nested_trials(_chain_blocks(objs, grades, ha, hb, ha, assoc),
                       lact, ract, ract, lact, False, equal),
    )


class _Strong(dict):
    """z -> the row ``n -> number of fn(num.reps[n], z)``: a strength ``fn``
    run once per (number, spectator) over the members ``hom(p, x, y)`` lists."""

    def __init__(self, hom: Callable, num: _Interned, fn: Callable):
        self.hom, self.num, self.fn = hom, num, fn

    def __missing__(self, z):
        fn = self.fn
        row = self[z] = _Row(lambda z, m: fn(m, z), z, self.num, self.num)
        return row


# A plain arrow or bimodule is the graded case with the one grade ``None``,
# whose structural regrades are identities.

def _one_grade(a) -> Callable:
    return lambda p, x, y: a.hom_cached(x, y)


def _no_regrade(*grades) -> Callable:
    return _same


def _assoc_regrade(g: GradedArrow, regrade: Callable, num: _Interned) -> Callable:
    """The ``fix_num`` of a graded arrow or bimodule; each iso numbered by identity."""
    op = _Op(regrade, _Interned(None), num, num)

    def fix(p, q, r):
        return op[op.left(g.grade_structural("assoc", (p, q, r)))].__getitem__

    return fix


def _neutral_trials(grades, objs, hom: Callable, equal: Callable, *sides: Callable):
    """The identity laws: for each member ``e`` of ``hom(p, x, y)``, one
    trial per side, ``side(p, x, y, e)`` against ``e``.  A plain arrow or
    bimodule has the one grade ``None``."""
    for p in grades:
        for x, y in itertools.product(objs, repeat=2):
            for e in hom(p, x, y):
                for side in sides:
                    lhs = side(p, x, y, e)
                    yield ((e,), lhs, e, equal(lhs, e))


def _once(blocks: Iterable, num: _Interned, chase: Callable, equal: Callable):
    """The slab of each block of objects (and grades): ``chase(fin, *block)``
    gives its ``(inputs, lhs, rhs)``, the sides numbered in ``fin``, a table
    of ``num``'s family for this block alone.  Equal blocks list the same
    members, so a block met again only counts its cases."""
    done: dict = {}
    for block in blocks:
        if block in done:
            yield done[block]
            continue
        fin = _Interned(num.key)
        inputs, lhs, rhs = chase(fin, *block)
        done[block] = len(lhs)
        yield from fin.slab(inputs, lhs, rhs, equal)


def _commute_trials(objs, grades, st: _Strong, ls: _Strong, op1, op2, fix, equal):
    """The interchange trials of a (graded) arrow or a bimodule: for m1 in
    ``st.hom`` and m2 in ``ls.hom``, ``op1(st(m1, x2), ls(m2, y))`` regraded
    by ``fix(p, q)`` from grade p q to q p, against
    ``op2(ls(m2, x), st(m1, y2))``, both in ``ls``'s family.  Members are
    strengthened once per (number, spectator), and the (m1, m2) block of
    each object quadruple is decided by one ``==``."""

    def chase(fin, p, q, x, y, x2, y2):
        h1, h2, fix_pq = st.hom(p, x, y), ls.hom(q, x2, y2), fix(p, q)
        n1, n2 = st.num.ids(h1), ls.num.ids(h2)
        s_reps, l_reps = st.num.reps, ls.num.reps
        l_y, l_x = [l_reps[ls[y][n]] for n in n2], [l_reps[ls[x][n]] for n in n2]
        lhs = [fin(fix_pq(op1(s_reps[st[x2][i]], m))) for i in n1 for m in l_y]
        rhs = [fin(op2(m, s_reps[st[y2][i]])) for i in n1 for m in l_x]
        return itertools.product(h1, h2), lhs, rhs

    blocks = itertools.product(grades, grades, objs, objs, objs, objs)
    return _once(blocks, ls.num, chase, equal)


def _strength_trials(objs, f1: _Strong, f2: _Strong, out: _Strong, op, equal):
    """``st(op(m1, m2), z)`` against ``op(st1(m1, z), st2(m2, z))``, m1 in
    ``f1.hom`` and m2 in ``f2.hom`` at the one grade: strength distributes
    over a composite or an action landing in ``out``'s family.  Operands
    are strengthened once per (number, spectator), each block's composites
    once per number, and the (m1, m2, z) block of each object triple is
    decided by one ``==``."""
    r1, r2 = f1.num.reps, f2.num.reps

    def chase(fin, x, y, z):
        h1, h2 = f1.hom(None, x, y), f2.hom(None, y, z)
        n1, n2, o_st = f1.num.ids(h1), f2.num.ids(h2), _Strong(None, fin, out.fn)
        pads = [(o_st[zo], f1[zo], f2[zo]) for zo in objs]
        ops = [fin(op(m1, m2)) for m1 in h1 for m2 in h2]
        lhs = [s[k] for k in ops for s, _, _ in pads]
        rhs = [fin(op(r1[p[i]], r2[q[j]])) for i in n1 for j in n2 for _, p, q in pads]
        return itertools.product(h1, h2, objs), lhs, rhs

    return _once(itertools.product(objs, repeat=3), out.num, chase, equal)


# -- arrow laws ---------------------------------------------------------------

def check_arrow_laws(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """Identity, associativity and functoriality of lifting; a keyless
    arrow costs memory in proportion to its ``assoc`` cases."""
    name = instance or a.name
    objs = a.objects
    hom = _one_grade(a)

    def pure_trials():
        base = a.base
        for x, y, z in itertools.product(objs, repeat=3):
            for f in base.morphisms(x, y):
                for g in base.morphisms(y, z):
                    lhs = a.pure(base.compose(f, g))
                    rhs = a.comp(a.pure(f), a.pure(g))
                    yield ((f, g), lhs, rhs, a.equal(lhs, rhs))

    return [
        _report("arrow.unit", name, _neutral_trials(
            [None], objs, hom, a.equal,
            lambda p, x, y, m: a.comp(a.identity(x), m),
            lambda p, x, y, m: a.comp(m, a.identity(y)),
        ), equality),
        _report("arrow.assoc", name, _assoc_trials(
            _chain_blocks(objs, [None], hom, hom, hom, _no_regrade), _Interned(a.key),
            a.comp, a.equal,
        ), equality),
        _report("arrow.pure-functor", name, pure_trials(), equality),
    ]


def check_strength(
    a: ArrowInstance, instance: str | None = None, equality: str = "structural"
) -> list[LawReport]:
    """The four coherence equations of the strength, and ``arrow.commute``
    for a commutative arrow.

    ``unit``, ``assoc`` and ``comp`` decide each block of objects by one
    ``==`` of the numbers of its sides, a block met again by its count
    (``_once``); members are strengthened once per (number, spectator) and
    each ``dimap``'s lifts built once per block, so ``key`` equality must
    imply ``equal``, before and after ``st``.  ``comp`` is
    ``_strength_trials`` over the arrow's own composition.  ``commute``
    interchanges ``arrow_tensor`` and ``arrow_tensor_flipped`` through
    ``_commute_trials`` at the one grade, as ``graded.commute`` does, and
    reuses the numbers and strengthened rows of ``assoc`` and ``comp``.
    """
    name = instance or a.name
    base, objs = a.base, a.objects
    num = _Interned(a.key)
    st = _Strong(_one_grade(a), num, a.st)

    def unit(fin, x, y):
        hom = a.hom_cached(x, y)
        pre, post = a.pure(base.runit(x)), a.pure(base.inv(base.runit(y)))
        lhs = [fin(a.st(m, base.unit)) for m in hom]
        return zip(hom), lhs, [fin(a.comp(a.comp(pre, m), post)) for m in hom]

    def assoc(fin, x, y, z, zp):
        hom, st_z, zzp = a.hom_cached(x, y), st[z], base.tensor(z, zp)
        pre, post = a.pure(base.assoc(x, z, zp)), a.pure(base.inv(base.assoc(y, z, zp)))
        lhs = [fin(a.st(num.reps[st_z[n]], zp)) for n in num.ids(hom)]
        rhs = [fin(a.comp(a.comp(pre, a.st(m, zzp)), post)) for m in hom]
        return itertools.product(hom, [z], [zp]), lhs, rhs

    def pure_trials():
        for x, y in itertools.product(objs, repeat=2):
            for f in base.morphisms(x, y):
                for z in objs:
                    lhs = a.st(a.pure(f), z)
                    rhs = a.pure(base.tensor_mor(f, base.id(z)))
                    yield ((f, z), lhs, rhs, a.equal(lhs, rhs))

    out = [
        _report("strength.unit", name, _once(
            itertools.product(objs, repeat=2), num, unit, a.equal), equality),
        _report("strength.assoc", name, _once(
            itertools.product(objs, repeat=4), num, assoc, a.equal), equality),
        _report("strength.pure", name, pure_trials(), equality),
        _report("strength.comp", name, _strength_trials(
            objs, st, st, st, a.comp, a.equal
        ), equality),
    ]

    if a.commutative:
        ls = _Strong(st.hom, num, functools.partial(left_strength, a))
        out.append(_report("arrow.commute", name, _commute_trials(
            objs, [None], st, ls, a.comp, a.comp, lambda p, q: lambda m: m, a.equal,
        ), equality))

    return out


# -- bimodule laws ------------------------------------------------------------

def _bim_left_strength(b: Bimodule, e, z):
    base = b.arrow.base
    return b.dimap(base.sym(z, e.src), b.st(e, z), base.sym(e.dst, z))


def check_bimodule(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Action, mixed-action and strength-compatibility laws of a bimodule.

    ``lact-comp``, ``ract-comp`` and ``mixed`` (``_action_trials``) are
    bracketing chases (``_nested_trials``): they number the arrow and
    bimodule members they meet (``_Interned``), run each real composite and
    action once per pair of numbers, and decide the (v, w) block of each
    first operand by one ``==`` of the numbers of its two sides, calling
    ``equal`` only on a case whose numbers differ; so ``key`` equality must
    imply ``equal``.  Reported inputs are the enumerated members
    themselves.  ``lact-st``, ``ract-st`` and ``commute`` decide a block of
    objects at a time, as ``strength.comp``.
    """
    name = instance or b.name
    a = b.arrow
    objs = a.objects

    hb = _one_grade(b)
    lact_comp, ract_comp, mixed = _action_trials(
        objs, [None], _one_grade(a), hb, _Interned(a.key),
        _Interned(b.key), a.comp, b.lact, b.ract, _no_regrade, b.equal,
    )

    out = [
        _report("bimodule.lact-unit", name, _neutral_trials(
            [None], objs, hb, b.equal, lambda p, x, y, e: b.lact(a.identity(x), e),
        ), equality),
        _report("bimodule.lact-comp", name, lact_comp, equality),
        _report("bimodule.ract-unit", name, _neutral_trials(
            [None], objs, hb, b.equal, lambda p, x, y, e: b.ract(e, a.identity(y)),
        ), equality),
        _report("bimodule.ract-comp", name, ract_comp, equality),
        _report("bimodule.mixed", name, mixed, equality),
    ]

    if b.st is not None:
        st_a = _Strong(_one_grade(a), _Interned(a.key), a.st)
        st_b = _Strong(_one_grade(b), _Interned(b.key), b.st)
        out.append(_report("bimodule.lact-st", name, _strength_trials(
            objs, st_a, st_b, st_b, b.lact, b.equal
        ), equality))
        out.append(_report("bimodule.ract-st", name, _strength_trials(
            objs, st_b, st_a, st_b, b.ract, b.equal
        ), equality))
        if b.commutative:
            ls_b = functools.partial(_bim_left_strength, b)
            out.append(_report("bimodule.commute", name, _commute_trials(
                objs, [None], st_a, _Strong(_one_grade(b), st_b.num, ls_b), b.lact,
                b.ract, lambda p, q: lambda m: m, b.equal,
            ), equality))

    return out


def check_eqmonoid(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Monoid laws of the designated merge, and action preservation.

    ``m-assoc`` is a bracketing chase (``_nested_trials``) over each
    ``hom(x, y)``: each merge runs once per pair of numbers, so ``key``
    equality must imply equality, before and after ``m``.  The other laws
    run per case, the identity law through ``_neutral_trials``.
    """
    name = instance or b.name
    if b.m is None:
        return []
    a = b.arrow
    objs = a.objects
    e0 = functools.cache(b.e)  # tabulated once per pair of objects

    def m_commute():
        for x, y in itertools.product(objs, repeat=2):
            hom = b.hom_cached(x, y)
            for e1, e2 in itertools.product(hom, repeat=2):
                lhs = b.m(e1, e2)
                rhs = b.m(e2, e1)
                yield ((e1, e2), lhs, rhs, b.equal(lhs, rhs))

    def lact_e():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(x, y):
                lhs = b.lact(a1, b.e(y, z))
                rhs = b.e(x, z)
                yield ((a1,), lhs, rhs, b.equal(lhs, rhs))

    def lact_m():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(x, y):
                hom = b.hom_cached(y, z)
                for e1, e2 in itertools.product(hom, repeat=2):
                    lhs = b.lact(a1, b.m(e1, e2))
                    rhs = b.m(b.lact(a1, e1), b.lact(a1, e2))
                    yield ((a1, e1, e2), lhs, rhs, b.equal(lhs, rhs))

    def ract_e():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(y, z):
                lhs = b.ract(b.e(x, y), a1)
                rhs = b.e(x, z)
                yield ((a1,), lhs, rhs, b.equal(lhs, rhs))

    def ract_m():
        for x, y, z in itertools.product(objs, repeat=3):
            for a1 in a.hom_cached(y, z):
                hom = b.hom_cached(x, y)
                for e1, e2 in itertools.product(hom, repeat=2):
                    lhs = b.ract(b.m(e1, e2), a1)
                    rhs = b.m(b.ract(e1, a1), b.ract(e2, a1))
                    yield ((a1, e1, e2), lhs, rhs, b.equal(lhs, rhs))

    return [
        _report("eqmonoid.m-unit", name, _neutral_trials(
            [None], objs, _one_grade(b), b.equal,
            lambda p, x, y, e: b.m(e0(x, y), e),
            lambda p, x, y, e: b.m(e, e0(x, y)),
        ), equality),
        _report("eqmonoid.m-assoc", name, _assoc_trials(
            _hom_blocks(objs, b.hom_cached), _Interned(b.key), b.m, b.equal,
        ), equality),
        _report("eqmonoid.m-commute", name, m_commute(), equality),
        _report("eqmonoid.lact-e", name, lact_e(), equality),
        _report("eqmonoid.lact-m", name, lact_m(), equality),
        _report("eqmonoid.ract-e", name, ract_e(), equality),
        _report("eqmonoid.ract-m", name, ract_m(), equality),
    ]


# -- context (costrength) laws ------------------------------------------------

def check_context(
    b: Bimodule,
    instance: str | None = None,
    equality: str = "structural",
    objects: list | None = None,
) -> list[LawReport]:
    """Spectator-absorption coherence of a context's costrength ``b.cst``."""
    a = b.arrow
    base = a.base
    name = instance or b.name
    objs = objects if objects is not None else a.objects
    tens = base.tensor

    def unit_trials():
        for x, y in itertools.product(objs, repeat=2):
            pre, post = a.pure(base.inv(base.runit(x))), a.pure(base.runit(y))
            for e in b.hom_cached(tens(x, base.unit), tens(y, base.unit)):
                lhs = b.cst(e, x, y, base.unit)
                rhs = b.ract(b.lact(pre, e), post)
                yield ((e,), lhs, rhs, b.equal(lhs, rhs))

    def assoc_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            xz, yz, zw = tens(x, z), tens(y, z), tens(z, w)
            pre = a.pure(base.inv(base.assoc(x, z, w)))
            post = a.pure(base.assoc(y, z, w))
            # walked once, so not kept: the three-factor homs dwarf the rest
            for e in b.hom(tens(xz, w), tens(yz, w)):
                lhs = b.cst(b.cst(e, xz, yz, w), x, y, z)
                rhs = b.cst(b.ract(b.lact(pre, e), post), x, y, zw)
                yield ((e, z, w), lhs, rhs, b.equal(lhs, rhs))

    def lact_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(x, y):
                padded = a.st(a1, w)
                for e in b.hom_cached(tens(y, w), tens(z, w)):
                    lhs = b.cst(b.lact(padded, e), x, z, w)
                    rhs = b.lact(a1, b.cst(e, y, z, w))
                    yield ((a1, e, w), lhs, rhs, b.equal(lhs, rhs))

    def ract_trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(y, z):
                padded = a.st(a1, w)
                for e in b.hom_cached(tens(x, w), tens(y, w)):
                    lhs = b.cst(b.ract(e, padded), x, z, w)
                    rhs = b.ract(b.cst(e, x, y, w), a1)
                    yield ((e, a1, w), lhs, rhs, b.equal(lhs, rhs))

    out = [
        _report("costrength.unit", name, unit_trials(), equality),
        _report("costrength.assoc", name, assoc_trials(), equality),
        _report("costrength.lact", name, lact_trials(), equality),
        _report("costrength.ract", name, ract_trials(), equality),
    ]

    if b.commutative:
        def cst_left(e, x_obj, y_obj, z_obj):
            # strip a factor on the left by conjugating with the symmetry
            moved = b.dimap(base.sym(x_obj, z_obj), e, base.sym(z_obj, y_obj))
            return b.cst(moved, x_obj, y_obj, z_obj)

        def mixed_trials():
            for x, y, x2, y2 in itertools.product(objs, repeat=4):
                for a1 in a.hom_cached(x, y):
                    for e in b.hom_cached(tens(y, x2), tens(x, y2)):
                        lhs = cst_left(b.lact(a.st(a1, x2), e), x2, y2, x)
                        rhs = cst_left(b.ract(e, a.st(a1, y2)), x2, y2, y)
                        yield ((a1, e), lhs, rhs, b.equal(lhs, rhs))

        out.append(_report("costrength.mixed", name, mixed_trials(), equality))

    return out


# -- graded laws --------------------------------------------------------------

def _default_iso_comp(phi, chi):
    # chi : r -> q after phi : q -> p, diagrammatically r -> p
    return fun_compose(chi, phi)


def check_graded(
    g: GradedArrow,
    instance: str | None = None,
    equality: str = "structural",
    iso_id: Callable = FinFun.identity,
    iso_comp: Callable = _default_iso_comp,
) -> list[LawReport]:
    """Unit, associativity, regrade functoriality and naturality laws.

    ``assoc`` and ``commute`` share their chases, and so their case order,
    with ``arrow.assoc`` and ``arrow.commute``: both go by interned numbers,
    so ``key`` equality must imply ``equal``, also after ``st``, and a
    keyless ``g`` costs memory in proportion to its ``assoc`` cases.
    ``unit``, ``regrade`` and ``st-natural`` run per case, ``unit`` and the
    identity cases of ``regrade`` through ``_neutral_trials``.
    """
    name = instance or g.name
    base, objs, grades = g.base, g.objects, g.grades
    gs = g.grade_structural
    hom = functools.cache(g.hom)

    def regrade_trials():
        yield from _neutral_trials(
            grades, objs, hom, g.equal, lambda p, x, y, e: g.regrade(iso_id(p), e)
        )
        for p, q, r in itertools.product(grades, repeat=3):
            for phi in g.grade_isos(q, p):
                for chi in g.grade_isos(r, q):
                    composite = iso_comp(phi, chi)
                    for x, y in itertools.product(objs, repeat=2):
                        for e in hom(p, x, y):
                            lhs = g.regrade(composite, e)
                            rhs = g.regrade(chi, g.regrade(phi, e))
                            yield ((phi, chi, e), lhs, rhs, g.equal(lhs, rhs))

    def assoc_trials():
        num = _Interned(g.key)
        fix = _assoc_regrade(g, g.regrade, num)
        return _assoc_trials(_chain_blocks(objs, grades, hom, hom, hom, fix), num,
                             g.gcomp, g.equal)

    def st_natural_trials():
        for p, q in itertools.product(grades, repeat=2):
            for phi in g.grade_isos(q, p):
                for x, y in itertools.product(objs, repeat=2):
                    for e in hom(p, x, y):
                        for z in objs:
                            lhs = g.st(g.regrade(phi, e), z)
                            rhs = g.regrade(phi, g.st(e, z))
                            yield ((phi, e, z), lhs, rhs, g.equal(lhs, rhs))

    out = [
        _report("graded.unit", name, _neutral_trials(
            grades, objs, hom, g.equal,
            lambda p, x, y, e: g.regrade(
                gs("lunit", (p,)), g.gcomp(g.unit(base.id(x)), e)
            ),
            lambda p, x, y, e: g.regrade(
                gs("runit", (p,)), g.gcomp(e, g.unit(base.id(y)))
            ),
        ), equality),
        _report("graded.assoc", name, assoc_trials(), equality),
        _report("graded.regrade", name, regrade_trials(), equality),
        _report("graded.st-natural", name, st_natural_trials(), equality),
    ]

    if g.commutative:
        sym = lambda p, q: functools.partial(g.regrade, gs("sym", (p, q)))  # noqa: E731
        st = _Strong(hom, _Interned(g.key), g.st)
        ls = _Strong(hom, st.num, functools.partial(graded_left_strength, g))
        out.append(_report("graded.commute", name, _commute_trials(
            objs, grades, st, ls, g.gcomp, g.gcomp, sym, g.equal,
        ), equality))

    return out


def check_graded_bimodule(
    gb: GradedBimodule,
    instance: str | None = None,
    equality: str = "structural",
) -> list[LawReport]:
    """Graded action laws, with grade bookkeeping along structural regrades.

    ``lact-comp``, ``ract-comp`` and ``mixed`` are the bracketing chases
    of ``check_bimodule``, each regraded along the structural ``assoc`` of
    its block's grades, which is numbered too: ``key`` equality must imply
    ``equal``, also after ``regrade``.
    """
    name = instance or gb.name
    g = gb.arrow
    base, objects, grades = g.base, g.objects, g.grades
    gs = g.grade_structural
    hb = functools.cache(gb.hom)
    num_b = _Interned(gb.key)

    lact_comp, ract_comp, mixed = _action_trials(
        objects, grades, functools.cache(g.hom), hb, _Interned(g.key),
        num_b, g.gcomp, gb.glact, gb.gract, _assoc_regrade(g, gb.regrade, num_b),
        gb.equal,
    )
    return [
        _report("gbim.lact-unit", name, _neutral_trials(
            grades, objects, hb, gb.equal,
            lambda q, x, y, e: gb.regrade(
                gs("lunit", (q,)), gb.glact(g.unit(base.id(x)), e)
            ),
        ), equality),
        _report("gbim.lact-comp", name, lact_comp, equality),
        _report("gbim.ract-unit", name, _neutral_trials(
            grades, objects, hb, gb.equal,
            lambda q, x, y, e: gb.regrade(
                gs("runit", (q,)), gb.gract(e, g.unit(base.id(y)))
            ),
        ), equality),
        _report("gbim.ract-comp", name, ract_comp, equality),
        _report("gbim.mixed", name, mixed, equality),
    ]


# -- registered universes -----------------------------------------------------

def _arrow_laws(a: ArrowInstance, name: str, eq: str = "structural") -> list[LawReport]:
    return check_arrow_laws(a, name, eq) + check_strength(a, name, eq)


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
    weq = with_eq(lens3, ctx_of_arrow(lens3), BOOL_AND)
    reports += check_arrow_laws(weq, "witheq(lens,bool)")

    # strength laws tabulate values over tensored contexts, which is much
    # costlier per trial; quantify them over the two-object universe
    lens2 = lens_arrow(atoms2)
    weq2 = with_eq(lens2, ctx_of_arrow(lens2), BOOL_AND)
    reports += check_strength(weq2, "witheq(lens,bool)")

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
    ctx3 = ctx_of_arrow(lens3)
    reports += check_bimodule(ctx3, "ctx(lens)")

    lens2 = lens_arrow(atoms2)
    ctx2 = ctx_of_arrow(lens2)
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
    ctx3 = ctx_of_arrow(lens3)
    reports += check_context(ctx3, "ctx(lens)")

    lens2 = lens_arrow(atoms2)
    octx = lens_optic_context(lens2, residuals)
    eq = "sliding-canonical form"
    reports += check_bimodule(octx, "opticctx(lens)", eq)
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
    tw_grades = [
        TwGrade(FinFun.identity(UNIT)),
        TwGrade(FinFun.identity(bit)),
        TwGrade(FinFun.of(bit, bit, lambda _j: 0)),
    ]
    tw = twisted_grading(tw_objs, tw_grades, member_pool=_truncated(all_funs, 2))
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
        lens_arrow(gobjs), grades2, member_pool=_truncated(all_lenses, 2)
    )

    def br_elements(grade, x, y):
        x0 = x.fwd.elements[0]
        # rows[True]: the second profile comes no earlier than the first;
        # rows[False]: it comes strictly earlier.  The second element
        # reads rows[True] at contexts starting at x0, rows[False] elsewhere.
        rows = {
            flip: frozenset(
                (p1, p2) for p1, p2 in itertools.product(grade, repeat=2)
                if (grade.index(p2) >= grade.index(p1)) == flip
            )
            for flip in (True, False)
        }
        return [
            RowElement(x, y, grade, lambda c: rows[True]),
            RowElement(x, y, grade, lambda c: rows[c.state == x0]),
        ]

    def two_contexts(x, y):
        k = all_funs(y.fwd, y.bwd)[0]
        return [CtxPair(y, x, p, k) for p in x.fwd.elements[:2]]

    br = best_resp_bimodule(glens, br_elements, two_contexts)
    reports += check_graded_bimodule(
        br, "bestresp(lens)",
        "pointwise over registered contexts",
    )

    def ri_lenses(x, y):
        # request-independent backward passes only; any other pool would
        # change the probequib(lens) reports and perfbench/expected_laws.json
        g0 = all_funs(x.fwd, x.bwd)[0]
        bwd = FinFun.of(product(x.fwd, y.bwd), x.bwd, lambda t: g0(t[0]))
        return [Lens(x, y, f, bwd) for f in all_funs(x.fwd, y.fwd)[:2]]

    pglens = grade_by_param(lens_arrow(gobjs), grades2, member_pool=ri_lenses)

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

    def pr_dists(grade):
        n = len(grade)
        out = [dist_pure(grade.elements[0])]
        if n > 1:
            out.append(dist_pure(grade.elements[-1]))
            out.append(Dist([(j, Fraction(1, n)) for j in grade.elements]))
        return out

    pr = prob_bimodule(pglens, pr_elements, two_contexts, pr_dists)
    reports += check_graded_bimodule(
        pr, "probequib(lens)",
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


@record(frozen=True)
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
