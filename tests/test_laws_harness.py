"""The law harness itself: manifest coverage, refusals, and planted defects."""

from __future__ import annotations

import gc
import itertools

import pytest

from openarrows import laws, mutants
from openarrows.arrow import arrow_tensor, arrow_tensor_flipped, dimap, hom_arrow
from openarrows.base import PAIR, PAIR_I, SET, PairObj, bit_set, pair_atoms
from openarrows.bimodule import EqFun, ctx_of_arrow, eq_from_context, with_eq
from openarrows.finset import (
    BOOL_AND,
    UNIT,
    WITNESSES,
    DomainError,
    FinFun,
    FinSet,
    all_funs,
)
from openarrows.games import GAME_CTX, RowElement, best_resp_bimodule, row_bimodule
from openarrows.grading import (
    GradedPairMor,
    ParaMor,
    SizeError,
    fam,
    grade_by_param,
    graded_left_strength,
    graded_product,
    hide,
    para,
)
from openarrows.laws import LAWS, run_mutants, run_suite
from openarrows.lens import all_lenses, lens_arrow
from openarrows.optic import (
    lens_optic_context,
    optic_arrow,
    twisted_grading,
)
from openarrows.record import replace


def test_manifest_covers_every_emittable_law():
    emitted = {
        r.law for suite in laws.SUITE_NAMES for r in run_suite(suite, 1)
    }
    for thunk in mutants.MUTANTS.values():
        emitted |= {r.law for r in thunk()}
    assert emitted == set(LAWS)
    assert set(mutants.MUTANTS) == set(LAWS)


def test_reports_carry_known_ids_and_statuses():
    for r in run_suite("optic"):
        assert r.law in LAWS
        assert r.status in ("pass", "fail")
        assert r.checked > 0


def test_every_mutant_fails_exactly_its_target():
    for result in run_mutants():
        assert result.failed == (result.target,), (
            f"mutant for {result.target} broke {result.failed}"
        )
        assert result.isolated


@pytest.mark.parametrize("size", [1, 2])
def test_context_laws_keep_no_three_factor_hom(size):
    # costrength.assoc walks Ctx((x (x) z) (x) w, (y (x) z) (x) w) once per
    # (x, y, z, w); those lists dwarf every other hom, so none is kept
    atoms = pair_atoms((1, 1), (size, 1), (1, size))
    lens = lens_arrow(atoms)
    ctx = ctx_of_arrow(lens)
    reports = laws.check_context(ctx, "ctx(lens)")
    want = [r for r in run_suite("context", size) if r.instance == "ctx(lens)"]
    assert sorted(reports, key=lambda r: r.law) == want
    three = {
        PAIR.tensor(PAIR.tensor(x, z), w)
        for x, z, w in itertools.product(atoms, repeat=3)
    }
    for cache in (ctx._hom_cache, lens._hom_cache):
        assert cache
        assert not any(x in three or y in three for x, y in cache)


def test_suite_results_are_cached():
    a = run_suite("optic")
    assert run_suite("optic") is a


@pytest.mark.parametrize("suite", ["arrow", "bimodule", "graded", "optic"])
def test_oversized_suites_are_refused_with_estimates(suite):
    with pytest.raises(SizeError) as exc:
        run_suite(suite, size=5)
    assert "refus" in str(exc.value) or "cap" in str(exc.value)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_unknown_mutant_target_is_rejected_by_name():
    with pytest.raises(ValueError, match="'nope'"):
        run_mutants(["arrow.unit", "nope"])


@pytest.mark.parametrize("suite", laws.SUITE_NAMES)
@pytest.mark.parametrize("size", [0, -1])
def test_sizes_below_one_are_refused(suite, size):
    with pytest.raises(ValueError, match=f"at least 1, got {size}$"):
        run_suite(suite, size=size)


# -- interned operation tables agree with per-case chasing ---------------------
#
# The reference trials below run every real composite and action afresh for
# every case and decide it with ``equal``.  The checkers, which number
# members and run each operation once per pair, must agree with them on
# every field of every report.

_INTERNED_BIMODULE_LAWS = ("bimodule.lact-comp", "bimodule.ract-comp", "bimodule.mixed")


def _reference_bimodule(b, name):
    a = b.arrow
    objs = a.objects

    def lact_comp():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(x, y):
                for a2 in a.hom_cached(y, z):
                    a12 = a.comp(a1, a2)
                    for e in b.hom_cached(z, w):
                        lhs = b.lact(a12, e)
                        rhs = b.lact(a1, b.lact(a2, e))
                        yield ((a1, a2, e), lhs, rhs, b.equal(lhs, rhs))

    def ract_comp():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for e in b.hom_cached(x, y):
                for a1 in a.hom_cached(y, z):
                    for a2 in a.hom_cached(z, w):
                        lhs = b.ract(e, a.comp(a1, a2))
                        rhs = b.ract(b.ract(e, a1), a2)
                        yield ((e, a1, a2), lhs, rhs, b.equal(lhs, rhs))

    def mixed():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(x, y):
                for e in b.hom_cached(y, z):
                    for a2 in a.hom_cached(z, w):
                        lhs = b.lact(a1, b.ract(e, a2))
                        rhs = b.ract(b.lact(a1, e), a2)
                        yield ((a1, e, a2), lhs, rhs, b.equal(lhs, rhs))

    trials = (lact_comp(), ract_comp(), mixed())
    return [
        laws._report(law, name, t, "structural")
        for law, t in zip(_INTERNED_BIMODULE_LAWS, trials)
    ]


def _reference_assoc(a, name):
    objs = a.objects

    def trials():
        for x, y, z, w in itertools.product(objs, repeat=4):
            for m1 in a.hom_cached(x, y):
                for m2 in a.hom_cached(y, z):
                    for m3 in a.hom_cached(z, w):
                        lhs = a.comp(a.comp(m1, m2), m3)
                        rhs = a.comp(m1, a.comp(m2, m3))
                        yield ((m1, m2, m3), lhs, rhs, a.equal(lhs, rhs))

    return laws._report("arrow.assoc", name, trials(), "structural")


def _checked_bimodule(b, name):
    by_law = {r.law: r for r in laws.check_bimodule(b, name)}
    return [by_law[law] for law in _INTERNED_BIMODULE_LAWS]


def _captured(target, runner):
    # the bimodule or arrow a mutant thunk hands to its runner
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mutants, runner, lambda got, *args, **kwargs: seen.append(got))
        mutants.MUTANTS[target]()
    (got,) = seen
    return got


def _keyless(b):
    return replace(b, key=None)


def _keyless_arrow(a):
    return replace(a, key=None)


_BIMODULE_MUTANTS = sorted(
    t for t in mutants.MUTANTS if t.startswith(("bimodule.", "eqmonoid."))
)
_CONTEXT_MUTANTS = sorted(t for t in mutants.MUTANTS if t.startswith("costrength."))


@pytest.mark.parametrize("target", _BIMODULE_MUTANTS + _CONTEXT_MUTANTS)
def test_interned_bimodule_laws_match_per_case_chasing_on_mutants(target):
    runner = "_run_context" if target.startswith("costrength.") else "_run_bimodule"
    b = _captured(target, runner)
    assert _checked_bimodule(b, target) == _reference_bimodule(b, target)
    if target in _BIMODULE_MUTANTS:
        # numbered by identity, every distinct result is handed to equal
        kb = _keyless(b)
        assert _checked_bimodule(kb, target) == _reference_bimodule(kb, target)


def _suite_bimodules(size):
    # built as the bimodule and context suites build them
    atoms3 = pair_atoms((1, 1), (size, 1), (1, size))
    atoms2 = pair_atoms((size, 1), (1, size))
    ctx2 = ctx_of_arrow(lens_arrow(atoms2))
    octx = lens_optic_context(lens_arrow(atoms2), [PAIR_I, atoms2[0]])
    return {
        "ctx(lens)": ctx_of_arrow(lens_arrow(atoms3)),
        "eq(lens,bool)": eq_from_context(ctx2, BOOL_AND),
        "eq(lens,witness)": eq_from_context(ctx2, WITNESSES, value_pool=[(), (("w",),)]),
        "opticctx(lens)": octx,
    }


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("instance", sorted(_suite_bimodules(1)))
def test_interned_bimodule_laws_match_per_case_chasing_on_suites(instance, size):
    b = _suite_bimodules(size)[instance]
    assert _checked_bimodule(b, instance) == _reference_bimodule(b, instance)


def _reference_m_assoc(b, name):
    def trials():
        for x, y in itertools.product(b.arrow.objects, repeat=2):
            hom = b.hom_cached(x, y)
            for e1, e2, e3 in itertools.product(hom, repeat=3):
                lhs = b.m(b.m(e1, e2), e3)
                rhs = b.m(e1, b.m(e2, e3))
                yield ((e1, e2, e3), lhs, rhs, b.equal(lhs, rhs))

    return laws._report("eqmonoid.m-assoc", name, trials(), "structural")


def _checked_m_assoc(b, name):
    (got,) = [r for r in laws.check_eqmonoid(b, name) if r.law == "eqmonoid.m-assoc"]
    return got


@pytest.mark.parametrize("target", _BIMODULE_MUTANTS)
def test_numbered_m_assoc_matches_per_case_chasing_on_mutants(target):
    b = _captured(target, "_run_bimodule")
    if b.m is None:  # the bimodule.* mutants have no merge
        assert laws.check_eqmonoid(b, target) == []
        return
    for bim in (b, _keyless(b)):
        got = _checked_m_assoc(bim, target)
        assert got == _reference_m_assoc(bim, target)
        assert (got.status == "fail") == (target == "eqmonoid.m-assoc")


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("instance", ["eq(lens,bool)", "eq(lens,witness)"])
def test_numbered_m_assoc_matches_per_case_chasing_on_suites(instance, size):
    b = _suite_bimodules(size)[instance]
    got = _checked_m_assoc(b, instance)
    assert got == _reference_m_assoc(b, instance)
    assert got.status == "pass"


# -- strengthened bimodule laws agree with per-case chasing --------------------
#
# ``lact-st``, ``ract-st`` and ``commute`` strengthen each numbered member
# once per spectator and decide a block of objects at a time.  The reference
# trials below strengthen, act and compose afresh for every case.

_STRENGTHENED_BIMODULE_LAWS = ("bimodule.lact-st", "bimodule.ract-st", "bimodule.commute")


def _reference_strengthened_bimodule(b, name):
    a = b.arrow
    objs = a.objects

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

    def commute():
        left = laws._bim_left_strength
        for x, y, x2, y2 in itertools.product(objs, repeat=4):
            for a1 in a.hom_cached(x, y):
                for e in b.hom_cached(x2, y2):
                    lhs = b.lact(a.st(a1, x2), left(b, e, y))
                    rhs = b.ract(left(b, e, x), a.st(a1, y2))
                    yield ((a1, e), lhs, rhs, b.equal(lhs, rhs))

    if b.st is None:
        return []
    trials = [lact_st(), ract_st()] + ([commute()] if b.commutative else [])
    return [
        laws._report(law, name, t, "structural")
        for law, t in zip(_STRENGTHENED_BIMODULE_LAWS, trials)
    ]


def _checked_strengthened_bimodule(b, name):
    return [
        r for r in laws.check_bimodule(b, name) if r.law in _STRENGTHENED_BIMODULE_LAWS
    ]


@pytest.mark.parametrize("target", _BIMODULE_MUTANTS + _CONTEXT_MUTANTS)
def test_strengthened_bimodule_laws_match_per_case_chasing_on_mutants(target):
    runner = "_run_context" if target.startswith("costrength.") else "_run_bimodule"
    b = _captured(target, runner)
    got = _checked_strengthened_bimodule(b, target)
    assert got == _reference_strengthened_bimodule(b, target)
    if target in _STRENGTHENED_BIMODULE_LAWS:
        assert [r.law for r in got if r.status == "fail"] == [target]


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("instance", sorted(_suite_bimodules(1)))
def test_strengthened_bimodule_laws_match_per_case_chasing_on_suites(instance, size):
    b = _suite_bimodules(size)[instance]
    got = _checked_strengthened_bimodule(b, instance)
    assert got == _reference_strengthened_bimodule(b, instance)
    assert {r.status for r in got} <= {"pass"}


def test_keyless_members_are_numbered_by_identity_not_equality():
    # True == 1 in Python, but this bimodule's equal tells the tags apart, so
    # (swap ; swap) acting differs from swap acting twice by tag type alone
    b = mutants._tag_bimodule(
        [mutants._B2], (0, 1),
        lambda a, t: bool(t) if mutants._is_id_fun(a) else int(t), mutants._honest_psi,
    )
    b = replace(
        _keyless(b),
        equal=lambda e1, e2: e1 == e2 and type(e1.tag) is type(e2.tag),
    )
    got = _checked_bimodule(b, "bool-tags")
    assert got == _reference_bimodule(b, "bool-tags")
    assert got[0].status == "fail"


def test_equal_values_at_different_endpoints_stay_apart():
    x, y = pair_atoms((2, 1), (1, 2))
    eq = _suite_bimodules(2)["eq(lens,bool)"]
    num = laws._Interned(eq.key)
    h, h_flipped = EqFun(x, y, (True,)), EqFun(y, x, (True,))
    assert eq.key(h) == eq.key(h_flipped)
    assert num(h) != num(h_flipped)
    assert num(EqFun(x, y, (True,))) == num(h)
    assert num.reps[num(h_flipped)] is h_flipped


def _keyed_arrows():
    atoms3 = pair_atoms((1, 1), (2, 1), (1, 2))
    lens2 = lens_arrow(atoms3[:2])
    return {
        "hom(set)": hom_arrow(SET, [UNIT, bit_set(2)]),
        "lens": lens_arrow(atoms3),
        "witheq(lens,bool)": with_eq(lens2, ctx_of_arrow(lens2), BOOL_AND),
        "optic(set)": optic_arrow(atoms3),
        "keyed arrow.assoc mutant": _captured("arrow.assoc", "_run_tag_arrow"),
    }


@pytest.mark.parametrize("instance", sorted(_keyed_arrows()))
def test_interned_assoc_matches_per_case_chasing(instance):
    a = _keyed_arrows()[instance]
    assert a.key is not None
    (got,) = [r for r in laws.check_arrow_laws(a, instance) if r.law == "arrow.assoc"]
    assert got == _reference_assoc(a, instance)
    assert got.status == ("fail" if "mutant" in instance else "pass")


# -- a failure inside a slab ---------------------------------------------------
#
# Every numbered chase decides a slab, the inner member loops under one outer
# prefix, by one comparison of its two lists of numbers, and replays it case
# by case only when they differ.  The bracketing chase of ``arrow.assoc``,
# ``graded.assoc``, the action laws and ``eqmonoid.m-assoc`` takes as its
# slab the (v, w) block of each first operand u; the strength and
# interchange chases take a block of objects.  A first failure that sits
# inside a slab must still be reported with the per-case ``checked`` and
# counterexample.

def _survives_identities(a, t):
    # tag 2 is kept only by identities: swap ; swap acts on it apart from
    # swap acting twice
    return t if t != 2 or mutants._is_id_fun(a) else 1


def test_bimodule_failures_inside_a_slab_report_as_per_case_chasing():
    b = mutants._tag_bimodule(
        [mutants._B2], (0, 2, 1), _survives_identities, _survives_identities
    )
    for bim in (b, _keyless(b)):
        got = _checked_bimodule(bim, "mid-slab")
        assert got == _reference_bimodule(bim, "mid-slab")
        lact, ract, mixed = got
        assert (lact.status, ract.status, mixed.status) == ("fail", "fail", "pass")
        # neither first nor last in its slab: e = 2 is the second of three
        # tags, a2 = swap the third of the four members of hom(B2, B2)
        assert lact.checked % 3 == 2 and ract.checked % 4 == 3


def _swap_drops_tag_2(a, t):
    # only the swap of B2 drops tag 2 (to 1), so a composite through the swap
    # that is not the swap itself keeps what the swap dropped
    return 1 if t == 2 and a.table == (1, 0) else t


def test_lact_comp_failure_inside_a_block_reports_as_per_case_chasing():
    # ``lact-comp`` decides the (a2, e) block of each a1 at once; over
    # [UNIT, B2] the blocks hold 3, 6 or 12 cases
    b = mutants._tag_bimodule(
        [UNIT, mutants._B2], (0, 2, 1), _swap_drops_tag_2, mutants._honest_psi
    )
    for bim in (b, _keyless(b)):
        got = _checked_bimodule(bim, "mid-block")
        assert got == _reference_bimodule(bim, "mid-block")
        lact, ract, mixed = got
        assert (lact.status, ract.status, mixed.status) == ("fail", "pass", "pass")
        # 30 cases come before (x, y, z, w) = (UNIT, B2, B2, UNIT); in its first
        # block a2 = swap is the third of four members and e = 2 the second of
        # three tags: 3 + 3 + 2 cases into the block
        assert lact.checked == 38 and lact.checked % 3 == 2
        swap, e = SET.morphisms(mutants._B2, mutants._B2)[2], (mutants._B2, UNIT, 2)
        assert swap.table == (1, 0)
        assert lact.counterexample[0][1:] == (repr(swap), repr(mutants.TagElem(*e)))


def _zero_to_one_drops_tag_2(a, t):
    # acting on the right, a map sending 0 to 1 drops tag 2 (to 1); followed
    # by a map sending 1 back to 0 it makes a composite that keeps tag 2
    return 1 if t == 2 and a.table[0] == 1 else t


def test_ract_comp_failure_inside_a_block_reports_as_per_case_chasing():
    # ``ract-comp`` decides the (a1, a2) block of each e at once
    b = mutants._tag_bimodule(
        [UNIT, mutants._B2], (0, 2, 1), mutants._honest_psi,
        _zero_to_one_drops_tag_2,
    )
    for bim in (b, _keyless(b)):
        got = _checked_bimodule(bim, "mid-block")
        assert got == _reference_bimodule(bim, "mid-block")
        lact, ract, mixed = got
        assert (lact.status, ract.status, mixed.status) == ("pass", "fail", "pass")
        # 9 cases come before (x, y, z, w) = (UNIT, UNIT, B2, UNIT); there e = 0
        # passes its block of two, and for e = 2 the second a1, the point 1,
        # fails against the one map B2 -> UNIT
        assert ract.checked == 9 + 2 + 2
        point1 = SET.morphisms(UNIT, mutants._B2)[1]
        (bang,) = SET.morphisms(mutants._B2, UNIT)
        assert point1.table == (1,)
        assert ract.counterexample[0] == (
            repr(mutants.TagElem(UNIT, UNIT, 2)), repr(point1), repr(bang),
        )


def _permuted_across_sizes(perm):
    # a map between carriers of different sizes permutes the tag by ``perm``,
    # an involution: ``perm`` on B2 and the identity on UNIT carried along the
    # map, so this is an action
    return lambda a, t: t if len(a.dom) == len(a.cod) else perm[t]


def test_mixed_failure_inside_a_block_reports_as_per_case_chasing():
    # ``mixed`` decides the (e, a2) block of each a1 at once; the left action
    # swaps tags 1 and 2 and the right action tags 2 and 3, so only tag 0
    # commutes past both
    b = mutants._tag_bimodule(
        [UNIT, mutants._B2], (0, 1, 2, 3),
        _permuted_across_sizes((0, 2, 1, 3)), _permuted_across_sizes((0, 1, 3, 2)),
    )
    for bim in (b, _keyless(b)):
        got = _checked_bimodule(bim, "mid-block")
        assert got == _reference_bimodule(bim, "mid-block")
        lact, ract, mixed = got
        assert (lact.status, ract.status, mixed.status) == ("pass", "pass", "fail")
        # 40 cases come before (x, y, z, w) = (UNIT, B2, UNIT, B2), the first
        # block where both actions move a tag; for its first a1, e = 0 passes
        # against both a2, and e = 1, the second e, fails at the first a2
        assert mixed.checked == 40 + 2 + 1
        point0 = SET.morphisms(UNIT, mutants._B2)[0]
        assert mixed.counterexample[0] == (
            repr(point0), repr(mutants.TagElem(mutants._B2, UNIT, 1)), repr(point0),
        )


def test_assoc_failure_inside_a_slab_reports_as_per_case_chasing():
    a = mutants._tag_arrow(
        "mid-slab", [mutants._B2], (0, 1, 2), lambda t1, t2: mutants._MAGMA[(t1, t2)], 0
    )
    for arr in (a, _keyless_arrow(a)):
        (got,) = [r for r in laws.check_arrow_laws(arr) if r.law == "arrow.assoc"]
        assert got == _reference_assoc(arr, "mid-slab")
        # (1 1) 2 != 1 (1 2) at the third of the twelve members of the slab
        assert got.status == "fail" and got.checked % 12 == 3


def _squash_padded_swaps(a):
    # st by B2 drops the tag of B2's swap to 0, so strength.comp fails where a
    # swap is one operand of a composite that is not itself a swap
    def st(m, z):
        padded = a.st(m, z)
        return replace(padded, tag=0) if (
            m.fun.table == (1, 0) and len(z) == 2
        ) else padded

    return replace(a, st=st)


def test_strength_comp_failure_inside_a_block_reports_as_per_case_chasing():
    # ``strength.comp`` decides the (m1, m2, z) block of each (x, y, z) at once
    a = _squash_padded_swaps(mutants._tag_arrow(
        "mid-block", [UNIT, mutants._B2], (0, 1, 2), lambda t1, t2: (t1 + t2) % 3, 0,
        commutative=False,
    ))
    for arr in (a, _keyless_arrow(a)):
        got = laws.check_strength(arr, "mid-block")
        assert got == _reference_strength_laws(arr, "mid-block")
        (comp,) = [r for r in got if r.law == "strength.comp"]
        # 90 cases pass in the blocks of (UNIT, UNIT, UNIT), (UNIT, UNIT, B2)
        # and (UNIT, B2, UNIT); in the 144-case block of (UNIT, B2, B2) the
        # first m1 meets m2 = (swap, tag 1), the eighth of twelve, at z = B2
        assert comp.status == "fail" and comp.checked == 90 + 7 * 2 + 2
        assert comp.counterexample[0][1:] == (
            repr(mutants.TagMor(mutants._B2, mutants._B2, SET.morphisms(
                mutants._B2, mutants._B2)[2], 1)), repr(mutants._B2),
        )


def test_strength_assoc_failure_inside_a_slab_reports_as_per_case_chasing():
    # over [UNIT, B2] the tag is swapped by each padding of size 2 or 4: twice
    # on the left side and once on the right when (z, z') = (B2, B2)
    a = mutants._tag_arrow(
        "mid-slab", [UNIT, mutants._B2], ((0, 0), (0, 1), (1, 0), (1, 1)),
        lambda t1, t2: (t1[0] ^ t2[0], t1[1] ^ t2[1]), (0, 0),
        st_tag=lambda t, z: (t[1], t[0]) if len(z) in (2, 4) else t,
    )
    for arr in (a, _keyless_arrow(a)):
        got = laws.check_strength(arr, "mid-slab")
        assert got == _reference_strength_laws(arr, "mid-slab")
        (assoc,) = [r for r in got if r.law == "strength.assoc"]
        # x = y = UNIT: three slabs of four pass, then the tag (0, 1), second
        # of the four members, fails at (z, z') = (B2, B2)
        assert assoc.status == "fail" and assoc.checked == 3 * 4 + 2
        assert assoc.counterexample[0][1:] == (repr(mutants._B2), repr(mutants._B2))


def test_checkers_leave_no_cyclic_garbage():
    # tables of numbers and their rows are freed by reference counting
    b = _suite_bimodules(1)["ctx(lens)"]
    a = lens_arrow(pair_atoms((1, 1), (2, 1), (1, 2)))
    gc.collect()
    gc.disable()
    try:
        laws.check_bimodule(b)
        laws.check_arrow_laws(a)
        laws.check_strength(a)
        laws.run_mutants(["costrength.mixed"])
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- numbered strength laws and colimit keys agree with per-case chasing ------
#
# ``strength.unit``, ``strength.assoc``, ``strength.comp`` and
# ``arrow.commute`` number each block's sides and strengthen each numbered
# member once per spectator, and ``fam`` and ``para`` carry keys, so all of
# these take the interned path.  The reference trials below strengthen and
# compose afresh for every case.

def _reference_strength_unit(a, name):
    base = a.base

    def trials():
        for x, y in itertools.product(a.objects, repeat=2):
            for m in a.hom_cached(x, y):
                lhs = a.st(m, base.unit)
                rhs = dimap(a, base.runit(x), m, base.inv(base.runit(y)))
                yield ((m,), lhs, rhs, a.equal(lhs, rhs))

    return laws._report("strength.unit", name, trials(), "structural")


def _reference_strength_assoc(a, name):
    base = a.base

    def trials():
        for x, y, z, zp in itertools.product(a.objects, repeat=4):
            for m in a.hom_cached(x, y):
                lhs = a.st(a.st(m, z), zp)
                rhs = dimap(
                    a, base.assoc(x, z, zp), a.st(m, base.tensor(z, zp)),
                    base.inv(base.assoc(y, z, zp)),
                )
                yield ((m, z, zp), lhs, rhs, a.equal(lhs, rhs))

    return laws._report("strength.assoc", name, trials(), "structural")


def _reference_strength_pure(a, name):
    base = a.base

    def trials():
        for x, y in itertools.product(a.objects, repeat=2):
            for f in base.morphisms(x, y):
                for z in a.objects:
                    lhs = a.st(a.pure(f), z)
                    rhs = a.pure(base.tensor_mor(f, base.id(z)))
                    yield ((f, z), lhs, rhs, a.equal(lhs, rhs))

    return laws._report("strength.pure", name, trials(), "structural")


def _reference_strength_comp(a, name):
    def trials():
        for x, y, z in itertools.product(a.objects, repeat=3):
            for m1 in a.hom_cached(x, y):
                for m2 in a.hom_cached(y, z):
                    m12 = a.comp(m1, m2)
                    for zo in a.objects:
                        lhs = a.st(m12, zo)
                        rhs = a.comp(a.st(m1, zo), a.st(m2, zo))
                        yield ((m1, m2, zo), lhs, rhs, a.equal(lhs, rhs))

    return laws._report("strength.comp", name, trials(), "structural")


def _reference_commute(a, name):
    def trials():
        for x, y, x2, y2 in itertools.product(a.objects, repeat=4):
            for m1 in a.hom_cached(x, y):
                for m2 in a.hom_cached(x2, y2):
                    lhs = arrow_tensor(a, m1, m2)
                    rhs = arrow_tensor_flipped(a, m1, m2)
                    yield ((m1, m2), lhs, rhs, a.equal(lhs, rhs))

    if not a.commutative:
        return []
    return [laws._report("arrow.commute", name, trials(), "structural")]


def _reference_strength_laws(a, name):
    strength = (
        _reference_strength_unit, _reference_strength_assoc, _reference_strength_pure,
        _reference_strength_comp,
    )
    return [law(a, name) for law in strength] + _reference_commute(a, name)


def _shared_arrow_laws(a, name):
    (assoc,) = [r for r in laws.check_arrow_laws(a, name) if r.law == "arrow.assoc"]
    return [assoc] + laws.check_strength(a, name)


def _reference_arrow_laws(a, name):
    return [_reference_assoc(a, name)] + _reference_strength_laws(a, name)


_ARROW_MUTANTS = sorted(
    t for t in mutants.MUTANTS if t.startswith(("arrow.", "strength."))
)


@pytest.mark.parametrize("target", _ARROW_MUTANTS)
def test_shared_arrow_laws_match_per_case_chasing_on_mutants(target):
    a = _captured(target, "_run_tag_arrow")
    assert a.key is not None
    # keyless, members are numbered by identity and every distinct result
    # is handed to equal
    for b in (a, _keyless_arrow(a)):
        got = _shared_arrow_laws(b, target)
        assert got == _reference_arrow_laws(b, target)
        # a mutant aimed at one of these laws fails it
        assert target not in {r.law for r in got if r.status == "pass"}


def _weq(atoms):
    lens = lens_arrow(atoms)
    return with_eq(lens, ctx_of_arrow(lens), BOOL_AND)


def _colimit_twins(size, keyless):
    # fam and para built as in the arrow suite, plus a para over a two-point
    # parameter; with ``keyless``, over inner arrows whose key is removed,
    # so that equality is the bijection search
    def inner(a):
        return _keyless_arrow(a) if keyless else a

    atoms = pair_atoms((1, 1), (size, 1))
    weq = _weq(atoms)
    pooled = lens_arrow(pair_atoms((1, 1), (2, 1)))
    return {
        "fam(witheq(lens,bool))": fam(
            inner(weq), member_pool=laws._truncated(weq.hom_cached, 2)
        ),
        "para(lens)": para(
            inner(lens_arrow(atoms)), [PAIR_I, PairObj(bit_set(size), UNIT)]
        ),
        "para(lens) over a two-point parameter": para(
            inner(pooled), [PAIR_I, PairObj(bit_set(2), UNIT)],
            member_pool=laws._truncated(pooled.hom_cached, 3),
        ),
    }


def _suite_arrows(size):
    # built as the arrow and optic suites build them
    atoms4 = pair_atoms((1, 1), (size, 1), (1, size), (size, size))
    colimits = _colimit_twins(size, keyless=False)
    return {
        "hom(set)": hom_arrow(SET, [UNIT, bit_set(size)]),
        "lens": lens_arrow(atoms4),
        "witheq(lens,bool)": _weq(atoms4[:2]),
        "fam(witheq(lens,bool))": colimits["fam(witheq(lens,bool))"],
        "para(lens)": colimits["para(lens)"],
        "optic(set)": optic_arrow(atoms4[:3]),
    }


@pytest.mark.parametrize("instance", sorted(_suite_arrows(1)))
def test_shared_arrow_laws_match_per_case_chasing_on_suites(instance):
    a = _suite_arrows(1)[instance]
    assert a.key is not None
    got = _shared_arrow_laws(a, instance)
    assert got == _reference_arrow_laws(a, instance)
    assert {r.status for r in got} == {"pass"}


@pytest.mark.parametrize("instance", ["fam(witheq(lens,bool))", "para(lens)"])
def test_strength_laws_match_per_case_chasing_on_colimits_at_size_2(instance):
    # the numbered chases strengthen class representatives, so they rely on
    # the key being a congruence for st, as arrow.assoc relies on it for comp
    a = _suite_arrows(2)[instance]
    got = laws.check_strength(a, instance)
    assert got == _reference_strength_laws(a, instance)
    assert {r.status for r in got} == {"pass"}


@pytest.mark.parametrize("instance", sorted(_colimit_twins(1, False)))
def test_colimit_keys_decide_equality_as_the_bijection_search_does(instance):
    # over the pool and its composites, key equality, equal and the
    # bijection search agree for every pair with the same endpoints
    a = _colimit_twins(1, False)[instance]
    search = _colimit_twins(1, True)[instance].equal
    assert a.key is not None
    objs = list(dict.fromkeys(a.objects))
    pool = [m for x, y in itertools.product(objs, repeat=2) for m in a.hom_cached(x, y)]
    members = pool + [
        a.comp(m1, m2) for m1 in pool for m2 in pool if m1.dst == m2.src
    ]
    by_ends = {}
    for m in members:
        by_ends.setdefault((m.src, m.dst), []).append(m)
    for ms in by_ends.values():
        keys = [a.key(m) for m in ms]
        for (m1, k1), (m2, k2) in itertools.product(zip(ms, keys), repeat=2):
            assert (k1 == k2) == a.equal(m1, m2) == search(m1, m2), (m1, m2)


def test_para_key_needs_one_point_backward_parameters():
    two_point_bwd = PairObj(UNIT, bit_set(2))
    inner = lens_arrow([PAIR_I])
    assert para(inner, [PAIR_I, two_point_bwd]).key is None
    assert para(inner, [PAIR_I, PairObj(bit_set(2), UNIT)]).key is not None


def test_keyed_para_refuses_a_member_it_cannot_block():
    two_point_bwd = PairObj(UNIT, bit_set(2))
    a = para(lens_arrow([PAIR_I]), [PAIR_I])
    inner = all_lenses(PAIR.tensor(two_point_bwd, PAIR_I), PAIR_I)[0]
    with pytest.raises(DomainError):
        a.key(ParaMor(PAIR_I, PAIR_I, two_point_bwd, inner))


def test_hide_over_a_keyless_graded_arrow_stays_keyless():
    a = fam(_keyless_arrow(_captured("arrow.assoc", "_run_tag_arrow")))
    assert a.key is None
    x = a.objects[-1]
    e = next(e for e in a.hom_cached(x, x) if len(set(e.members)) == 2)
    swapped = replace(e, members=e.members[::-1])
    assert a.equal(e, swapped) is True


def _hidden_twisted():
    objs = pair_atoms((1, 1), (2, 1))
    return twisted_grading(objs)


@pytest.mark.parametrize(
    "make",
    [_hidden_twisted, lambda: _captured("graded.assoc", "check_graded")],
    ids=["twisted(set)", "tag-graded"],
)
def test_hide_over_a_graded_arrow_keyed_otherwise_searches_the_grade_isos(make):
    # these keys are not the multiset of member keys that fam's key is, so
    # hide must not read them; it judges as over the keyless copy
    g = make()
    assert g.key is not None
    a, keyless = hide(g), hide(replace(g, key=None))
    assert a.key is None
    pool = [
        e for x, y in itertools.product(a.objects, repeat=2)
        for e in a.hom(x, y)
    ]
    pairs = [
        (m1, m2) for m1, m2 in itertools.product(pool, repeat=2)
        if (m1.src, m1.dst) == (m2.src, m2.dst)
    ]
    for m1, m2 in pairs:
        assert a.equal(m1, m2) == keyless.equal(m1, m2), (m1, m2)
    assert {a.equal(m1, m2) for m1, m2 in pairs} == {True, False}
    for e in pool:
        for q in g.grades:
            for phi in g.grade_isos(q, e.grade):
                assert a.equal(e, g.regrade(phi, e)) is True, (e, phi)


# -- graded bimodules through the interned tables ------------------------------
#
# The reference trials below are the per-case graded action laws: every
# composite, action and regrade runs afresh for every case, which is decided
# with ``equal``.

_INTERNED_GBIM_LAWS = ("gbim.lact-comp", "gbim.ract-comp", "gbim.mixed")


def _reference_gbim(gb, objects, grades, name):
    g = gb.arrow
    gs = g.grade_structural

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

    trials = (lact_comp(), ract_comp(), mixed())
    return [
        laws._report(law, name, t, "structural")
        for law, t in zip(_INTERNED_GBIM_LAWS, trials)
    ]


def _checked_gbim(gb, name):
    reports = laws.check_graded_bimodule(gb, name)
    by_law = {r.law: r for r in reports}
    return [by_law[law] for law in _INTERNED_GBIM_LAWS]


def _verdicts(reports):
    return [(r.law, r.status, r.checked) for r in reports]


_GBIM_MUTANTS = sorted(t for t in mutants.MUTANTS if t.startswith("gbim."))


@pytest.mark.parametrize("target", _GBIM_MUTANTS)
def test_interned_gbim_laws_match_per_case_chasing_on_mutants(target):
    gb = _captured(target, "_run_gbim")
    assert gb.key is not None
    # numbered by identity, every distinct result is handed to equal
    for b in (gb, replace(gb, key=None)):
        got = _checked_gbim(b, target)
        assert got == _reference_gbim(b, [mutants._B2], mutants._GRADES2, target)
        if target in _INTERNED_GBIM_LAWS:
            assert target not in {r.law for r in got if r.status == "pass"}


def _suite_graded(size):
    # the graded arrows the graded suite checks, with their grade iso
    # arguments, and its graded bimodules with their universes
    arrows, gbims = {}, {}

    def record_graded(g, name, **iso_args):
        arrows[name] = (g, iso_args)
        return []

    def record_gbim(gb, name, equality):
        gbims[name] = (gb, gb.arrow.objects, gb.arrow.grades)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "check_graded", record_graded)
        mp.setattr(laws, "check_graded_bimodule", record_gbim)
        laws.graded_suite(size)
    return arrows, gbims


def _suite_gbims(size):
    return _suite_graded(size)[1]


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("instance", ["bestresp(lens)", "probequib(lens)"])
def test_interned_gbim_laws_match_per_case_chasing_on_suites(instance, size):
    gb, objects, grades = _suite_gbims(size)[instance]
    assert gb.key is not None
    got = _checked_gbim(gb, instance)
    assert _verdicts(got) == _verdicts(_reference_gbim(gb, objects, grades, instance))
    assert {r.status for r in got} == {"pass"}


@pytest.mark.parametrize("instance", ["bestresp(lens)", "probequib(lens)"])
def test_gbim_keys_decide_equality(instance):
    # over the pool and its actions by pooled families, members with the
    # same endpoints have equal keys exactly when they are equal
    gb, objects, grades = _suite_gbims(2)[instance]
    g = gb.arrow
    pool = [
        e for q in grades for x, y in itertools.product(objects, repeat=2)
        for e in gb.hom(q, x, y)
    ]
    acted = [
        act(e, a)
        for e in pool for p in grades for z in objects
        for act, a in (
            (lambda e, a: gb.glact(a, e), g.hom(p, z, e.src)[0]),
            (gb.gract, g.hom(p, e.dst, z)[-1]),
        )
    ]
    _assert_keys_decide_equality(gb, pool + acted)


def _assert_keys_decide_equality(family, members):
    # members with the same endpoints have equal keys exactly when they are
    # equal
    by_ends = {}
    for m in members:
        by_ends.setdefault((m.src, m.dst), []).append(m)
    for ms in by_ends.values():
        keyed = [(m, family.key(m)) for m in ms]
        for (m1, k1), (m2, k2) in itertools.product(keyed, repeat=2):
            assert (k1 == k2) == family.equal(m1, m2), (m1, m2)


def test_bestresp_elements_apart_at_one_registered_context_have_different_keys():
    gb, objects, grades = _suite_gbims(2)["bestresp(lens)"]
    x = y = objects[-1]
    grade = grades[-1]
    first = x.fwd.elements[1]

    le = frozenset((p1, p2) for p1 in grade for p2 in grade if p1 <= p2)

    def le_but_once(c):
        # (0, 0) dropped at contexts starting at ``first``
        return le - {(0, 0)} if c.state == first else le

    b1 = RowElement(x, y, grade, lambda c: le)
    b2 = RowElement(x, y, grade, le_but_once)
    assert gb.key(b1) != gb.key(b2)
    assert gb.equal(b1, b2) is False
    assert gb.key(b1) == gb.key(RowElement(x, y, grade, lambda c: le))


def test_bestresp_default_pool_is_every_game_context():
    gb = best_resp_bimodule(grade_by_param(lens_arrow([])))
    x, y = PAIR_I, PairObj(bit_set(2), bit_set(2))
    grade = FinSet((0, 1))
    le = frozenset((p1, p2) for p1 in grade for p2 in grade if p1 <= p2)
    b = RowElement(x, y, grade, lambda c: le)
    contexts = GAME_CTX.hom_cached(y, x)
    assert len(contexts) > 1
    assert gb.key(b) == (grade.elements, tuple(b.row(c) for c in contexts))
    assert b.row(contexts[0]) == frozenset({(0, 0), (0, 1), (1, 1)})



def test_row_elements_apart_at_one_context_have_different_keys():
    gb = row_bimodule(BOOL_AND)
    x, y = PAIR_I, PairObj(bit_set(2), bit_set(2))
    grade = FinSet((0, 1))
    odd = GAME_CTX.hom_cached(y, x)[1]

    def true_but_once(c):
        return (True, False) if c == odd else (True, True)

    b1 = RowElement(x, y, grade, lambda c: (True, True))
    b2 = RowElement(x, y, grade, true_but_once)
    assert gb.key(b1) != gb.key(b2)
    assert gb.equal(b1, b2) is False
    b3 = RowElement(x, y, grade, lambda c: (True, True))
    assert gb.key(b1) == gb.key(b3)
    assert gb.equal(b1, b3) is True


# The best-response bimodule's actions as they were written before rows and
# best responses shared one constructor: each builds a result's row at one
# context from the operand's rows, running the real context action.

def _reference_br_glact(a, b):
    def row(c):
        return frozenset(
            ((j1, k1), (j2, k2))
            for j1, aj in zip(a.grade, a.members)
            for k1, k2 in b.row(GAME_CTX.ract(c, aj))
            for j2 in a.grade
        )

    return row


def _reference_br_gract(b, a):
    def row(c):
        return frozenset(
            ((j1, k1), (j2, k2))
            for k1, ak in zip(a.grade, a.members)
            for j1, j2 in b.row(GAME_CTX.lact(ak, c))
            for k2 in a.grade
        )

    return row


def _reference_br_st(b, z):
    return lambda c: b.row(GAME_CTX.cst(c, b.dst, b.src, z))


def _reference_br_regrade(phi, b):
    image = dict(zip(phi.dom.elements, phi.table))

    def row(c):
        return frozenset(
            (p1, p2) for p1, p2 in itertools.product(phi.dom, repeat=2)
            if (image[p1], image[p2]) in b.row(c)
        )

    return row


def _reference_br_m(b1, b2):
    return lambda c: b1.row(c) & b2.row(c)


def _reference_br_e(grade):
    return lambda c: frozenset(itertools.product(grade, repeat=2))


def _suite_bestresp(size):
    # the graded suite's best-response bimodule and its context pool
    pools = []

    def recording(graded_lens, element_pool=None, context_pool=None):
        pools.append(context_pool)
        return best_resp_bimodule(graded_lens, element_pool, context_pool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "best_resp_bimodule", recording)
        gb, objects, grades = _suite_gbims(size)["bestresp(lens)"]
    (context_pool,) = pools
    return gb, objects, grades, context_pool


@pytest.mark.parametrize("size", [1, 2])
def test_bestresp_rows_match_per_context_references(size):
    # the registered elements, one that reads the continuation (the
    # registered ones read only the state, which a right action keeps), and
    # every one-level composite of them, at every registered context of the
    # result's endpoints
    gb, objects, grades, context_pool = _suite_bestresp(size)
    g = gb.arrow

    def by_cont(q, x, y):
        # two tables that differ in one entry have different parities
        rows = (
            frozenset((p1, p2) for p1 in q for p2 in q if p1 <= p2),
            frozenset(itertools.product(q, repeat=2)),
        )
        return RowElement(
            x, y, q, lambda c: rows[sum(map(y.bwd.index, c.cont.table)) % 2]
        )

    pool = [
        b for q in grades for x, y in itertools.product(objects, repeat=2)
        for b in [*gb.hom(q, x, y), by_cont(q, x, y)]
    ]
    pairs = [(b, lambda c, b=b: b.row(c)) for b in pool]
    for b in pool:
        pairs += [
            (gb.glact(a, b), _reference_br_glact(a, b))
            for p in grades for z in objects for a in g.hom(p, z, b.src)
        ]
        pairs += [
            (gb.gract(b, a), _reference_br_gract(b, a))
            for p in grades for z in objects for a in g.hom(p, b.dst, z)
        ]
        pairs += [(gb.st(b, z), _reference_br_st(b, z)) for z in objects]
        pairs += [
            (gb.regrade(phi, b), _reference_br_regrade(phi, b))
            for q in grades for phi in all_funs(q, b.grade)
        ]
        pairs += [
            (gb.m(b, b2), _reference_br_m(b, b2)) for b2 in pool
            if (b2.src, b2.dst, b2.grade) == (b.src, b.dst, b.grade)
        ]
        pairs.append((gb.e(b.grade, b.src, b.dst), _reference_br_e(b.grade)))
    checked = 0
    for got, want in pairs:
        for c in context_pool(got.src, got.dst):
            assert got.row(c) == want(c), (got, c)
            checked += 1
    assert checked > 100 * size


# -- the graded product: the one composition path of open games ---------------

_GRADED_LAWS = {law for law in LAWS if law.startswith("graded.")}


def _bestresp_product(size):
    # param(lens) paired with the graded suite's best-response bimodule, over
    # that bimodule's objects
    gb, objects, _grades = _suite_gbims(size)["bestresp(lens)"]
    return replace(graded_product(gb.arrow, gb), objects=objects), gb


def test_graded_product_passes_the_graded_laws():
    prod, _gb = _bestresp_product(1)
    reports = laws.check_graded(prod, "param(lens)*bestresp")
    assert {r.law for r in reports} == _GRADED_LAWS
    assert {r.status for r in reports} == {"pass"}


def test_graded_product_with_swapped_action_operands_fails_a_graded_law():
    prod, gb = _bestresp_product(1)
    g = gb.arrow

    def swapped(m1, m2):
        # each action takes the other member's part, which is well typed
        # on endomorphisms only
        return GradedPairMor(
            g.gcomp(m1.arrow_part, m2.arrow_part),
            gb.m(gb.glact(m2.arrow_part, m1.bim_part),
                 gb.gract(m2.bim_part, m1.arrow_part)),
        )

    bad = replace(prod, gcomp=swapped, objects=prod.objects[-1:])
    reports = laws.check_graded(bad, "swapped")
    assert {r.law for r in reports} == _GRADED_LAWS
    assert "fail" in {r.status for r in reports}


def test_graded_product_is_keyed_by_its_parts_when_both_are():
    prod, gb = _bestresp_product(2)
    g = gb.arrow
    assert graded_product(g, replace(gb, key=None)).key is None
    assert graded_product(replace(g, key=None), gb).key is None
    pool = [
        m for p in prod.grades for x, y in itertools.product(prod.objects, repeat=2)
        for m in prod.hom(p, x, y)
    ]
    m = pool[-1]
    assert prod.key(m) == (g.key(m.arrow_part), gb.key(m.bim_part))
    # over the pool and its composites, some distinct members share a key
    composed = [
        prod.gcomp(m1, m2) for m1, m2 in itertools.product(pool, repeat=2)
        if m1.dst == m2.src
    ]
    assert len({prod.key(m) for m in composed}) < len(composed)
    _assert_keys_decide_equality(prod, pool + composed)


# -- the member protocol: a member carries its endpoints and grade -------------

def _protocol_families():
    # name -> (hom at a grade, objects, grades or None where ungraded), as
    # the suites build them at size 2
    arrows, bims = _suite_arrows(2), _suite_bimodules(2)
    graded = {name: g for name, (g, _) in _suite_graded(2)[0].items()}
    gbims = _suite_gbims(2)
    prod, _gb = _bestresp_product(2)
    out = {
        name: (lambda p, x, y, a=a: a.hom_cached(x, y), a.objects, None)
        for name, a in arrows.items() if name in ("lens", "optic(set)")
    }
    out.update(
        (name, (lambda p, x, y, b=b: b.hom_cached(x, y), b.arrow.objects, None))
        for name, b in bims.items()
    )
    out.update(
        (name, (g.hom, g.objects, g.grades))
        for name, g in [*graded.items(), ("param(lens)*bestresp", prod)]
    )
    out.update((name, (gb.hom, objs, grades)) for name, (gb, objs, grades) in gbims.items())
    return out


@pytest.mark.parametrize("instance", sorted(_protocol_families()))
def test_every_member_carries_its_endpoints_and_grade(instance):
    hom, objects, grades = _protocol_families()[instance]
    objects = list(dict.fromkeys(objects))
    members = 0
    for p in grades or [None]:
        for x, y in itertools.product(objects, repeat=2):
            for m in hom(p, x, y):
                assert (m.src, m.dst) == (x, y), (m, x, y)
                if grades is not None:
                    assert m.grade == p, (m, p)
                if isinstance(m, GradedPairMor):
                    part = m.arrow_part
                    assert (m.src, m.dst, m.grade) == (part.src, part.dst, part.grade)
                members += 1
    assert members > 0


# -- graded arrows through the arrow chases ------------------------------------
#
# ``graded.assoc`` and ``graded.commute`` share ``arrow.assoc``'s and
# ``arrow.commute``'s interned chases.  The reference trials
# below are the per-case graded laws: every composite, strengthening and
# regrade runs afresh for every case, which is decided with ``equal``.

_SHARED_GRADED_LAWS = ("graded.assoc", "graded.commute")


def _reference_graded(g, name):
    gs = g.grade_structural
    objs, grades = g.objects, g.grades

    def assoc():
        for p, q, r in itertools.product(grades, repeat=3):
            for x, y, z, w in itertools.product(objs, repeat=4):
                for e1 in g.hom(p, x, y):
                    for e2 in g.hom(q, y, z):
                        left = g.gcomp(e1, e2)
                        for e3 in g.hom(r, z, w):
                            lhs = g.regrade(gs("assoc", (p, q, r)), g.gcomp(left, e3))
                            rhs = g.gcomp(e1, g.gcomp(e2, e3))
                            yield ((e1, e2, e3), lhs, rhs, g.equal(lhs, rhs))

    def commute():
        for p, q in itertools.product(grades, repeat=2):
            for x, y, x2, y2 in itertools.product(objs, repeat=4):
                for e1 in g.hom(p, x, y):
                    for e2 in g.hom(q, x2, y2):
                        lhs = g.regrade(
                            gs("sym", (p, q)),
                            g.gcomp(g.st(e1, x2), graded_left_strength(g, e2, y)),
                        )
                        rhs = g.gcomp(graded_left_strength(g, e2, x), g.st(e1, y2))
                        yield ((e1, e2), lhs, rhs, g.equal(lhs, rhs))

    trials = (assoc(), commute()) if g.commutative else (assoc(),)
    return [
        laws._report(law, name, t, "structural")
        for law, t in zip(_SHARED_GRADED_LAWS, trials)
    ]


def _checked_graded(g, name, **iso_args):
    reports = laws.check_graded(g, name, **iso_args)
    return [r for r in reports if r.law in _SHARED_GRADED_LAWS]


_GRADED_MUTANTS = sorted(t for t in mutants.MUTANTS if t.startswith("graded."))


@pytest.mark.parametrize("target", _GRADED_MUTANTS)
def test_shared_graded_laws_match_per_case_chasing_on_mutants(target):
    g = _captured(target, "check_graded")
    assert g.key is not None
    # numbered by identity, every distinct result is handed to equal
    for h in (g, replace(g, key=None)):
        got = _checked_graded(h, target)
        assert got == _reference_graded(h, target)
        if target in _SHARED_GRADED_LAWS:
            assert target not in {r.law for r in got if r.status == "pass"}


@pytest.mark.parametrize("instance", ["param(lens)", "twisted(set)"])
def test_shared_graded_laws_match_per_case_chasing_on_suites(instance):
    g, iso_args = _suite_graded(1)[0][instance]
    assert g.key is not None
    got = _checked_graded(g, instance, **iso_args)
    assert got == _reference_graded(g, instance)
    assert {r.status for r in got} == {"pass"}


def test_shared_graded_laws_match_per_case_chasing_on_param_lens_at_size_2():
    g, _ = _suite_graded(2)[0]["param(lens)"]
    got = _checked_graded(g, "param(lens)")
    assert _verdicts(got) == _verdicts(_reference_graded(g, "param(lens)"))


# -- identity laws agree with their own loops ----------------------------------
#
# Every identity law is chased by ``laws._neutral_trials``.  The reference
# trials below are each law's own loop, member by member and side by side;
# the checkers must agree with them on every field, case order included.

_NEUTRAL_LAWS = (
    "arrow.unit", "bimodule.lact-unit", "bimodule.ract-unit", "eqmonoid.m-unit",
    "graded.unit", "graded.regrade", "gbim.lact-unit", "gbim.ract-unit",
)


def _reference_arrow_unit(a, name):
    def unit():
        for x, y in itertools.product(a.objects, repeat=2):
            for m in a.hom_cached(x, y):
                lhs = a.comp(a.identity(x), m)
                yield ((m,), lhs, m, a.equal(lhs, m))
                rhs = a.comp(m, a.identity(y))
                yield ((m,), rhs, m, a.equal(rhs, m))

    return [laws._report("arrow.unit", name, unit(), "structural")]


def _reference_bimodule_units(b, name):
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

    def m_unit():
        for x, y in itertools.product(objs, repeat=2):
            e0 = b.e(x, y)
            for e in b.hom_cached(x, y):
                lhs = b.m(e0, e)
                yield ((e,), lhs, e, b.equal(lhs, e))
                rhs = b.m(e, e0)
                yield ((e,), rhs, e, b.equal(rhs, e))

    trials = [lact_unit(), ract_unit()] + ([m_unit()] if b.m is not None else [])
    return [
        laws._report(law, name, t, "structural")
        for law, t in zip(
            ("bimodule.lact-unit", "bimodule.ract-unit", "eqmonoid.m-unit"), trials
        )
    ]


def _reference_graded_units(
    g, name, iso_id=FinFun.identity, iso_comp=laws._default_iso_comp
):
    base, objs, grades = g.base, g.objects, g.grades
    gs = g.grade_structural

    def unit():
        for p in grades:
            for x, y in itertools.product(objs, repeat=2):
                for e in g.hom(p, x, y):
                    lhs = g.regrade(gs("lunit", (p,)), g.gcomp(g.unit(base.id(x)), e))
                    yield ((e,), lhs, e, g.equal(lhs, e))
                    rhs = g.regrade(gs("runit", (p,)), g.gcomp(e, g.unit(base.id(y))))
                    yield ((e,), rhs, e, g.equal(rhs, e))

    def regrade():
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

    return [
        laws._report("graded.unit", name, unit(), "structural"),
        laws._report("graded.regrade", name, regrade(), "structural"),
    ]


def _reference_gbim_units(gb, name):
    g = gb.arrow
    base, objects = g.base, g.objects
    gs = g.grade_structural

    def lact_unit():
        for q in g.grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in gb.hom(q, x, y):
                    acted = gb.glact(g.unit(base.id(x)), e)
                    lhs = gb.regrade(gs("lunit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    def ract_unit():
        for q in g.grades:
            for x, y in itertools.product(objects, repeat=2):
                for e in gb.hom(q, x, y):
                    acted = gb.gract(e, g.unit(base.id(y)))
                    lhs = gb.regrade(gs("runit", (q,)), acted)
                    yield ((e,), lhs, e, gb.equal(lhs, e))

    return [
        laws._report("gbim.lact-unit", name, lact_unit(), "structural"),
        laws._report("gbim.ract-unit", name, ract_unit(), "structural"),
    ]


def _checked_bimodule_units(b, name):
    return laws.check_bimodule(b, name) + laws.check_eqmonoid(b, name)


# kind -> (the runner its mutants hand it to, checker, reference)
_NEUTRAL_KINDS = {
    "arrow": ("_run_tag_arrow", laws.check_arrow_laws, _reference_arrow_unit),
    "bimodule": ("_run_bimodule", _checked_bimodule_units, _reference_bimodule_units),
    "graded": ("check_graded", laws.check_graded, _reference_graded_units),
    "gbim": ("_run_gbim", laws.check_graded_bimodule, _reference_gbim_units),
}


def _neutral_pair(kind, got, name, **iso_args):
    # the checker's identity-law reports and the reference's
    _, checker, reference = _NEUTRAL_KINDS[kind]
    checked = [r for r in checker(got, name, **iso_args) if r.law in _NEUTRAL_LAWS]
    return checked, reference(got, name, **iso_args)


@pytest.mark.parametrize("target", _NEUTRAL_LAWS)
def test_identity_laws_match_their_own_loops_on_mutants(target):
    kind = target.split(".")[0].replace("eqmonoid", "bimodule")
    got, want = _neutral_pair(kind, _captured(target, _NEUTRAL_KINDS[kind][0]), target)
    assert got == want
    assert target in {r.law for r in got if r.status == "fail"}


def _neutral_suite_instance(kind, instance):
    # the size-1 suite instances, as the ``_suite_*`` helpers capture them
    if kind == "arrow":
        return _suite_arrows(1)[instance], {}
    if kind == "bimodule":
        return _suite_bimodules(1)[instance], {}
    if kind == "graded":
        return _suite_graded(1)[0][instance]
    return _suite_gbims(1)[instance][0], {}


@pytest.mark.parametrize("kind,instance", [
    *(("arrow", n) for n in sorted(_suite_arrows(1))),
    *(("bimodule", n) for n in sorted(_suite_bimodules(1))),
    ("graded", "param(lens)"), ("graded", "twisted(set)"),
    ("gbim", "bestresp(lens)"), ("gbim", "probequib(lens)"),
])
def test_identity_laws_match_their_own_loops_on_suites(kind, instance):
    got, iso_args = _neutral_suite_instance(kind, instance)
    checked, want = _neutral_pair(kind, got, instance, **iso_args)
    assert checked == want
    assert checked and {r.status for r in checked} == {"pass"}


# -- keys of the registered families -------------------------------------------
#
# The chases above decide cases by comparing interned numbers, which needs
# "key-equal implies equal"; a family without a key is numbered by identity,
# whose tables grow with the case count.

def _with_composites(pool, comp):
    return pool + [
        comp(m1, m2) for m1 in pool for m2 in pool
        if m1.dst == m2.src
    ]


@pytest.mark.parametrize("target", _ARROW_MUTANTS)
def test_tag_arrow_keys_decide_equality(target):
    a = _captured(target, "_run_tag_arrow")
    pool = [
        m for x, y in itertools.product(a.objects, repeat=2)
        for m in a.hom_cached(x, y)
    ]
    _assert_keys_decide_equality(a, _with_composites(pool, a.comp))


def _graded_pool(g):
    return [
        e for p in g.grades for x, y in itertools.product(g.objects, repeat=2)
        for e in g.hom(p, x, y)
    ]


@pytest.mark.parametrize("target", _GRADED_MUTANTS)
def test_tag_graded_keys_decide_equality(target):
    g = _captured(target, "check_graded")
    _assert_keys_decide_equality(g, _with_composites(_graded_pool(g), g.gcomp))


def test_twisted_keys_decide_equality():
    # twisted(set)'s grades include two maps between the same residuals, so
    # a key without the grade would merge unequal members
    g, _ = _suite_graded(1)[0]["twisted(set)"]
    _assert_keys_decide_equality(g, _with_composites(_graded_pool(g), g.gcomp))


_CHECKERS = (
    "check_arrow_laws", "check_strength", "check_bimodule",
    "check_eqmonoid", "check_context", "check_graded", "check_graded_bimodule",
)


def test_every_registered_family_has_a_key():
    # every arrow, graded arrow, bimodule, context and graded bimodule that
    # the size-1 suites or the mutants hand to a checker, and the (graded)
    # arrow each bimodule is acted on by
    seen = []

    def record(got, *args, **kwargs):
        seen.append(got)
        return []

    with pytest.MonkeyPatch.context() as mp:
        for checker in _CHECKERS:
            for module in (laws, mutants):
                if hasattr(module, checker):
                    mp.setattr(module, checker, record)
        for suite in laws._SUITE_FNS.values():
            suite(1)
        for thunk in mutants.MUTANTS.values():
            thunk()
    assert len(seen) > len(mutants.MUTANTS)
    unkeyed = []
    for got in seen:
        for f in (got, getattr(got, "arrow", got)):
            if f.key is None:
                unkeyed.append((type(got).__name__, f.name))
    assert unkeyed == []
