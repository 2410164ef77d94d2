"""The law harness itself: manifest coverage, refusals, and planted defects."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from openarrows import laws
from openarrows.arrow import hom_arrow
from openarrows.base import PAIR_I, SET, bit_set, pair_atoms
from openarrows.bimodule import EqFun, ctx_of_arrow, eq_from_context, with_eq
from openarrows.finset import BOOL_AND, UNIT
from openarrows.grading import SizeError
from openarrows.laws import (
    CHECKER_LAWS,
    LAWS,
    MUTANTS,
    run_mutants,
    run_suite,
)
from openarrows.lens import LENS_PROJECTIONS, lens_arrow
from openarrows.optic import lens_optic_context, optic_arrow


def test_manifest_covers_every_emittable_law():
    emitted = set()
    for laws in CHECKER_LAWS.values():
        emitted |= set(laws)
    assert emitted == set(LAWS)
    assert set(MUTANTS) == set(LAWS)


def test_reports_carry_known_ids_and_statuses():
    for r in run_suite("optic"):
        assert r.law in LAWS
        assert r.status in ("pass", "fail", "unknown")
        assert r.checked > 0


def test_every_mutant_fails_exactly_its_target():
    for result in run_mutants():
        assert result.failed == (result.target,), (
            f"mutant for {result.target} broke {result.failed}"
        )
        assert result.isolated


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
        for y, z, w in itertools.product(objs, repeat=3):
            for x in objs:
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
        mp.setattr(laws, runner, seen.append)
        laws.MUTANTS[target]()
    (got,) = seen
    return getattr(got, "bimodule", got)


def _keyless(b):
    return dataclasses.replace(b, key=None, _hom_cache={}, _index_cache={})


_BIMODULE_MUTANTS = sorted(
    t for t in laws.MUTANTS if t.startswith(("bimodule.", "eqmonoid."))
)
_CONTEXT_MUTANTS = sorted(t for t in laws.MUTANTS if t.startswith("costrength."))


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
    ctx2 = ctx_of_arrow(lens_arrow(atoms2), LENS_PROJECTIONS)
    octx = lens_optic_context(lens_arrow(atoms2), [PAIR_I, atoms2[0]])
    return {
        "ctx(lens)": ctx_of_arrow(lens_arrow(atoms3), LENS_PROJECTIONS).bimodule,
        "eq(lens,bool)": eq_from_context(ctx2, BOOL_AND),
        "opticctx(lens)": octx.bimodule,
    }


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("instance", ["ctx(lens)", "eq(lens,bool)", "opticctx(lens)"])
def test_interned_bimodule_laws_match_per_case_chasing_on_suites(instance, size):
    b = _suite_bimodules(size)[instance]
    assert _checked_bimodule(b, instance) == _reference_bimodule(b, instance)


def test_keyless_members_are_numbered_by_identity_not_equality():
    # True == 1 in Python, but this bimodule's equal tells the tags apart, so
    # (swap ; swap) acting differs from swap acting twice by tag type alone
    b = laws._tag_bimodule(
        [laws._B2], (0, 1),
        lambda a, t: bool(t) if laws._is_id_fun(a) else int(t), laws._honest_psi,
    )
    b = dataclasses.replace(
        _keyless(b),
        equal=lambda e1, e2: e1 == e2 and type(e1.tag) is type(e2.tag),
    )
    got = _checked_bimodule(b, "bool-tags")
    assert got == _reference_bimodule(b, "bool-tags")
    assert got[0].status == "fail"


def test_equal_values_at_different_endpoints_stay_apart():
    x, y = pair_atoms((2, 1), (1, 2))
    eq = _suite_bimodules(2)["eq(lens,bool)"]
    num = laws._Interned(eq.key, eq.src, eq.dst)
    h, h_flipped = EqFun(x, y, (True,)), EqFun(y, x, (True,))
    assert eq.key(h) == eq.key(h_flipped)
    assert num(h) != num(h_flipped)
    assert num(EqFun(x, y, (True,))) == num(h)
    assert num.reps[num(h_flipped)] is h_flipped


def _keyed_assoc_mutant():
    a = _captured("arrow.assoc", "_run_tag_arrow")
    return dataclasses.replace(
        a, key=lambda m: (m.fun.table, m.tag), _hom_cache={}
    )


def _keyed_arrows():
    atoms3 = pair_atoms((1, 1), (2, 1), (1, 2))
    lens2 = lens_arrow(atoms3[:2])
    return {
        "hom(set)": hom_arrow(SET, [UNIT, bit_set(2)]),
        "lens": lens_arrow(atoms3),
        "witheq(lens,bool)": with_eq(
            lens2, ctx_of_arrow(lens2, LENS_PROJECTIONS), BOOL_AND
        ),
        "optic(set)": optic_arrow(atoms3),
        "keyed arrow.assoc mutant": _keyed_assoc_mutant(),
    }


@pytest.mark.parametrize("instance", sorted(_keyed_arrows()))
def test_interned_assoc_matches_per_case_chasing(instance):
    a = _keyed_arrows()[instance]
    assert a.key is not None
    (got,) = [r for r in laws.check_arrow_laws(a, instance) if r.law == "arrow.assoc"]
    assert got == _reference_assoc(a, instance)
    assert got.status == ("fail" if "mutant" in instance else "pass")
