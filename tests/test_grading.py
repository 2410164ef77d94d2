"""Strategy families, parameterised morphisms, and family equality."""

from __future__ import annotations

import pytest

from openarrows.base import PAIR, PAIR_I, PairObj, bit_set
from openarrows.finset import FinSet, product
from openarrows.grading import (
    ParamFamily,
    SizeError,
    fam,
    grade_by_param,
    para,
)
from openarrows.lens import Lens, lens_arrow

B = bit_set(2)
I = PAIR_I
X = PairObj(B, B)
GRADES = [FinSet((0,)), FinSet((0, 1))]


def _pool(x, y):
    # two cheap representatives; enumerating all lenses at tensored
    # carriers would build tens of thousands of tables
    from openarrows.finset import FinFun

    bwd = FinFun.of(product(x.fwd, y.bwd), x.bwd, lambda _t: x.bwd.elements[0])
    return [
        Lens(x, y, FinFun.of(x.fwd, y.fwd, lambda _v, e=e: e), bwd)
        for e in y.fwd.elements[:2]
    ]


LENS = lens_arrow([I, X])
FAM = fam(LENS, GRADES, member_pool=_pool)


def _sample(x, y, n):
    es = FAM.hom_cached(x, y)
    assert len(es) >= n
    return es[:n]


def test_fam_unit_up_to_relabelling():
    for e in _sample(X, X, 4):
        lhs = FAM.comp(FAM.pure(PAIR.id(X)), e)
        rhs = FAM.comp(e, FAM.pure(PAIR.id(X)))
        # composite indices are 1 x J and J x 1: equal only up to bijection
        assert FAM.equal(lhs, e) is True
        assert FAM.equal(rhs, e) is True


def test_fam_assoc_up_to_relabelling():
    es = _sample(X, X, 3)
    e1, e2, e3 = es
    lhs = FAM.comp(FAM.comp(e1, e2), e3)
    rhs = FAM.comp(e1, FAM.comp(e2, e3))
    assert lhs.grade != rhs.grade  # (J x K) x L vs J x (K x L)
    assert FAM.equal(lhs, rhs) is True


def _family(index, fn):
    return ParamFamily(X, X, index, tuple(fn(j) for j in index))


def test_fam_equal_is_an_equivalence():
    es = _sample(X, X, 6)
    for e in es:
        assert FAM.equal(e, e)
    for a in es:
        for b in es:
            assert FAM.equal(a, b) == FAM.equal(b, a)
            for c in es:
                if FAM.equal(a, b) and FAM.equal(b, c):
                    assert FAM.equal(a, c)


def test_fam_equal_ignores_index_labels():
    m1, m2 = _pool(X, X)
    e = _family(FinSet((0, 1)), lambda j: (m1, m2)[j])
    relabeled = _family(FinSet(("a", "b")), lambda j: (m2, m1)[j == "a"])
    assert FAM.equal(e, relabeled)
    different = _family(FinSet((0, 1)), lambda j: m1)
    assert not FAM.equal(e, different)
    assert not FAM.equal(e, ParamFamily(X, X, FinSet((0,)), (m1,)))


def test_fam_equal_is_a_congruence():
    m1, m2 = _pool(X, X)
    e = _family(FinSet((0, 1)), lambda j: (m1, m2)[j])
    ep = _family(FinSet((1, 0)), lambda j: (m1, m2)[j])
    f = ParamFamily(X, X, FinSet((0,)), (m2,))
    assert FAM.equal(FAM.comp(e, f), FAM.comp(ep, f))


def test_fam_equal_refuses_oversize_indices():
    m1, _ = _pool(X, X)
    big = _family(FinSet(tuple(range(3))), lambda j: m1)
    with pytest.raises(SizeError):
        fam(LENS, bound=2).equal(big, big)


def test_para_composition_tensors_parameters():
    P = para(lens_arrow([I, X]), [I, X], member_pool=_pool)
    ms = P.hom_cached(X, X)
    assert any(p.param == X for p in ms)
    p1 = next(p for p in ms if p.param == X)
    p2 = next(p for p in ms if p.param == I)
    c = P.comp(p1, p2)
    assert c.param == PAIR.tensor(p1.param, p2.param)
    assert P.equal(P.comp(P.pure(PAIR.id(X)), p1), p1) is True


def test_graded_composition_multiplies_grades():
    G = grade_by_param(LENS, GRADES, member_pool=_pool)
    e1 = G.hom(GRADES[1], X, X)[0]
    e2 = G.hom(GRADES[1], X, X)[1]
    out = G.gcomp(e1, e2)
    assert out.grade == product(GRADES[1], GRADES[1])
    assert out.member((0, 1)) == LENS.comp(e1.member(0), e2.member(1))
