"""Carrier-level basics: finite sets, functions, monoids, distributions."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from openarrows.finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    CompositionError,
    Dist,
    DomainError,
    FinFun,
    FinSet,
    all_bijections,
    all_funs,
    assoc_iso,
    dist_bind,
    dist_product,
    dist_pure,
    fun_compose,
    lunit_iso,
    product,
    runit_iso,
    structural_iso,
    sym_iso,
    tensor_fun,
    witnesses_empty,
)

B = FinSet((0, 1))
T = FinSet(("a", "b", "c"))


def test_finset_keeps_order_and_rejects_duplicates():
    assert FinSet((2, 0, 1)).elements == (2, 0, 1)
    with pytest.raises(DomainError):
        FinSet((0, 0))


def test_finfun_is_total_and_extensional():
    f = FinFun.of(B, B, lambda x: 1 - x)
    g = FinFun.of(B, B, {0: 1, 1: 0})
    assert f == g
    assert f(0) == 1 and f(1) == 0
    with pytest.raises(DomainError):
        f(2)


def test_fun_compose_checks_endpoints():
    f = FinFun.of(B, T, lambda x: "ab"[x])
    g = FinFun.of(T, B, lambda c: int(c == "b"))
    assert fun_compose(f, g)(0) == 0
    with pytest.raises(CompositionError):
        fun_compose(g, g)


def test_all_funs_counts_and_product_is_row_major():
    assert len(all_funs(B, T)) == 9
    assert product(B, B).elements == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert UNIT.elements == (STAR,)


def test_memoised_product_keeps_each_operands_elements():
    bools, ints = FinSet((True, False)), FinSet((1, 0))
    assert bools == ints  # equal carriers, different elements
    pb, pi = product(bools, bools), product(ints, ints)
    assert repr(pb) == "{(True, True), (True, False), (False, True), (False, False)}"
    assert repr(pi) == "{(1, 1), (1, 0), (0, 1), (0, 0)}"
    assert product(bools, bools) == pb and product(ints, ints) == pi
    with pytest.raises(DomainError):
        FinFun(B, B, (0, 2))
    with pytest.raises(DomainError):
        FinFun.of(pi, T, lambda p: "d")


# ---------- trusted tables equal the validating construction ----------
#
# Composites, tensors, structural isos, inverses and enumerations build their
# tables by position and skip validation; each must equal the function the
# public constructor tabulates from its defining formula.

_LABELS = ("p", "q", 0, 1, (0, 1))


def carriers(min_size: int = 0, max_size: int = 3):
    return st.lists(
        st.sampled_from(_LABELS), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda xs: FinSet(tuple(xs)))


def _fun(data, a: FinSet, b: FinSet) -> FinFun:
    return FinFun(a, b, data.draw(st.tuples(*[st.sampled_from(b.elements)] * len(a))))


@given(carriers(1), carriers(1), carriers(1), st.data())
def test_trusted_compose_matches_the_public_constructor(a, b, c, data):
    f, g = _fun(data, a, b), _fun(data, b, c)
    assert fun_compose(f, g) == FinFun.of(a, c, lambda x: g(f(x)))


@given(carriers(1), carriers(1), carriers(1), carriers(1), st.data())
def test_trusted_tensor_matches_the_public_constructor(a, b, c, d, data):
    f, g = _fun(data, a, b), _fun(data, c, d)
    public = FinFun.of(product(a, c), product(b, d), lambda xy: (f(xy[0]), g(xy[1])))
    assert tensor_fun(f, g) == public


@given(carriers(), carriers(), carriers())
def test_trusted_structural_isos_match_the_public_constructor(a, b, c):
    swapped = FinFun.of(product(a, b), product(b, a), lambda p: (p[1], p[0]))
    assert sym_iso(a, b) == swapped
    assert assoc_iso(a, b, c) == FinFun.of(
        product(product(a, b), c), product(a, product(b, c)),
        lambda p: (p[0][0], (p[0][1], p[1])),
    )
    assert runit_iso(a) == FinFun.of(product(a, UNIT), a, lambda p: p[0])
    assert lunit_iso(a) == FinFun.of(product(UNIT, a), a, lambda p: p[1])
    assert structural_iso("symmetry", a, b) == sym_iso(a, b)
    assert FinFun.identity(a) == FinFun.of(a, a, lambda x: x)


@given(carriers(), st.data())
def test_trusted_inverse_and_enumerations_match_the_public_constructor(a, data):
    perm = data.draw(st.permutations(a.elements))
    b = FinSet(perm)
    f = FinFun(a, b, data.draw(st.permutations(b.elements)))
    assert f.inverse() == FinFun.of(b, a, {y: x for x, y in zip(a, f.table)})
    images = itertools.product(b.elements, repeat=len(a))
    assert all_funs(a, b) == [FinFun(a, b, t) for t in images]
    perms = itertools.permutations(b.elements)
    assert all_bijections(a, b) == [FinFun(a, b, t) for t in perms]


def test_public_finfun_still_validates_its_table():
    with pytest.raises(DomainError, match="table length"):
        FinFun(B, B, (0,))
    with pytest.raises(DomainError, match="not in codomain"):
        FinFun(B, B, (0, 2))
    with pytest.raises(DomainError, match="not in codomain"):
        FinFun.of(B, T, lambda x: x)


def test_monoid_basics():
    assert BOOL_AND.op(True, False) is False
    assert WITNESSES.op(("a",), ("a", "b")) == ("a", "a", "b")
    assert witnesses_empty(WITNESSES.unit)


# ---------- distribution monad laws ----------

_POOL = ("x", "y", "z")


@st.composite
def dists(draw) -> Dist:
    support = draw(
        st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True)
    )
    # denominators stay <= 4 so every weight is a small exact rational
    raw = [draw(st.integers(min_value=0, max_value=4)) for _ in support]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return Dist([(x, Fraction(n, total)) for x, n in zip(support, raw)])


def _k1(x: str) -> Dist:
    return dist_pure(x.upper())


def _k2(x: str) -> Dist:
    if x == "X":
        return Dist([("u", Fraction(1, 2)), ("v", Fraction(1, 2))])
    return dist_pure(x.lower())


@given(st.sampled_from(_POOL))
def test_dist_left_identity(x: str):
    assert dist_bind(dist_pure(x), _k1) == _k1(x)


@given(dists())
def test_dist_right_identity(d: Dist):
    assert dist_bind(d, dist_pure) == d


@given(dists())
def test_dist_associativity(d: Dist):
    lhs = dist_bind(dist_bind(d, _k1), _k2)
    rhs = dist_bind(d, lambda x: dist_bind(_k1(x), _k2))
    assert lhs == rhs


@given(dists())
def test_dist_weights_stay_exact(d: Dist):
    assert sum(w for _, w in d.weights) == 1
    assert all(isinstance(w, Fraction) and w > 0 for _, w in d.weights)


_IMAGES = ("y", "x", 10, 9, ("x", 0))


@given(dists(), st.fixed_dictionaries({x: st.sampled_from(_IMAGES) for x in _POOL}))
def test_trusted_map_matches_the_public_constructor(d: Dist, f: dict):
    # images may merge and their reprs sort apart from the input order
    public = Dist([(f[x], w) for x, w in d.weights])
    assert d.map(f.__getitem__).weights == public.weights


@given(dists(), st.fixed_dictionaries({x: dists() for x in _POOL}))
def test_trusted_bind_matches_the_public_constructor(d: Dist, k: dict):
    public = Dist([(y, w * v) for x, w in d.weights for y, v in k[x].weights])
    assert dist_bind(d, k.__getitem__).weights == public.weights


def test_public_dist_still_validates_every_weight_and_the_total():
    with pytest.raises(DomainError, match="negative weight"):
        Dist([("x", Fraction(3, 2)), ("y", Fraction(-1, 2))])
    with pytest.raises(DomainError, match="sum to 2"):
        Dist([("x", 1), ("y", 1)])


def test_inverse_undoes_every_bijection_and_refuses_the_rest():
    a, b = FinSet(("p", "q", "r")), FinSet((2, 0, 1))
    for f in all_funs(a, b):
        if not f.is_bijection():
            with pytest.raises(DomainError):
                f.inverse()
            continue
        assert fun_compose(f, f.inverse()) == FinFun.identity(a)
        assert fun_compose(f.inverse(), f) == FinFun.identity(b)


def test_dist_normalizes_support():
    d = Dist([("x", Fraction(1, 2)), ("x", Fraction(1, 2)), ("y", Fraction(0))])
    assert d == dist_pure("x")
    with pytest.raises(DomainError):
        Dist([("x", Fraction(1, 2))])


def test_dist_product_and_expectation():
    d = Dist([(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    assert dist_product(dist_pure("l"), d).weight(("l", 1)) == Fraction(3, 4)
