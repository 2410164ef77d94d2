"""Finite sets, extensional functions, monoids and exact finite distributions.

Everything downstream (lenses, arrows, games) is interpreted over this
substrate.  Carriers are explicitly enumerated and functions are stored as
tables, so equality of any two values is decidable by comparing tables.
All probability is exact rational arithmetic; there are no tolerances
anywhere in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping

Rat = Fraction

STAR = "*"


class DomainError(ValueError):
    """An element or function was used outside its declared carrier."""


class CompositionError(ValueError):
    """Endpoint mismatch when composing functions or morphisms."""


@dataclass(frozen=True)
class FinSet:
    """An explicitly enumerated finite set with a stable element order."""

    elements: tuple

    def __init__(self, elements: Iterable):
        elems = tuple(elements)
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise DomainError(f"duplicate elements in carrier: {elems!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", index)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"{x!r} is not an element of {self}") from None

    def __repr__(self) -> str:
        return "{" + ", ".join(map(str, self.elements)) + "}"


UNIT = FinSet((STAR,))


#: (id(a), id(b)) -> (a, b, a x b).  An entry keeps its operands alive, so
#: no other object can take their ids while it is cached.
_PRODUCTS: dict = {}
_PRODUCTS_MAX = 4096  # entries; the memo is emptied when it is full


def product(a: FinSet, b: FinSet) -> FinSet:
    """Cartesian product; elements are 2-tuples in row-major order.

    Memoised on the identity of the operands, not on equality: carriers
    that compare equal may hold different elements (``FinSet((1, 0)) ==
    FinSet((True, False))``), and the product must carry the caller's own.
    """
    key = (id(a), id(b))
    hit = _PRODUCTS.get(key)
    if hit is not None:
        return hit[2]
    if len(_PRODUCTS) >= _PRODUCTS_MAX:
        _PRODUCTS.clear()
    out = FinSet(tuple(itertools.product(a.elements, b.elements)))
    _PRODUCTS[key] = (a, b, out)
    return out


@dataclass(frozen=True)
class FinFun:
    """A total function between finite sets, stored positionally.

    ``table[i]`` is the image of ``dom.elements[i]``.  Equality is
    extensional: same dom, cod and table.  The public constructor checks
    the table's length and images; the identities, composites, inverses,
    tensors, structural isos and enumerations below are tables by
    construction, so they go through ``_trusted``, which checks nothing.
    """

    dom: FinSet
    cod: FinSet
    table: tuple

    def __post_init__(self):
        if len(self.table) != len(self.dom.elements):
            raise DomainError("table length does not match domain size")
        if not self.cod._index.keys() >= set(self.table):
            y = next(y for y in self.table if y not in self.cod)
            raise DomainError(f"image {y!r} not in codomain {self.cod}")

    @classmethod
    def _trusted(cls, dom: FinSet, cod: FinSet, table: tuple) -> "FinFun":
        """From a table already known to be total into ``cod``; checks nothing."""
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "table", table)
        return f

    @staticmethod
    def of(dom: FinSet, cod: FinSet, fn: Callable | Mapping) -> "FinFun":
        """Tabulate a callable, or else anything with ``__getitem__``."""
        get = fn if callable(fn) else fn.__getitem__
        return FinFun(dom, cod, tuple(map(get, dom.elements)))

    @staticmethod
    def identity(a: FinSet) -> "FinFun":
        return FinFun._trusted(a, a, a.elements)

    def __call__(self, x):
        return self.table[self.dom.index(x)]

    # morphism-protocol aliases used by the arrow machinery
    @property
    def src(self) -> FinSet:
        return self.dom

    @property
    def dst(self) -> FinSet:
        return self.cod

    def is_bijection(self) -> bool:
        return len(set(self.table)) == len(self.cod) == len(self.dom)

    def inverse(self) -> "FinFun":
        if not self.is_bijection():
            raise DomainError(f"{self} is not a bijection")
        back = [None] * len(self.cod)
        at = self.cod._index
        for x, y in zip(self.dom.elements, self.table):
            back[at[y]] = x
        return FinFun._trusted(self.cod, self.dom, tuple(back))


def fun_compose(f: FinFun, g: FinFun) -> FinFun:
    """Diagrammatic composition: first f, then g."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise CompositionError(
            f"cannot compose {f.dom}->{f.cod} with {g.dom}->{g.cod}"
        )
    table = tuple(map(g.table.__getitem__, map(g.dom._index.__getitem__, f.table)))
    return FinFun._trusted(f.dom, g.cod, table)


def all_funs(a: FinSet, b: FinSet) -> list[FinFun]:
    """All |b|^|a| functions from a to b, in a deterministic order."""
    return [
        FinFun._trusted(a, b, images)
        for images in itertools.product(b.elements, repeat=len(a))
    ]


def all_bijections(a: FinSet, b: FinSet) -> list[FinFun]:
    if len(a) != len(b):
        return []
    return [
        FinFun._trusted(a, b, perm) for perm in itertools.permutations(b.elements)
    ]


def tensor_fun(f: FinFun, g: FinFun) -> FinFun:
    """f x g on product carriers; both are row-major, so the table is too."""
    return FinFun._trusted(
        product(f.dom, g.dom),
        product(f.cod, g.cod),
        tuple(itertools.product(f.table, g.table)),
    )


# -- canonical structural bijections ----------------------------------------
#
# Products are row-major, so each iso's table is read off its codomain's
# elements by position.

def sym_iso(a: FinSet, b: FinSet) -> FinFun:
    """(x, y) |-> (y, x)."""
    # (x_i, y_j) sits at i*|b| + j, and (y_j, x_i) at j*|a| + i
    cod, n_a, n_b = product(b, a), len(a), len(b)
    ce = cod.elements
    table = tuple(ce[j * n_a + i] for i in range(n_a) for j in range(n_b))
    return FinFun._trusted(product(a, b), cod, table)


def assoc_iso(a: FinSet, b: FinSet, c: FinSet) -> FinFun:
    """((x, y), z) |-> (x, (y, z)); both sit at (i*|b| + j)*|c| + k."""
    cod = product(a, product(b, c))
    return FinFun._trusted(product(product(a, b), c), cod, cod.elements)


def runit_iso(a: FinSet) -> FinFun:
    """(x, *) |-> x."""
    return FinFun._trusted(product(a, UNIT), a, a.elements)


def lunit_iso(a: FinSet) -> FinFun:
    """(*, x) |-> x."""
    return FinFun._trusted(product(UNIT, a), a, a.elements)


def structural_iso(kind: str, *sets: FinSet) -> FinFun:
    """Dispatch on {assoc, unitor, lunitor, symmetry} by name."""
    builders = {
        "assoc": assoc_iso,
        "symmetry": sym_iso,
        "unitor": runit_iso,
        "lunitor": lunit_iso,
    }
    if kind not in builders:
        raise DomainError(f"unknown structural iso kind {kind!r}")
    try:
        return builders[kind](*sets)
    except TypeError:
        raise DomainError(
            f"malformed shape for {kind!r}: expected "
            f"{'3' if kind == 'assoc' else '2' if kind == 'symmetry' else '1'}"
            f" carriers, got {len(sets)}"
        ) from None


# -- monoids ----------------------------------------------------------------

@dataclass(frozen=True)
class Monoid:
    """A monoid, possibly over an infinite designated carrier.

    ``carrier`` is a FinSet when the monoid is finite and None otherwise
    (exhaustive law checks only apply in the finite case).
    """

    name: str
    op: Callable[[Any, Any], Any]
    unit: Any
    commutative: bool = True
    carrier: FinSet | None = None


BOOL_AND = Monoid("bool-and", lambda a, b: a and b, True, carrier=FinSet((True, False)))


def _multiset_union(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, key=repr))


#: Deviation witnesses: finite multisets (sorted tuples) under union.
WITNESSES = Monoid("witness-multiset", _multiset_union, ())


def witnesses_empty(w: tuple) -> bool:
    """The monoid homomorphism WITNESSES -> BOOL_AND."""
    return w == ()


# -- exact finite distributions ---------------------------------------------

@dataclass(frozen=True)
class Dist:
    """A finite distribution with exact rational weights summing to 1.

    Zero-weight points are dropped; the support is kept sorted by repr so
    equal distributions compare equal.  The public constructor checks
    every weight and the total.  ``map``, ``dist_bind`` and ``dist_pure``
    build distributions that are valid by construction, so they go
    through ``_trusted``, which merges, drops zeros and sorts the same
    way but validates nothing.
    """

    weights: tuple  # tuple of (element, Fraction) pairs

    def __init__(self, weights):
        items = [(x, Fraction(w)) for x, w in (
            weights.items() if isinstance(weights, Mapping) else weights
        )]
        for x, w in items:
            if w < 0:
                raise DomainError(f"negative weight {w} at {x!r}")
        total = sum((w for _, w in items), Fraction(0))
        if total != 1:
            raise DomainError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", _support(items))

    @classmethod
    def _trusted(cls, pairs) -> "Dist":
        """From (element, Fraction) pairs already known to form a distribution."""
        d = object.__new__(cls)
        object.__setattr__(d, "weights", _support(pairs))
        return d

    @property
    def support(self) -> tuple:
        return tuple(x for x, _ in self.weights)

    def weight(self, x) -> Fraction:
        for y, w in self.weights:
            if y == x:
                return w
        return Fraction(0)

    def map(self, f: Callable) -> "Dist":
        return Dist._trusted([(f(x), w) for x, w in self.weights])

    def __repr__(self) -> str:
        return "Dist(" + ", ".join(f"{x}: {w}" for x, w in self.weights) + ")"


def _support(pairs: list) -> tuple:
    # merge equal points, drop zero weights, sort by repr
    if len(pairs) == 1:  # nothing to merge or sort
        return tuple(pairs) if pairs[0][1] != 0 else ()
    merged: dict = {}
    for x, w in pairs:
        merged[x] = merged[x] + w if x in merged else w
    return tuple(sorted(
        ((x, w) for x, w in merged.items() if w != 0), key=lambda p: repr(p[0])
    ))


def dist_pure(x) -> Dist:
    return Dist._trusted([(x, Fraction(1))])


def dist_bind(d: Dist, k: Callable[[Any], Dist]) -> Dist:
    out: list = []
    for x, w in d.weights:
        dx = k(x)
        if not isinstance(dx, Dist):
            raise DomainError(f"continuation returned non-distribution at {x!r}")
        out.extend((y, w * v) for y, v in dx.weights)
    return Dist._trusted(out)


def dist_product(d1: Dist, d2: Dist) -> Dist:
    return dist_bind(d1, lambda x: d2.map(lambda y: (x, y)))
