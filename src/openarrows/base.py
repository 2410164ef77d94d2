"""The base categories the arrow machinery is instantiated over.

Three bases are provided:

* ``SetBase`` -- finite sets and functions, monoidal via the cartesian
  product.  This is the base for optics.
* ``PairBase`` -- pairs of finite sets with a covariant and a contravariant
  component; morphisms are pairs (forward function, backward function).
  This is the base for lenses and open games.
* ``MonoidBase`` -- a synthetic one-object base whose morphisms form a
  given commutative monoid.  Used by the law harness to build surgical
  mutant instances.

A base exposes objects with a tensor and unit, morphism enumeration, and
the canonical structural isomorphisms.  All structural isos are honest
bijections on tuple carriers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finset import (
    UNIT,
    CompositionError,
    FinFun,
    FinSet,
    all_bijections,
    all_funs,
    assoc_iso,
    fun_compose,
    lunit_iso,
    product,
    runit_iso,
    sym_iso,
    tensor_fun,
)


@dataclass(frozen=True)
class PairObj:
    """An object of the pair base: covariant carrier fwd, contravariant bwd."""

    fwd: FinSet
    bwd: FinSet

    def __repr__(self) -> str:
        return f"({self.fwd!r}, {self.bwd!r})"


PAIR_I = PairObj(UNIT, UNIT)


@dataclass(frozen=True)
class BaseMap:
    """A morphism of the pair base.

    ``fwd`` runs with the covariant components, ``bwd`` runs against the
    contravariant ones (from the target's carrier back to the source's).
    """

    src: PairObj
    dst: PairObj
    fwd: FinFun
    bwd: FinFun

    def __post_init__(self):
        if self.fwd.dom != self.src.fwd or self.fwd.cod != self.dst.fwd:
            raise CompositionError("forward component has wrong endpoints")
        if self.bwd.dom != self.dst.bwd or self.bwd.cod != self.src.bwd:
            raise CompositionError("backward component has wrong endpoints")


class SetBase:
    """Finite sets with the cartesian monoidal structure."""

    name = "set"
    unit = UNIT

    def tensor(self, a: FinSet, b: FinSet) -> FinSet:
        return product(a, b)

    def id(self, a: FinSet) -> FinFun:
        return FinFun.identity(a)

    def src(self, f: FinFun) -> FinSet:
        return f.dom

    def dst(self, f: FinFun) -> FinSet:
        return f.cod

    def compose(self, f: FinFun, g: FinFun) -> FinFun:
        return fun_compose(f, g)

    def tensor_mor(self, f: FinFun, g: FinFun) -> FinFun:
        return tensor_fun(f, g)

    def inv(self, f: FinFun) -> FinFun:
        return f.inverse()

    def sym(self, a: FinSet, b: FinSet) -> FinFun:
        return sym_iso(a, b)

    def assoc(self, a: FinSet, b: FinSet, c: FinSet) -> FinFun:
        return assoc_iso(a, b, c)

    def runit(self, a: FinSet) -> FinFun:
        return runit_iso(a)

    def lunit(self, a: FinSet) -> FinFun:
        return lunit_iso(a)

    def morphisms(self, a: FinSet, b: FinSet) -> list[FinFun]:
        return all_funs(a, b)

    def isos(self, a: FinSet, b: FinSet) -> list[FinFun]:
        return all_bijections(a, b)

    def mor_key(self, f: FinFun):
        return (f.dom.elements, f.cod.elements, f.table)


class PairBase:
    """The product of finite sets with an opposite second component."""

    name = "pair"
    unit = PAIR_I
    _TENSORS_MAX = 4096  # entries; the memo is emptied when it is full

    def __init__(self):
        #: (id(a), id(b)) -> (a, b, a (x) b).  An entry keeps its operands
        #: alive, so no other object can take their ids while it is cached.
        self._tensors: dict = {}

    def tensor(self, a: PairObj, b: PairObj) -> PairObj:
        """Memoised on the identity of the operands, as ``product`` is.

        Objects that compare equal may hold different elements, and the
        tensor must carry the caller's own.
        """
        key = (id(a), id(b))
        hit = self._tensors.get(key)
        if hit is not None:
            return hit[2]
        if len(self._tensors) >= self._TENSORS_MAX:
            self._tensors.clear()
        out = PairObj(product(a.fwd, b.fwd), product(a.bwd, b.bwd))
        self._tensors[key] = (a, b, out)
        return out

    def id(self, a: PairObj) -> BaseMap:
        return BaseMap(a, a, FinFun.identity(a.fwd), FinFun.identity(a.bwd))

    def src(self, f: BaseMap) -> PairObj:
        return f.src

    def dst(self, f: BaseMap) -> PairObj:
        return f.dst

    def compose(self, f: BaseMap, g: BaseMap) -> BaseMap:
        if f.dst != g.src:
            raise CompositionError(f"cannot compose {f.src}->{f.dst} with {g.src}->{g.dst}")
        return BaseMap(
            f.src, g.dst, fun_compose(f.fwd, g.fwd), fun_compose(g.bwd, f.bwd)
        )

    def tensor_mor(self, f: BaseMap, g: BaseMap) -> BaseMap:
        return BaseMap(
            self.tensor(f.src, g.src),
            self.tensor(f.dst, g.dst),
            tensor_fun(f.fwd, g.fwd),
            tensor_fun(f.bwd, g.bwd),
        )

    def inv(self, f: BaseMap) -> BaseMap:
        return BaseMap(f.dst, f.src, f.fwd.inverse(), f.bwd.inverse())

    def sym(self, a: PairObj, b: PairObj) -> BaseMap:
        return BaseMap(
            self.tensor(a, b),
            self.tensor(b, a),
            sym_iso(a.fwd, b.fwd),
            sym_iso(b.bwd, a.bwd),
        )

    def assoc(self, a: PairObj, b: PairObj, c: PairObj) -> BaseMap:
        return BaseMap(
            self.tensor(self.tensor(a, b), c),
            self.tensor(a, self.tensor(b, c)),
            assoc_iso(a.fwd, b.fwd, c.fwd),
            assoc_iso(a.bwd, b.bwd, c.bwd).inverse(),
        )

    def runit(self, a: PairObj) -> BaseMap:
        return BaseMap(
            self.tensor(a, PAIR_I), a, runit_iso(a.fwd), runit_iso(a.bwd).inverse()
        )

    def lunit(self, a: PairObj) -> BaseMap:
        return BaseMap(
            self.tensor(PAIR_I, a), a, lunit_iso(a.fwd), lunit_iso(a.bwd).inverse()
        )

    def morphisms(self, a: PairObj, b: PairObj) -> list[BaseMap]:
        return [
            BaseMap(a, b, f, g)
            for f in all_funs(a.fwd, b.fwd)
            for g in all_funs(b.bwd, a.bwd)
        ]

    def isos(self, a: PairObj, b: PairObj) -> list[BaseMap]:
        return [
            BaseMap(a, b, f, g)
            for f in all_bijections(a.fwd, b.fwd)
            for g in all_bijections(b.bwd, a.bwd)
        ]

    def mor_key(self, f: BaseMap):
        return (SET.mor_key(f.fwd), SET.mor_key(f.bwd))


_OBJ = "<.>"


class MonoidBase:
    """One object; morphisms are elements of a commutative monoid table.

    ``op`` doubles as composition and tensor on morphisms, which is
    coherent exactly because the monoid is commutative.  All structural
    isomorphisms are the identity element.
    """

    name = "monoid"
    unit = _OBJ

    def __init__(self, elements: tuple, op_table: dict, unit_elem):
        self.elements = tuple(elements)
        self.table = dict(op_table)
        self.unit_elem = unit_elem
        for a in elements:
            for b in elements:
                if self.table[(a, b)] != self.table[(b, a)]:
                    raise ValueError("MonoidBase requires a commutative table")

    def tensor(self, a, b):
        return _OBJ

    def id(self, a):
        return self.unit_elem

    def src(self, f):
        return _OBJ

    def dst(self, f):
        return _OBJ

    def compose(self, f, g):
        return self.table[(f, g)]

    def tensor_mor(self, f, g):
        return self.table[(f, g)]

    def inv(self, f):
        for g in self.elements:
            if self.table[(f, g)] == self.unit_elem:
                return g
        raise ValueError(f"{f!r} is not invertible")

    def sym(self, a, b):
        return self.unit_elem

    def assoc(self, a, b, c):
        return self.unit_elem

    def runit(self, a):
        return self.unit_elem

    def lunit(self, a):
        return self.unit_elem

    def morphisms(self, a, b):
        return list(self.elements)

    def isos(self, a, b):
        return [f for f in self.elements if self._invertible(f)]

    def _invertible(self, f) -> bool:
        return any(self.table[(f, g)] == self.unit_elem for g in self.elements)

    def mor_key(self, f):
        return f


def cyclic_base(n: int) -> MonoidBase:
    """The one-object base on Z/n under addition."""
    elems = tuple(range(n))
    table = {(a, b): (a + b) % n for a in elems for b in elems}
    return MonoidBase(elems, table, 0)


SET = SetBase()
PAIR = PairBase()


def pair_atoms(*sizes: tuple[int, int]) -> list[PairObj]:
    """Pair objects with labelled bit-style carriers, e.g. (2, 1) -> ({0,1},{*})."""

    def carrier(n: int) -> FinSet:
        return UNIT if n == 1 else FinSet(tuple(range(n)))

    return [PairObj(carrier(a), carrier(b)) for a, b in sizes]


def obj_closure(base, atoms: list, depth: int = 1) -> list:
    """The atoms plus their pairwise tensors, up to the given nesting depth."""
    objs = list(atoms)
    frontier = list(atoms)
    for _ in range(depth):
        frontier = [base.tensor(x, y) for x in frontier for y in atoms]
        for o in frontier:
            if o not in objs:
                objs.append(o)
    return objs


def enumerate_base_isos(base, a, b) -> list:
    return base.isos(a, b)


def bit_set(n: int = 2) -> FinSet:
    return FinSet(tuple(range(n)))


def is_identity(base, f) -> bool:
    x = base.src(f)
    return f == base.id(x)


def iso_pairs(base, objs) -> list:
    """All (iso, inverse) pairs between registered objects; used in searches."""
    out = []
    for a, b in itertools.product(objs, repeat=2):
        for f in base.isos(a, b):
            out.append((f, base.inv(f)))
    return out
