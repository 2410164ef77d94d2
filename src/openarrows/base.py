"""The base categories the arrow machinery is instantiated over.

Two bases are provided:

* ``SetBase`` -- finite sets and functions, monoidal via the cartesian
  product.  This is the base for optics.
* ``PairBase`` -- pairs of finite sets with a covariant and a contravariant
  component; morphisms are pairs (forward function, backward function).
  This is the base for lenses and open games.

A base exposes objects with a tensor and unit, morphism enumeration, and
the canonical structural isomorphisms.  All structural isos are honest
bijections on tuple carriers.
"""

from __future__ import annotations

from .finset import (
    UNIT,
    CompositionError,
    FinFun,
    FinSet,
    all_bijections,
    all_funs,
    assoc_iso,
    fun_compose,
    identity_memo,
    lunit_iso,
    product,
    runit_iso,
    sym_iso,
    tensor_fun,
)
from .record import record


@record(frozen=True)
class PairObj:
    """An object of the pair base: covariant carrier fwd, contravariant bwd.

    Its hash is the record hash, ``hash((fwd, bwd))``, computed once.
    """

    fwd: FinSet
    bwd: FinSet

    def __init__(self, fwd: FinSet, bwd: FinSet):
        object.__setattr__(self, "fwd", fwd)
        object.__setattr__(self, "bwd", bwd)
        object.__setattr__(self, "_hash", hash((fwd, bwd)))

    def __eq__(self, other) -> bool:
        if other.__class__ is PairObj:
            return self is other or (
                self._hash == other._hash
                and (self.fwd, self.bwd) == (other.fwd, other.bwd)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.fwd!r}, {self.bwd!r})"


PAIR_I = PairObj(UNIT, UNIT)


@record(frozen=True)
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
        return f.table


class PairBase:
    """The product of finite sets with an opposite second component."""

    name = "pair"
    unit = PAIR_I

    @staticmethod
    @identity_memo
    def tensor(a: PairObj, b: PairObj) -> PairObj:
        """Memoised on the identity of the operands, as ``product`` is.

        Objects that compare equal may hold different elements, and the
        tensor must carry the caller's own.  The memo lasts one CLI call
        (``finset.clear_identity_memos``), and within a call holds at most
        4,096 entries.
        """
        return PairObj(product(a.fwd, b.fwd), product(a.bwd, b.bwd))

    def id(self, a: PairObj) -> BaseMap:
        return BaseMap(a, a, FinFun.identity(a.fwd), FinFun.identity(a.bwd))

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
        return f.fwd.table, f.bwd.table


SET = SetBase()
PAIR = PairBase()


def pair_atoms(*sizes: tuple[int, int]) -> list[PairObj]:
    """Pair objects with labelled bit-style carriers, e.g. (2, 1) -> ({0,1},{*})."""

    def carrier(n: int) -> FinSet:
        return UNIT if n == 1 else FinSet(tuple(range(n)))

    return [PairObj(carrier(a), carrier(b)) for a, b in sizes]


def bit_set(n: int = 2) -> FinSet:
    return FinSet(tuple(range(n)))
