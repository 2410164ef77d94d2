"""The arrow interface: hom families with pure, composition and strength.

An ``ArrowInstance`` is a first-class value: a bundle of operations over an
explicit finite universe of objects, so that downstream combinators
(equilibrium bundling, strategy indexing, optics) can consume and produce
instances at runtime and the law harness can check them exhaustively.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .record import record


class CommutativityError(ValueError):
    """Parallel tensor requested on an arrow not flagged commutative."""


class CachedHom:
    """``hom_cached(x, y)``: ``hom(x, y)`` listed once per pair, in ``_hom_cache``.

    The cache is made on first use and is not a field: it is in no
    ``repr``, comparison or ``replace``.
    """

    def hom_cached(self, x, y) -> list:
        try:
            cache = self._hom_cache
        except AttributeError:
            cache = self._hom_cache = {}
        k = (x, y)
        if k not in cache:
            cache[k] = list(self.hom(x, y))
        return cache[k]


@record
class ArrowInstance(CachedHom):
    """A strong hom-family with identity lift, composition and strength.

    ``hom(X, Y)`` enumerates the registered morphisms between two objects,
    and each member carries its own endpoints as ``.src`` and ``.dst``;
    for big carriers it may enumerate a registered generating pool rather
    than the full set (law reports state which).  ``equal`` is two-valued;
    optics, which live on the cartesian base, decide it by their canonical
    lens form.
    """

    name: str
    base: Any
    objects: list
    hom: Callable[[Any, Any], list]
    pure: Callable[[Any], Any]
    comp: Callable[[Any, Any], Any]
    st: Callable[[Any, Any], Any]
    equal: Callable[[Any, Any], bool]
    key: Callable[[Any], Any] | None = None
    commutative: bool = False

    def identity(self, x):
        return self.pure(self.base.id(x))


def dimap(a_inst: ArrowInstance, f, a, g):
    """Reindex a morphism along base maps on both sides: pure(f) ; a ; pure(g)."""
    return a_inst.comp(a_inst.comp(a_inst.pure(f), a), a_inst.pure(g))


def left_strength(a_inst: ArrowInstance, a, z):
    """Pad a tensor factor on the left, via the symmetry of the base."""
    base = a_inst.base
    return dimap(
        a_inst,
        base.sym(z, a.src),
        a_inst.st(a, z),
        base.sym(a.dst, z),
    )


def arrow_tensor(a_inst: ArrowInstance, a, b):
    """Run two morphisms side by side.

    Only defined for commutative instances; on a non-commutative instance
    the two candidate composites can disagree, so we refuse.
    """
    if not a_inst.commutative:
        raise CommutativityError(
            f"arrow {a_inst.name!r} is not commutative; parallel tensor refused"
        )
    first = a_inst.st(a, b.src)  # X (x) X' -> Y (x) X'
    second = left_strength(a_inst, b, a.dst)  # Y (x) X' -> Y (x) Y'
    return a_inst.comp(first, second)


def arrow_tensor_flipped(a_inst: ArrowInstance, a, b):
    """The other composite of the commutativity square (for law checks)."""
    first = left_strength(a_inst, b, a.src)  # X (x) X' -> X (x) Y'
    second = a_inst.st(a, b.dst)  # X (x) Y' -> Y (x) Y'
    return a_inst.comp(first, second)


def hom_arrow(base, objects: list, name: str | None = None) -> ArrowInstance:
    """The identity arrow of a base: morphisms compose and tensor as given."""
    return ArrowInstance(
        name=name or f"hom({base.name})",
        base=base,
        objects=list(objects),
        hom=base.morphisms,
        pure=lambda m: m,
        comp=base.compose,
        st=lambda m, z: base.tensor_mor(m, base.id(z)),
        equal=operator.eq,
        key=base.mor_key,
        commutative=True,
    )


@record
class InducedCategory:
    """The symmetric monoidal category view of a commutative arrow."""

    arrow: ArrowInstance

    def id(self, x):
        return self.arrow.identity(x)

    def compose(self, a, b):
        return self.arrow.comp(a, b)

    def tensor(self, a, b):
        return arrow_tensor(self.arrow, a, b)

    def embed(self, base_mor):
        """The strict monoidal embedding of the base into the arrow."""
        return self.arrow.pure(base_mor)


def induced_category(a_inst: ArrowInstance) -> InducedCategory:
    if not a_inst.commutative:
        raise CommutativityError(
            f"arrow {a_inst.name!r} is not commutative; no monoidal category"
        )
    return InducedCategory(a_inst)
