"""The concrete lens arrow on the pair base.

A lens from (X, S) to (Y, R) is a forward play map X -> Y together with a
backward coplay map X x R -> S.  Composition threads the coplay back
through the forward pass; strength pads a spectator pair object on the
right.  Backward maps are stored uncurried as tables on the product
carrier so that equality stays a table comparison.
"""

from __future__ import annotations

from .arrow import ArrowInstance
from .base import PAIR, PAIR_I, BaseMap, PairObj
from .finset import (
    STAR,
    CompositionError,
    FinFun,
    all_funs,
    fun_compose,
    product,
)
from .record import record


@record(frozen=True)
class Lens:
    src: PairObj
    dst: PairObj
    fwd: FinFun  # src.fwd -> dst.fwd
    bwd: FinFun  # src.fwd x dst.bwd -> src.bwd

    def __post_init__(self):
        if self.fwd.dom != self.src.fwd or self.fwd.cod != self.dst.fwd:
            raise CompositionError("lens forward map has wrong endpoints")
        if (
            self.bwd.dom != product(self.src.fwd, self.dst.bwd)
            or self.bwd.cod != self.src.bwd
        ):
            raise CompositionError("lens backward map has wrong endpoints")

    @classmethod
    def _trusted(cls, src: PairObj, dst: PairObj, fwd: FinFun, bwd: FinFun) -> "Lens":
        """From maps already known to have the lens's endpoints; checks nothing."""
        lens = object.__new__(cls)
        object.__setattr__(lens, "src", src)
        object.__setattr__(lens, "dst", dst)
        object.__setattr__(lens, "fwd", fwd)
        object.__setattr__(lens, "bwd", bwd)
        return lens

    def play(self, x):
        return self.fwd(x)

    def coplay(self, x, r):
        return self.bwd((x, r))


def lens_key(lens: Lens):
    return lens.fwd.table, lens.bwd.table


def lens_pure(m: BaseMap) -> Lens:
    """Embed a base map as a lens whose coplay ignores the state."""
    # one copy of the backward table per row x of the product X x R
    bwd = FinFun._trusted(
        product(m.src.fwd, m.dst.bwd), m.src.bwd, m.bwd.table * len(m.src.fwd)
    )
    return Lens._trusted(m.src, m.dst, m.fwd, bwd)


def identity_lens(x: PairObj) -> Lens:
    return lens_pure(PAIR.id(x))


def lens_comp(l1: Lens, l2: Lens) -> Lens:
    if l1.dst != l2.src:
        raise CompositionError(
            f"cannot compose lens {l1.src}->{l1.dst} with {l2.src}->{l2.dst}"
        )
    fwd = fun_compose(l1.fwd, l2.fwd)
    # product is row-major, so (x_i, q_k) sits at i*|Q| + k: read coplay
    # r = l2.bwd[y_j, q_k] at y = play(x_i), then s = l1.bwd[x_i, r].
    ys, rs = l2.src.fwd._index, l1.dst.bwd._index
    n_q, n_r = len(l2.dst.bwd), len(l1.dst.bwd)
    b1, b2 = l1.bwd.table, l2.bwd.table
    table = tuple(
        b1[i * n_r + rs[b2[j + k]]]
        for i, j in enumerate(ys[y] * n_q for y in l1.fwd.table)
        for k in range(n_q)
    )
    bwd = FinFun._trusted(product(l1.src.fwd, l2.dst.bwd), l1.src.bwd, table)
    return Lens._trusted(l1.src, l2.dst, fwd, bwd)


def lens_strength(lens: Lens, z: PairObj) -> Lens:
    src = PAIR.tensor(lens.src, z)
    dst = PAIR.tensor(lens.dst, z)
    zs, zbs = z.fwd.elements, z.bwd.elements
    fwd = FinFun._trusted(
        src.fwd, dst.fwd, tuple((y, c) for y in lens.fwd.table for c in zs)
    )
    # ((x_i, c), (r_k, c')) |-> (coplay(x_i, r_k), c'): the coplay row of
    # x_i is lens.bwd.table[i*|R| : (i+1)*|R|], repeated for every c.
    n_r = len(lens.dst.bwd)
    b = lens.bwd.table
    table = tuple(
        (s, c)
        for i in range(len(lens.src.fwd))
        for _ in zs
        for s in b[i * n_r:(i + 1) * n_r]
        for c in zbs
    )
    bwd = FinFun._trusted(product(src.fwd, dst.bwd), src.bwd, table)
    return Lens._trusted(src, dst, fwd, bwd)


def all_lenses(x: PairObj, y: PairObj) -> list[Lens]:
    return [
        Lens._trusted(x, y, f, g)
        for f in all_funs(x.fwd, y.fwd)
        for g in all_funs(product(x.fwd, y.bwd), x.bwd)
    ]


def lens_arrow(objects: list[PairObj]) -> ArrowInstance:
    return ArrowInstance(
        name="lens",
        base=PAIR,
        objects=list(objects),
        hom=all_lenses,
        pure=lens_pure,
        comp=lens_comp,
        st=lens_strength,
        equal=lambda a, b: a == b,
        key=lens_key,
        commutative=True,
    )


# -- global points ------------------------------------------------------------
#
# X = Lens(I, (X, S)) up to iso: a lens out of the unit picks a point of X
# and has trivial coplay.  There is one context type for games,
# ``bimodule.CtxPair``, and it stores the point itself; optic contexts keep
# lens-shaped states, built here.

def _point_lens(x_obj: PairObj, x) -> Lens:
    """The point at ``x``, already known to lie in ``x_obj.fwd``; checks nothing."""
    fwd = FinFun._trusted(PAIR_I.fwd, x_obj.fwd, (x,))
    bwd = FinFun._trusted(
        product(PAIR_I.fwd, x_obj.bwd), PAIR_I.bwd, (STAR,) * len(x_obj.bwd)
    )
    return Lens._trusted(PAIR_I, x_obj, fwd, bwd)
