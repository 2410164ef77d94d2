"""Reference constructions that tests check the library against.

A context of the lens arrow stores a point and a continuation table.
``point_lens`` and ``cont_lens`` are their composable forms, so a test
can check a context action against the lens composite it stands for;
``eq_apply`` reads an equilibrium function at a context by searching the
enumeration it was tabulated over.
"""

from __future__ import annotations

from openarrows.base import PAIR_I, PairObj
from openarrows.bimodule import Bimodule, CtxPair, EqFun
from openarrows.finset import STAR, DomainError, FinFun, product
from openarrows.lens import Lens, _point_lens


def point_lens(x_obj: PairObj, x) -> Lens:
    """The lens out of the unit that picks the point ``x``."""
    if x not in x_obj.fwd:
        raise DomainError(f"{x!r} not in {x_obj.fwd}")
    return _point_lens(x_obj, x)


def cont_lens(y_obj: PairObj, k: FinFun) -> Lens:
    """The lens into the unit whose coplay is the continuation table ``k``."""
    if k.dom != y_obj.fwd or k.cod != y_obj.bwd:
        raise DomainError("continuation table has wrong endpoints")
    fwd = FinFun.of(y_obj.fwd, PAIR_I.fwd, lambda _: STAR)
    bwd = FinFun.of(
        product(y_obj.fwd, PAIR_I.bwd), y_obj.bwd, lambda p: k(p[0])
    )
    return Lens(y_obj, PAIR_I, fwd, bwd)


def eq_apply(ctx: Bimodule, h: EqFun, c: CtxPair):
    """The value ``h`` holds at the context ``c``."""
    return h.values[ctx.hom_cached(h.dst, h.src).index(c)]
