"""Bimodules over arrows, contexts, and the equilibrium product arrow.

A bimodule attaches left and right arrow actions to a hom-family.  One
record, ``Bimodule``, holds every bimodule the program builds: a context
is a bimodule that also has a costrength ``cst`` stripping a tensor
factor, and the equilibrium bimodule of functions from contexts into a
commutative monoid also carries that monoid pointwise as ``e`` and ``m``.
Bundling an arrow with such a bimodule yields the arrow whose morphisms
are play/coplay data together with an equilibrium predicate.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from .arrow import ArrowInstance, CachedHom
from .finset import CompositionError, DomainError, FinFun, Monoid, all_funs
from .record import record


@record
class Bimodule(CachedHom):
    """A hom-family with compatible left and right actions of an arrow.

    Each member carries its own endpoints as ``.src`` and ``.dst``.
    """

    name: str
    arrow: ArrowInstance
    hom: Callable[[Any, Any], list]
    lact: Callable[[Any, Any], Any]  # A(X,Y) x B(Y,Z) -> B(X,Z)
    ract: Callable[[Any, Any], Any]  # B(X,Y) x A(Y,Z) -> B(X,Z)
    equal: Callable[[Any, Any], bool]
    key: Callable[[Any], Any] | None = None
    st: Callable[[Any, Any], Any] | None = None
    # cst(b, X, Y, Z): B(X (x) Z, Y (x) Z) -> B(X, Y); factors passed
    # explicitly because tensors are not syntactically split.
    cst: Callable[[Any, Any, Any, Any], Any] | None = None
    # pointwise monoid
    e: Callable[[Any, Any], Any] | None = None  # (X, Y) -> unit of B(X, Y)
    m: Callable[[Any, Any], Any] | None = None  # (b, b') -> b''
    commutative: bool = False

    def dimap(self, f, b, g):
        """Reindex along base maps using the actions and the arrow's pure."""
        a = self.arrow
        return self.ract(self.lact(a.pure(f), b), a.pure(g))


# -- the canonical context of the lens arrow --------------------------------

@record(frozen=True)
class CtxPair:
    """A context of the lens arrow: a point of the target and a payoff table.

    An element of Ctx(X, Y) = A(I, Y) x A(X, I), up to iso: a lens out of
    the unit is a point of ``Y.fwd``, and a lens into it is a continuation
    table ``X.fwd -> X.bwd``.  ``state`` is that point and ``cont`` that
    table.  Rows, best responses and probabilistic judgements of games are
    all read at contexts of this one type.
    """

    src: Any
    dst: Any
    state: Any  # an element of dst.fwd
    cont: FinFun  # src.fwd -> src.bwd

    def __init__(self, src, dst, state, cont: FinFun):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "cont", cont)

    def __eq__(self, other) -> bool:
        if other.__class__ is CtxPair:
            return (self.src, self.dst, self.state, self.cont) == (
                other.src, other.dst, other.state, other.cont)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.state, self.cont))

    def _order_key(self) -> str:
        # a Dist's contexts share their endpoints: order them by the rest
        return f"CtxPair({self.state!r}, {self.cont.table!r})"


def ctx_of_arrow(a_inst: ArrowInstance) -> Bimodule:
    """Contexts of a lens arrow as (point, continuation table) pairs."""
    base = a_inst.base
    unit = base.unit

    def hom(x, y):
        # points in y.fwd order, each with every table: the order of the
        # lens lists A(I, Y) x A(X, I)
        conts = all_funs(x.fwd, x.bwd)
        return [CtxPair(x, y, p, k) for p in y.fwd.elements for k in conts]

    def lact(s, c):
        # A(X,Y) x Ctx(Y,Z) -> Ctx(X,Z): x pays s's coplay of what c pays
        # at s's play of x.  s.bwd is row-major, so (x_i, r) sits at
        # i*|R| + (position of r).
        if s.dst != c.src:
            raise CompositionError("context left action: endpoint mismatch")
        ys, rs, n_r = s.dst.fwd._index, s.dst.bwd._index, len(s.dst.bwd)
        k, b = c.cont.table, s.bwd.table
        table = tuple(
            b[i * n_r + rs[k[ys[y]]]] for i, y in enumerate(s.fwd.table)
        )
        cont = FinFun._trusted(s.src.fwd, s.src.bwd, table)
        return CtxPair(s.src, c.dst, c.state, cont)

    def ract(c, a):
        # Ctx(X,Y) x A(Y,Z) -> Ctx(X,Z): move the point by a's play.
        if a.src != c.dst:
            raise CompositionError("context right action: endpoint mismatch")
        return CtxPair(c.src, a.dst, a.fwd(c.state), c.cont)

    def cst(c, x_obj, y_obj, z_obj):
        # Ctx(X (x) Z, Y (x) Z) -> Ctx(X, Y): the point (y, z) splits; the
        # continuation is read at the spectator point z, keeping the X half
        # of each payoff.
        if c.dst != base.tensor(y_obj, z_obj):
            raise DomainError("target does not decompose as the stated tensor")
        xz = base.tensor(x_obj, z_obj)
        if c.src != xz:
            raise CompositionError(
                f"cannot compose lens {x_obj}->{xz} with {c.src}->{unit}"
            )
        y, z = c.state
        # X (x) Z is row-major: (x_i, z) sits at i*|Z| + m
        m, n_z = z_obj.fwd.index(z), len(z_obj.fwd)
        table = tuple(s for s, _ in c.cont.table[m::n_z])
        return CtxPair(x_obj, y_obj, y, FinFun._trusted(x_obj.fwd, x_obj.bwd, table))

    return Bimodule(
        name=f"ctx({a_inst.name})",
        arrow=a_inst,
        hom=hom,
        lact=lact,
        ract=ract,
        equal=lambda c1, c2: c1 == c2,
        key=lambda c: (c.state, c.cont.table),
        cst=cst,
        commutative=True,
    )


# -- the equilibrium bimodule ------------------------------------------------

@record(frozen=True)
class EqFun:
    """A monoid-valued function on contexts, tabulated over their enumeration.

    An element of Eq(X, Y); ``values[i]`` is the value at the i-th element
    of Ctx(Y, X) in enumeration order.
    """

    src: Any
    dst: Any
    values: tuple


def eq_tabulate(ctx: Bimodule, x_obj, y_obj, fn: Callable) -> EqFun:
    return EqFun(x_obj, y_obj, tuple(fn(c) for c in ctx.hom_cached(y_obj, x_obj)))


def eq_from_context(
    ctx: Bimodule, m_monoid: Monoid, value_pool: list | None = None
) -> Bimodule:
    """Functions from contexts into a commutative monoid, as a bimodule.

    ``value_pool`` bounds the enumeration of predicate tables for law
    checking; it defaults to the monoid's carrier and must be supplied for
    infinite monoids such as the witness multisets.

    Actions never re-tabulate a predicate.  Context ``b`` of ``lact(a, h)``
    reads ``h`` at ``ract(b, a)`` (dually for ``ract``, and ``st`` reads it
    at ``cst``), and where that context sits in ``h``'s enumeration depends
    on ``a`` and on ``h``'s endpoints, never on ``h``'s values.  Each action
    therefore computes a position table once, by running the real context
    action on every context, and gathers ``h.values`` through it.  Tables
    are memoised on ``a``'s endpoints and the arrow's key of ``a`` (on the
    spectator for ``st``) and ``h``'s endpoints, and live as long as the
    returned bimodule; acting needs an arrow and a context with keys.
    """
    if not m_monoid.commutative:
        raise DomainError(
            f"monoid {m_monoid.name!r} is not commutative; "
            "the equilibrium bimodule would not be commutative"
        )
    if value_pool is None:
        if m_monoid.carrier is None:
            raise DomainError(
                f"monoid {m_monoid.name!r} is infinite; supply a value pool"
            )
        value_pool = list(m_monoid.carrier.elements)
    a_inst = ctx.arrow
    base = a_inst.base
    tables: dict = {}
    positions: dict = {}  # (x, y) -> {context key: position in Ctx(x, y)}

    def hom(x, y):
        ctxs = ctx.hom_cached(y, x)
        return [
            EqFun(x, y, values)
            for values in itertools.product(value_pool, repeat=len(ctxs))
        ]

    def reindex(h, x, z, memo, act):
        # Eq(X,Z) element whose context b reads h at act(b).
        pos = tables.get(memo)
        if pos is None:
            index = positions.get((h.dst, h.src))
            if index is None:
                index = positions[h.dst, h.src] = {
                    ctx.key(c): i for i, c in enumerate(ctx.hom_cached(h.dst, h.src))
                }
            pos = tables[memo] = tuple(
                index[ctx.key(act(b))] for b in ctx.hom_cached(z, x)
            )
        return EqFun(x, z, tuple(map(h.values.__getitem__, pos)))

    def action_memo(action, a, h):
        if a_inst.key is None:
            raise DomainError(f"arrow {a_inst.name!r} has no canonical key")
        return (action, a.src, a.dst, a_inst.key(a), h.src, h.dst)

    def lact(a, h):
        # A(X,Y) x Eq(Y,Z) -> Eq(X,Z): judge extended-by-a contexts.
        return reindex(
            h, a.src, h.dst, action_memo("lact", a, h),
            lambda b: ctx.ract(b, a),
        )

    def ract(h, a):
        # Eq(X,Y) x A(Y,Z) -> Eq(X,Z): judge contexts with a prepended.
        return reindex(
            h, h.src, a.dst, action_memo("ract", a, h),
            lambda b: ctx.lact(a, b),
        )

    def st(h, z_obj):
        x, y = h.src, h.dst
        return reindex(
            h, base.tensor(x, z_obj), base.tensor(y, z_obj), (x, y, z_obj),
            lambda b: ctx.cst(b, y, x, z_obj),
        )

    return Bimodule(
        name=f"eq({a_inst.name}, {m_monoid.name})",
        arrow=a_inst,
        hom=hom,
        lact=lact,
        ract=ract,
        equal=lambda h1, h2: h1 == h2,
        key=lambda h: (h.values,),
        st=st,
        e=lambda x, y: eq_tabulate(ctx, x, y, lambda _: m_monoid.unit),
        m=lambda h1, h2: EqFun(
            h1.src,
            h1.dst,
            tuple(m_monoid.op(v1, v2) for v1, v2 in zip(h1.values, h2.values)),
        ),
        commutative=True,
    )


# -- bundling an arrow with a monoid bimodule --------------------------------

@record(frozen=True)
class WithBMor:
    """A morphism of the product arrow: arrow part plus bimodule part."""

    inner: Any
    extra: Any

    @property
    def src(self):
        return self.inner.src

    @property
    def dst(self):
        return self.inner.dst


def with_bimodule(a_inst: ArrowInstance, bim: Bimodule) -> ArrowInstance:
    """The product arrow of an arrow and a strong monoid bimodule over it."""
    if bim.m is None:
        raise DomainError(f"bimodule {bim.name!r} has no monoid structure")
    if bim.st is None:
        raise DomainError(f"bimodule {bim.name!r} has no strength")

    def hom(x, y):
        return [
            WithBMor(a, b)
            for a in a_inst.hom_cached(x, y)
            for b in bim.hom_cached(x, y)
        ]

    def pure(m):
        a = a_inst.pure(m)
        return WithBMor(a, bim.e(a.src, a.dst))

    def comp(m1, m2):
        return WithBMor(
            a_inst.comp(m1.inner, m2.inner),
            bim.m(bim.lact(m1.inner, m2.extra), bim.ract(m1.extra, m2.inner)),
        )

    def st(m, z):
        return WithBMor(a_inst.st(m.inner, z), bim.st(m.extra, z))

    def equal(m1, m2):
        return a_inst.equal(m1.inner, m2.inner) and bim.equal(m1.extra, m2.extra)

    key = None
    if a_inst.key is not None and bim.key is not None:
        key = lambda m: (a_inst.key(m.inner), bim.key(m.extra))  # noqa: E731

    return ArrowInstance(
        name=f"{a_inst.name}*{bim.name}",
        base=a_inst.base,
        objects=list(a_inst.objects),
        hom=hom,
        pure=pure,
        comp=comp,
        st=st,
        equal=equal,
        key=key,
        commutative=a_inst.commutative and bim.commutative,
    )


def with_eq(a_inst: ArrowInstance, ctx: Bimodule, m_monoid: Monoid) -> ArrowInstance:
    """Attach monoid-valued equilibrium predicates to an arrow."""
    arrow = with_bimodule(a_inst, eq_from_context(ctx, m_monoid))
    arrow.name = f"witheq({a_inst.name}, {m_monoid.name})"
    return arrow
