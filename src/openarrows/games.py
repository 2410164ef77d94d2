"""Open games: lens families paired with context-judged equilibria.

Every game is one member of a graded product arrow,
``graded_product(param(lens), judgement)``: its ``plays`` are a lens per
strategy (a ``ParamFamily`` whose grade is the strategy index), and its
judgement is an element of a graded bimodule at the same grade.  ``seq``
is the product's ``gcomp`` and ``par`` its ``graded_tensor``, whatever
the judgement:

- a Boolean or deviation-witness judgement is a row (``row_bimodule``):
  at a context, one monoid value per strategy in grade order, computed
  only when asked for;
- a probabilistic judgement is a predicate on a distribution over
  contexts and one over strategies (``prob_bimodule``); a decision takes
  its expected payoffs over the context distribution it is judged at.

Contexts are ``CtxPair``s: ``game_context`` builds one and
``trivial_context`` gives a closed game's unique one.

Best-response relations form a third graded bimodule, which the law
suites check, and a brute-force normal-form oracle gives an independent
check of the Boolean verdicts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .base import PAIR, PAIR_I, BaseMap, PairObj
from .bimodule import ContextStruct, CtxPair, ctx_of_arrow
from .finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    CompositionError,
    Dist,
    DomainError,
    FinFun,
    FinSet,
    Monoid,
    Rat,
    all_funs,
    dist_bind,
    dist_pure,
    product,
)
from .grading import (
    GradedArrow,
    GradedBimodule,
    GradedPairMor,
    ParamFamily,
    SizeError,
    grade_by_param,
    graded_product,
    graded_tensor,
)
from .lens import (
    LENS_PROJECTIONS,
    Lens,
    cont_lens,
    lens_arrow,
    point_lens,
)

_LENS = lens_arrow([])
GAME_CTX: ContextStruct = ctx_of_arrow(_LENS, LENS_PROJECTIONS)
_GRADED = grade_by_param(_LENS)
_ONE = FinSet((STAR,))  # the strategy index of a game without a choice
#: equality of game judgements refuses endpoints with more contexts than this
CONTEXT_BOUND = 2**16


# -- contexts -----------------------------------------------------------------

def game_context(g, state, cont: FinFun) -> CtxPair:
    """The context that starts ``g`` at ``state`` and pays its output by ``cont``."""
    return CtxPair(g.dst, g.src, point_lens(g.src, state), cont_lens(g.dst, cont))


def trivial_context(g) -> CtxPair:
    """The unique context of a closed game (all four carriers singletons)."""
    for carrier in (g.src.fwd, g.dst.fwd, g.dst.bwd):
        if len(carrier) != 1:
            raise DomainError(
                f"game {g.src}->{g.dst} is not closed; supply a context"
            )
    return game_context(
        g,
        g.src.fwd.elements[0],
        FinFun.of(g.dst.fwd, g.dst.bwd, lambda _: g.dst.bwd.elements[0]),
    )


def context_count(x: PairObj, y: PairObj) -> int:
    """How many lens contexts ``Ctx(x, y)`` there are: a point of ``y``
    paired with a continuation out of ``x``."""
    return len(y.fwd) * len(x.bwd) ** len(x.fwd)


def _game_contexts(x: PairObj, y: PairObj) -> list:
    # every context a game x -> y is judged at, refused before enumerating
    # when there are too many to list
    n = context_count(y, x)
    if n > CONTEXT_BOUND:
        raise SizeError(
            f"a game {x}->{y} has {n} contexts, over the bound of {CONTEXT_BOUND}"
        )
    return GAME_CTX.bimodule.hom_cached(y, x)


# -- row judgements -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RowElement:
    """A judgement of every strategy at each context, computed on demand.

    ``row(c)`` holds one monoid value per element of ``grade``, in its
    order.  Nothing is tabulated: games compose pointwise in the context,
    so enumerating contexts when composing would be work for nothing.
    """

    src: PairObj
    dst: PairObj
    grade: FinSet  # the strategy index
    row: Callable[[CtxPair], tuple] = field(repr=False)


def row_bimodule(m_monoid: Monoid) -> GradedBimodule:
    """Rows of ``m_monoid`` values in context, acted on by lens families.

    The left action reads the operand's row at the context extended by
    each prefix lens; the right action reads it at the context with each
    suffix lens prepended, and interleaves those rows into the order of
    the product grade.  Either runs one context action per member of the
    family.  ``st`` reads the row at the costrength, ``regrade`` permutes
    positions, ``m`` combines two rows position by position and ``e`` is
    a row of units.  Equality compares rows at every context ``GAME_CTX``
    enumerates, and refuses (``SizeError``) more than ``CONTEXT_BOUND``.
    """
    ctx = GAME_CTX
    op, unit = m_monoid.op, m_monoid.unit

    def hom(grade, x, y):
        raise DomainError("judgement rows are not enumerable")

    def glact(a: ParamFamily, b: RowElement):
        def row(c):
            return tuple(
                v for aj in a.members for v in b.row(ctx.bimodule.ract(c, aj))
            )

        return RowElement(a.src, b.dst, product(a.grade, b.grade), row)

    def gract(b: RowElement, a: ParamFamily):
        def row(c):
            cols = [b.row(ctx.bimodule.lact(ak, c)) for ak in a.members]
            return tuple(v for vs in zip(*cols) for v in vs)

        return RowElement(b.src, a.dst, product(b.grade, a.grade), row)

    def st(b: RowElement, z_obj: PairObj):
        return RowElement(
            PAIR.tensor(b.src, z_obj),
            PAIR.tensor(b.dst, z_obj),
            b.grade,
            lambda c: b.row(ctx.cst(c, b.dst, b.src, z_obj)),
        )

    def regrade(phi: FinFun, b: RowElement):
        pos = [b.grade.index(j) for j in phi.table]
        return RowElement(
            b.src, b.dst, phi.dom, lambda c: tuple(map(b.row(c).__getitem__, pos))
        )

    def equal(b1, b2):
        if (b1.src, b1.dst, b1.grade) != (b2.src, b2.dst, b2.grade):
            return False
        return all(b1.row(c) == b2.row(c) for c in _game_contexts(b1.src, b1.dst))

    def e(grade, x, y):
        units = (unit,) * len(grade)
        return RowElement(x, y, grade, lambda c: units)

    return GradedBimodule(
        name=f"rows({m_monoid.name})",
        arrow=_GRADED,
        hom=hom,
        glact=glact,
        gract=gract,
        regrade=regrade,
        equal=equal,
        st=st,
        e=e,
        m=lambda b1, b2: RowElement(
            b1.src, b1.dst, b1.grade, lambda c: tuple(map(op, b1.row(c), b2.row(c)))
        ),
        commutative=m_monoid.commutative,
    )


@functools.cache
def row_arrow(m_monoid: Monoid) -> GradedArrow:
    """Lens families paired with rows of ``m_monoid`` judgements."""
    return graded_product(_GRADED, row_bimodule(m_monoid))


# -- open games ---------------------------------------------------------------

@dataclass(frozen=True)
class OpenGame:
    """A game: a member of a game arrow, kept with that arrow.

    The member pairs the game's plays, a lens per strategy, with its
    judgement at the same grade: a ``RowElement`` under ``row_arrow(m)``,
    a ``ProbElement`` under ``PROB_ARROW``.  Games compose only with games
    on the same arrow.
    """

    arrow: GradedArrow = field(repr=False)
    member: GradedPairMor

    @property
    def plays(self) -> ParamFamily:
        return self.member.arrow_part

    @property
    def judgement(self):
        return self.member.bim_part

    @property
    def src(self) -> PairObj:
        return self.plays.src

    @property
    def dst(self) -> PairObj:
        return self.plays.dst

    @property
    def index(self) -> FinSet:
        return self.plays.grade

    def play(self, j) -> Lens:
        return self.plays.member(j)

    def row(self, c: CtxPair) -> tuple:
        """Every strategy's judgement at a context, in index order."""
        if (c.dst, c.src) != (self.src, self.dst):
            raise DomainError(
                f"context for {c.dst}->{c.src} cannot judge a game "
                f"{self.src}->{self.dst}"
            )
        return self.judgement.row(c)

    def judge(self, c: CtxPair, d: Dist) -> bool:
        """A probabilistic verdict on a strategy distribution at a context."""
        pc = ProbCtx(c.dst, c.src, c.state.fwd(STAR), lambda y: c.cont.coplay(y, STAR))
        return self.judgement.pred(dist_pure(pc), d)


def _game(arrow: GradedArrow, index: FinSet, lenses: tuple, element, judge) -> OpenGame:
    # an atom: lenses aligned with index; ``element`` is the judgement's type
    plays = ParamFamily(lenses[0].src, lenses[0].dst, index, lenses)
    return OpenGame(
        arrow, GradedPairMor(plays, element(plays.src, plays.dst, index, judge))
    )


def decision(
    x_set: FinSet,
    y_set: FinSet,
    util: FinSet,
    m_monoid: Monoid = BOOL_AND,
    fail_value: Callable[[list], Any] | None = None,
) -> OpenGame:
    """The atomic choice of a move per observation, judged by weak argmax.

    The utility carrier holds comparable payoff values (rationals).  A
    strategy is in equilibrium at (x, k) when no move beats its own:
    k(j(x)) >= k(y) for every y.  With a non-Boolean monoid the
    judgement emits the unit on success and ``fail_value(deviations)``
    otherwise (deviations = the strictly better moves).
    """
    if len(y_set) == 0:
        raise DomainError("decision needs a non-empty move set")
    if fail_value is None:
        if m_monoid.name == BOOL_AND.name:
            fail_value = lambda devs: False  # noqa: E731
        elif m_monoid.name == WITNESSES.name:
            fail_value = lambda devs: tuple(sorted(devs, key=repr))  # noqa: E731
        else:
            raise DomainError(
                f"no failure value convention for monoid {m_monoid.name!r}"
            )
    src = PairObj(x_set, UNIT)
    dst = PairObj(y_set, util)
    index = FinSet(tuple(all_funs(x_set, y_set)))
    bwd = FinFun.of(product(x_set, util), UNIT, lambda _: STAR)

    def row(c: CtxPair) -> tuple:
        x = c.state.fwd(STAR)
        pay = {y: Fraction(c.cont.coplay(y, STAR)) for y in y_set}
        verdict = {}
        for y, mine in pay.items():
            devs = [z for z, v in pay.items() if v > mine]
            verdict[y] = m_monoid.unit if not devs else fail_value(devs)
        return tuple(verdict[j(x)] for j in index)

    lenses = tuple(Lens(src, dst, j, bwd) for j in index)
    return _game(row_arrow(m_monoid), index, lenses, RowElement, row)


def _unit_game(lens: Lens, m_monoid: Monoid) -> OpenGame:
    # one strategy, always in equilibrium
    units = (m_monoid.unit,)
    return _game(row_arrow(m_monoid), _ONE, (lens,), RowElement, lambda c: units)


def lift_pure(m: BaseMap, m_monoid: Monoid = BOOL_AND) -> OpenGame:
    """A base map as a game: one strategy, always in equilibrium."""
    return _unit_game(_LENS.pure(m), m_monoid)


def lift_covariant(
    f: FinFun, bwd_carrier: FinSet = UNIT, m_monoid: Monoid = BOOL_AND
) -> OpenGame:
    m = BaseMap(
        PairObj(f.dom, bwd_carrier),
        PairObj(f.cod, bwd_carrier),
        f,
        FinFun.identity(bwd_carrier),
    )
    return lift_pure(m, m_monoid)


def payoff_block(u: FinFun, m_monoid: Monoid = BOOL_AND) -> OpenGame:
    """Close a game: consume the final move, pay off along the backward pass."""
    lens = Lens(
        PairObj(u.dom, u.cod),
        PAIR_I,
        FinFun.of(u.dom, UNIT, lambda _: STAR),
        FinFun.of(product(u.dom, UNIT), u.cod, lambda p: u(p[0])),
    )
    return _unit_game(lens, m_monoid)


def seq(g1: OpenGame, g2: OpenGame) -> OpenGame:
    if g1.dst != g2.src:
        raise CompositionError(
            f"cannot sequence a game into {g1.dst} with one out of {g2.src}"
        )
    arrow = _shared_arrow(g1, g2)
    return OpenGame(arrow, arrow.gcomp(g1.member, g2.member))


def par(g1: OpenGame, g2: OpenGame) -> OpenGame:
    arrow = _shared_arrow(g1, g2)
    return OpenGame(arrow, graded_tensor(arrow, g1.member, g2.member))


def _shared_arrow(g1: OpenGame, g2: OpenGame) -> GradedArrow:
    if g1.arrow is not g2.arrow:
        raise DomainError(
            f"cannot compose games over {g1.arrow.name!r} and {g2.arrow.name!r}"
        )
    return g1.arrow


def equilibria(g: OpenGame, c: CtxPair) -> dict:
    """Each strategy's judgement at the context, in index order."""
    return dict(zip(g.index, g.row(c)))


def map_monoid(g: OpenGame, target: Monoid, h: Callable[[Any], Any]) -> OpenGame:
    """Transport row judgements along a monoid homomorphism."""
    row = g.judgement.row
    return _game(
        row_arrow(target), g.index, g.plays.members, RowElement,
        lambda c: tuple(map(h, row(c))),
    )


# -- the brute-force oracle ---------------------------------------------------

@dataclass(frozen=True)
class NormalFormGame:
    players: tuple
    strategies: tuple  # FinSet per player
    payoff: Callable[[tuple, int], Rat]  # (profile, player index) -> utility

    def profiles(self):
        return itertools.product(*(s.elements for s in self.strategies))


@dataclass(frozen=True)
class Deviation:
    player: int
    profile: tuple
    better: Any
    old_payoff: Rat
    new_payoff: Rat


def nash_oracle(g: NormalFormGame) -> tuple[list, dict]:
    """All pure profiles with no strictly improving unilateral deviation.

    Also returns, per rejected profile, the witnessing deviations.
    """
    equilibria_, report = [], {}
    for prof in g.profiles():
        devs = []
        for i, s in enumerate(g.strategies):
            here = g.payoff(prof, i)
            for alt in s:
                if alt == prof[i]:
                    continue
                moved = prof[:i] + (alt,) + prof[i + 1 :]
                there = g.payoff(moved, i)
                if there > here:
                    devs.append(Deviation(i, prof, alt, here, there))
        if devs:
            report[prof] = devs
        else:
            equilibria_.append(prof)
    return equilibria_, report


def decisions_to_normal_form(
    decisions: list[OpenGame], utils: list[FinFun]
) -> NormalFormGame:
    """Simultaneous one-shot decisions plus per-player payoff tables.

    Each decision must observe the unit (a simultaneous game); ``utils``
    maps the joint move tuple to each player's utility.
    """
    for d in decisions:
        if d.src.fwd != UNIT:
            raise DomainError("oracle conversion needs unit-observation decisions")
    strategies = tuple(d.dst.fwd for d in decisions)

    def payoff(profile, i):
        return Fraction(utils[i](profile))

    return NormalFormGame(
        tuple(range(len(decisions))), strategies, payoff
    )


# -- best-response games ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BestRespElement:
    """A context-indexed relation between strategy profiles.

    ``rel(c)`` is the relation at context ``c``, a predicate on two
    profiles.  ``row(c)`` is the same relation as the frozenset of related
    profile pairs, built once per context object and kept on the element.
    The best-response bimodule builds its results from rows
    (``BestRespElement.of_rows``); their ``rel`` reads the row.
    """

    src: PairObj
    dst: PairObj
    grade: FinSet  # the profile index J
    rel: Callable[[CtxPair], Callable[[Any, Any], bool]] = field(repr=False)
    # tabulated from rel when not given
    row: Callable[[CtxPair], frozenset] = field(default=None, repr=False)

    def __post_init__(self):
        if self.row is None:
            grade, rel = self.grade, self.rel  # not self: no reference cycle

            def build(c):
                holds = rel(c)
                return frozenset(
                    pq for pq in itertools.product(grade, repeat=2) if holds(*pq)
                )

            object.__setattr__(self, "row", _RowMemo(build))

    @classmethod
    def of_rows(cls, src, dst, grade, build) -> "BestRespElement":
        """The element whose row at ``c`` is ``build(c)``."""
        row = _RowMemo(build)
        return cls(src, dst, grade, lambda c: _holds(row(c)), row)


class _RowMemo:
    """``c -> build(c)``, run once per context object (the entry keeps it alive)."""

    def __init__(self, build: Callable[[CtxPair], frozenset]):
        self.build, self.rows = build, {}

    def __call__(self, c: CtxPair) -> frozenset:
        hit = self.rows.get(id(c))
        if hit is None:
            hit = self.rows[id(c)] = (c, self.build(c))
        return hit[1]


def _holds(row: frozenset) -> Callable[[Any, Any], bool]:
    return lambda p1, p2: (p1, p2) in row


def best_resp_bimodule(
    graded_lens,
    element_pool: Callable[[Any, Any, Any], list] | None = None,
    context_pool: Callable[[Any, Any], list] | None = None,
) -> GradedBimodule:
    """Strategy-pair relations in context, acted on by lens families.

    The left action extends the context with the prefix profile's lens
    and relates the suffix components; the second prefix component is
    discarded.  The right action mirrors this.  Each action, ``st`` and
    ``regrade`` build a result's row at a context from the operand's rows,
    running the real context action once per (member, context).

    Equality compares rows over the context pool of the endpoints
    (``context_pool``, by default every context ``GAME_CTX`` enumerates, up
    to ``CONTEXT_BOUND``), and the key is the grade with those rows, so key
    equality is equality.
    """
    ctx = GAME_CTX
    pool_of = context_pool or _game_contexts
    pools: dict = {}

    def ctxs(x, y):
        # one list per endpoint pair, so rows are found again by context
        if (x, y) not in pools:
            pools[(x, y)] = pool_of(x, y)
        return pools[(x, y)]

    def hom(grade, x, y):
        if element_pool is None:
            raise DomainError("best-response relations are not enumerable")
        return element_pool(grade, x, y)

    def glact(a: ParamFamily, b: BestRespElement):
        if a.dst != b.src:
            raise CompositionError("best-response left action: endpoint mismatch")

        def build(c):
            # ((j1, k1), (j2, k2)) for any j2, when k1, k2 are related in
            # the context extended by the lens j1 plays
            return frozenset(
                ((j1, k1), (j2, k2))
                for j1, aj in zip(a.grade, a.members)
                for k1, k2 in b.row(ctx.bimodule.ract(c, aj))
                for j2 in a.grade
            )

        return BestRespElement.of_rows(
            a.src, b.dst, product(a.grade, b.grade), build
        )

    def gract(b: BestRespElement, a: ParamFamily):
        if b.dst != a.src:
            raise CompositionError("best-response right action: endpoint mismatch")

        def build(c):
            return frozenset(
                ((j1, k1), (j2, k2))
                for k1, ak in zip(a.grade, a.members)
                for j1, j2 in b.row(ctx.bimodule.lact(ak, c))
                for k2 in a.grade
            )

        return BestRespElement.of_rows(
            b.src, a.dst, product(b.grade, a.grade), build
        )

    def st(b: BestRespElement, z_obj: PairObj):
        xz, yz = PAIR.tensor(b.src, z_obj), PAIR.tensor(b.dst, z_obj)
        return BestRespElement.of_rows(
            xz, yz, b.grade, lambda c: b.row(ctx.cst(c, b.dst, b.src, z_obj))
        )

    def regrade(phi: FinFun, b: BestRespElement):
        image = dict(zip(phi.dom.elements, phi.table))

        def build(c):
            row = b.row(c)
            return frozenset(
                (p1, p2) for p1, p2 in itertools.product(phi.dom, repeat=2)
                if (image[p1], image[p2]) in row
            )

        return BestRespElement.of_rows(b.src, b.dst, phi.dom, build)

    def equal(b1, b2):
        if (b1.src, b1.dst, b1.grade) != (b2.src, b2.dst, b2.grade):
            return False
        return all(b1.row(c) == b2.row(c) for c in ctxs(b1.src, b1.dst))

    def e(grade, x, y):
        full = frozenset(itertools.product(grade, repeat=2))
        return BestRespElement.of_rows(x, y, grade, lambda c: full)

    return GradedBimodule(
        name="bestresp",
        arrow=graded_lens,
        hom=hom,
        glact=glact,
        gract=gract,
        regrade=regrade,
        equal=equal,
        st=st,
        e=e,
        m=lambda b1, b2: BestRespElement.of_rows(
            b1.src, b1.dst, b1.grade, lambda c: b1.row(c) & b2.row(c)
        ),
        commutative=True,
        key=lambda b: (
            b.grade.elements, tuple(b.row(c) for c in ctxs(b.src, b.dst))
        ),
    )


def decision_relation(d: OpenGame) -> BestRespElement:
    """The canonical relation of a decision: the second profile is a better move.

    A profile is a fixed point (related above every other) exactly when
    it is a weak-argmax equilibrium.
    """

    def rel(c: CtxPair):
        x = c.state.fwd(STAR)
        k = lambda y: Fraction(c.cont.coplay(y, STAR))  # noqa: E731

        def holds(j1, j2):
            return k(d.play(j2).fwd(x)) >= k(d.play(j1).fwd(x))

        return holds

    return BestRespElement(d.src, d.dst, d.index, rel)


def best_response_fixed_points(b: BestRespElement, c: CtxPair) -> list:
    holds = b.rel(c)
    return [j for j in b.grade if all(holds(i, j) for i in b.grade)]


# -- probabilistic games ------------------------------------------------------

def dist_marginal(d: Dist, which: int) -> Dist:
    return d.map(lambda p: p[which])


@dataclass(frozen=True)
class ProbCtx:
    """A context as a start point and a payoff closure, read lazily."""

    src: PairObj
    dst: PairObj
    state: Any  # element of src.fwd
    # dst.fwd -> dst.bwd; out of the repr, which orders a Dist's support
    # and must not depend on a closure's address
    cont: Callable[[Any], Any] = field(repr=False)


def prob_ctx_ract(c: ProbCtx, lens: Lens) -> ProbCtx:
    if lens.src != c.src:
        raise CompositionError("probabilistic context: state extension mismatch")
    return ProbCtx(lens.dst, c.dst, lens.fwd(c.state), c.cont)


def prob_ctx_lact(lens: Lens, c: ProbCtx) -> ProbCtx:
    if lens.dst != c.dst:
        raise CompositionError("probabilistic context: continuation mismatch")
    return ProbCtx(
        c.src, lens.src, c.state, lambda y: lens.coplay(y, c.cont(lens.fwd(y)))
    )


def prob_ctx_cst(c: ProbCtx, x_obj: PairObj, y_obj: PairObj, z_obj: PairObj):
    # split the joint start point; the spectator half fixes the second
    # continuation coordinate, whose payoff share is discarded
    x, z = c.state

    def cont(y):
        v = c.cont((y, z))
        return v[0]

    return ProbCtx(x_obj, y_obj, x, cont)


@dataclass(frozen=True)
class ProbElement:
    """A distribution-indexed equilibrium predicate in context.

    The predicate is judged at a *distribution over contexts*: strategy
    distributions upstream spread the start point, and those downstream
    spread the continuation, so the judgement sees weighted contexts
    rather than any single one.  Context distributions are infinite, so
    the predicate stays a closure; the bimodule's actions build each
    judgement's distributions through the trusted ``Dist`` arithmetic.
    """

    src: PairObj
    dst: PairObj
    grade: FinSet  # the profile index J
    pred: Callable[[Dist, Dist], bool]  # (context distribution, D(J)) -> bool


def prob_bimodule(
    graded_lens,
    element_pool: Callable[[Any, Any, Any], list] | None = None,
    context_pool: Callable[[Any, Any], list] | None = None,
    dist_pool: Callable[[FinSet], list] | None = None,
) -> GradedBimodule:
    """Distribution-judged predicates acted on by lens families.

    The left action spreads each context over the prefix marginal (each
    charged prefix strategy extends the state, with the product weight);
    the right action spreads it over the suffix marginal (each charged
    suffix strategy is prepended to the continuation).  Expected payoffs
    are taken only where a decision is judged.

    Equality compares the verdicts at every registered context (as a
    point distribution, or a given distribution) and every registered
    strategy distribution of the grade.  The key is the grade with those
    verdicts, so key equality is equality; without both pools there is
    neither equality nor a key.
    """

    def hom(grade, x, y):
        if element_pool is None:
            raise DomainError("probabilistic predicates are not enumerable")
        return element_pool(grade, x, y)

    def glact(a: ParamFamily, b: ProbElement):
        if a.dst != b.src:
            raise CompositionError("probabilistic left action: endpoint mismatch")
        grade = product(a.grade, b.grade)

        def pred(cd: Dist, d: Dist) -> bool:
            prefix = dist_marginal(d, 0)
            suffix = dist_marginal(d, 1)
            pushed = dist_bind(
                cd,
                lambda c: prefix.map(
                    lambda j1: prob_ctx_ract(c, a.member(j1))
                ),
            )
            return b.pred(pushed, suffix)

        return ProbElement(a.src, b.dst, grade, pred)

    def gract(b: ProbElement, a: ParamFamily):
        if b.dst != a.src:
            raise CompositionError("probabilistic right action: endpoint mismatch")
        grade = product(b.grade, a.grade)

        def pred(cd: Dist, d: Dist) -> bool:
            suffix = dist_marginal(d, 1)
            spread = dist_bind(
                cd,
                lambda c: suffix.map(lambda j2: prob_ctx_lact(a.member(j2), c)),
            )
            return b.pred(spread, dist_marginal(d, 0))

        return ProbElement(b.src, a.dst, grade, pred)

    def st(b: ProbElement, z_obj: PairObj):
        xz, yz = PAIR.tensor(b.src, z_obj), PAIR.tensor(b.dst, z_obj)
        return ProbElement(
            xz,
            yz,
            b.grade,
            lambda cd, d: b.pred(
                cd.map(lambda c: prob_ctx_cst(c, b.src, b.dst, z_obj)), d
            ),
        )

    def regrade(phi: FinFun, b: ProbElement):
        return ProbElement(
            b.src,
            b.dst,
            phi.dom,
            lambda c, d: b.pred(c, d.map(phi)),
        )

    def verdicts(b: ProbElement) -> tuple:
        return tuple(
            b.pred(c if isinstance(c, Dist) else dist_pure(c), d)
            for c in context_pool(b.src, b.dst)
            for d in dist_pool(b.grade)
        )

    def equal(b1, b2):
        if (b1.src, b1.dst, b1.grade) != (b2.src, b2.dst, b2.grade):
            return False
        if context_pool is None or dist_pool is None:
            raise DomainError("probabilistic equality needs registered pools")
        return verdicts(b1) == verdicts(b2)

    return GradedBimodule(
        name="probequib",
        arrow=graded_lens,
        hom=hom,
        glact=glact,
        gract=gract,
        regrade=regrade,
        equal=equal,
        st=st,
        e=lambda grade, x, y: ProbElement(x, y, grade, lambda c, d: True),
        m=lambda b1, b2: ProbElement(
            b1.src,
            b1.dst,
            b1.grade,
            lambda c, d: b1.pred(c, d) and b2.pred(c, d),
        ),
        commutative=True,
        key=None if context_pool is None or dist_pool is None else (
            lambda b: (b.grade.elements, verdicts(b))
        ),
    )


PROB_ARROW = graded_product(_GRADED, prob_bimodule(_GRADED))


def prob_decision(x_set: FinSet, y_set: FinSet, util: FinSet) -> OpenGame:
    """A decision judged on mixed strategies by exact expected payoff.

    A distribution passes at (x, k) when its expected payoff is at least
    that of every pure deviation.
    """
    base = decision(x_set, y_set, util)

    def value(cd: Dist, j) -> Fraction:
        # expected payoff of the pure strategy j over the contexts
        return sum(
            (
                w * Fraction(c.cont(base.play(j).fwd(c.state)))
                for c, w in cd.weights
            ),
            Fraction(0),
        )

    def pred(cd: Dist, d: Dist) -> bool:
        expected = sum(
            (w * value(cd, j) for j, w in d.weights), Fraction(0)
        )
        return all(expected >= value(cd, j) for j in base.index)

    return _game(PROB_ARROW, base.index, base.plays.members, ProbElement, pred)


def prob_payoff_block(u: FinFun) -> OpenGame:
    base = payoff_block(u)
    return _game(
        PROB_ARROW, base.index, base.plays.members, ProbElement, lambda cd, d: True
    )
