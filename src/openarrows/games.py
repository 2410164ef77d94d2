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

There is one context type for all three judgements (rows, best
responses and probabilistic predicates): a ``CtxPair``, the point a game
starts at and the table that pays off each of its outcomes.
``game_context`` builds one and ``trivial_context`` gives a closed game's
unique one; a probabilistic judgement reads a distribution over them.

Best-response relations are rows too: at a context, the set of related
profile pairs.  One constructor builds both row bimodules, which differ
only in how rows join, pull back and merge, and the law suites check the
best-response one.  A brute-force normal-form oracle gives an
independent check of the Boolean verdicts.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Any, Callable

from .base import PAIR, PAIR_I, BaseMap, PairObj
from .bimodule import Bimodule, CtxPair, ctx_of_arrow
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
from .lens import Lens, lens_arrow
from .record import record

_LENS = lens_arrow([])
GAME_CTX: Bimodule = ctx_of_arrow(_LENS)
_GRADED = grade_by_param(_LENS)
_ONE = FinSet((STAR,))  # the strategy index of a game without a choice
#: equality of game judgements refuses endpoints with more contexts than this
CONTEXT_BOUND = 2**16


# -- contexts -----------------------------------------------------------------

def game_context(g, state, cont: FinFun) -> CtxPair:
    """The context that starts ``g`` at ``state`` and pays its output by ``cont``."""
    if state not in g.src.fwd:
        raise DomainError(f"{state!r} not in {g.src.fwd}")
    if cont.dom != g.dst.fwd or cont.cod != g.dst.bwd:
        raise DomainError("continuation table has wrong endpoints")
    return CtxPair(g.dst, g.src, state, cont)


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
    return GAME_CTX.hom_cached(y, x)


# -- row judgements -------------------------------------------------------------

@record(frozen=True, eq=False, omit_repr=("row",))
class RowElement:
    """A judgement at each context, computed on demand.

    ``row(c)`` is the judgement at context ``c``: under ``row_bimodule``,
    one monoid value per element of ``grade``, in its order; under
    ``best_resp_bimodule``, the frozenset of related profile pairs.
    Nothing is tabulated: games compose pointwise in the context, so
    enumerating contexts when composing would be work for nothing.
    """

    src: PairObj
    dst: PairObj
    grade: FinSet  # the strategy (profile) index
    row: Callable[[CtxPair], Any]


def _row_judgement(
    name: str,
    arrow: GradedArrow,
    left: Callable[[FinSet, list], Any],
    right: Callable[[FinSet, list], Any],
    pull: Callable[[FinFun, FinSet], Callable[[Any], Any]],
    unit: Callable[[FinSet], Any],
    merge: Callable[[Any, Any], Any],
    commutative: bool,
    element_pool: Callable[[Any, Any, Any], list] | None = None,
    context_pool: Callable[[Any, Any], list] | None = None,
) -> GradedBimodule:
    """Rows of one algebra's values in context, as a graded bimodule.

    Its elements are ``RowElement``s.  The left action reads the operand's
    row at the context extended by each member of the family and joins
    those rows with ``left(family grade, rows)``; the right action reads it
    at the context with each member prepended and joins with ``right``.
    ``st`` reads the row at the costrength, ``regrade`` maps each row
    through ``pull(phi, grade)``, ``e`` is ``unit(grade)`` everywhere and
    ``m`` merges two rows context by context.  Equality and the key read
    rows over the endpoints' context pool (by default every context
    ``GAME_CTX`` enumerates, up to ``CONTEXT_BOUND``), so key equality is
    equality.
    """
    ctx = GAME_CTX
    pool_of = context_pool or _game_contexts
    pools: dict = {}

    def ctxs(x, y):
        # one list per endpoint pair
        if (x, y) not in pools:
            pools[(x, y)] = pool_of(x, y)
        return pools[(x, y)]

    def hom(grade, x, y):
        if element_pool is None:
            raise DomainError(f"the {name} bimodule is not enumerable")
        return element_pool(grade, x, y)

    def glact(a: ParamFamily, b: RowElement):
        if a.dst != b.src:
            raise CompositionError(f"{name} left action: endpoint mismatch")
        return RowElement(
            a.src, b.dst, product(a.grade, b.grade),
            lambda c: left(a.grade, [b.row(ctx.ract(c, aj)) for aj in a.members]),
        )

    def gract(b: RowElement, a: ParamFamily):
        if b.dst != a.src:
            raise CompositionError(f"{name} right action: endpoint mismatch")
        return RowElement(
            b.src, a.dst, product(b.grade, a.grade),
            lambda c: right(a.grade, [b.row(ctx.lact(ak, c)) for ak in a.members]),
        )

    def st(b: RowElement, z_obj: PairObj):
        return RowElement(
            PAIR.tensor(b.src, z_obj),
            PAIR.tensor(b.dst, z_obj),
            b.grade,
            lambda c: b.row(ctx.cst(c, b.dst, b.src, z_obj)),
        )

    def regrade(phi: FinFun, b: RowElement):
        pulled = pull(phi, b.grade)
        return RowElement(b.src, b.dst, phi.dom, lambda c: pulled(b.row(c)))

    def equal(b1, b2):
        if (b1.src, b1.dst, b1.grade) != (b2.src, b2.dst, b2.grade):
            return False
        return all(b1.row(c) == b2.row(c) for c in ctxs(b1.src, b1.dst))

    def e(grade, x, y):
        row = unit(grade)
        return RowElement(x, y, grade, lambda c: row)

    return GradedBimodule(
        name=name,
        arrow=arrow,
        hom=hom,
        glact=glact,
        gract=gract,
        regrade=regrade,
        equal=equal,
        st=st,
        e=e,
        m=lambda b1, b2: RowElement(
            b1.src, b1.dst, b1.grade, lambda c: merge(b1.row(c), b2.row(c))
        ),
        commutative=commutative,
        key=lambda b: (
            b.grade.elements, tuple(b.row(c) for c in ctxs(b.src, b.dst))
        ),
    )


def row_bimodule(m_monoid: Monoid) -> GradedBimodule:
    """Rows of ``m_monoid`` values in context, acted on by lens families.

    The left action lays the rows read at each prefix lens end to end;
    the right action interleaves those read at each suffix lens into the
    order of the product grade.  Either runs one context action per
    member of the family.  ``st`` reads the row at the costrength,
    ``regrade`` permutes positions, ``m`` combines two rows position by
    position and ``e`` is a row of units.  Equality and the key compare
    rows at every context ``GAME_CTX`` enumerates, and refuse
    (``SizeError``) more than ``CONTEXT_BOUND``.
    """
    op, unit = m_monoid.op, m_monoid.unit

    def pull(phi, grade):
        # position j of the pulled-back row reads position phi(j)
        pos = [grade.index(j) for j in phi.table]
        return lambda row: tuple(map(row.__getitem__, pos))

    return _row_judgement(
        f"rows({m_monoid.name})",
        _GRADED,
        left=lambda grade, rows: tuple(itertools.chain.from_iterable(rows)),
        right=lambda grade, cols: tuple(itertools.chain.from_iterable(zip(*cols))),
        pull=pull,
        unit=lambda grade: (unit,) * len(grade),
        merge=lambda r1, r2: tuple(map(op, r1, r2)),
        commutative=m_monoid.commutative,
    )


@functools.cache
def row_arrow(m_monoid: Monoid) -> GradedArrow:
    """Lens families paired with rows of ``m_monoid`` judgements."""
    return graded_product(_GRADED, row_bimodule(m_monoid))


# -- open games ---------------------------------------------------------------

@record(frozen=True, omit_repr=("arrow",))
class OpenGame:
    """A game: a member of a game arrow, kept with that arrow.

    The member pairs the game's plays, a lens per strategy, with its
    judgement at the same grade: a ``RowElement`` under ``row_arrow(m)``,
    a ``ProbElement`` under ``PROB_ARROW``.  Games compose only with games
    on the same arrow.
    """

    arrow: GradedArrow
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
        return self.judgement.pred(dist_pure(c), d)


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
) -> OpenGame:
    """The atomic choice of a move per observation, judged by weak argmax.

    The utility carrier holds comparable payoff values (rationals).  A
    strategy is in equilibrium at (x, k) when no move beats its own:
    k(j(x)) >= k(y) for every y.  The judgement emits the monoid's unit on
    success and otherwise ``False`` under bool-and, or the strictly better
    moves, sorted, under the witness multisets.
    """
    if len(y_set) == 0:
        raise DomainError("decision needs a non-empty move set")
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
        x = c.state
        pay = {y: Fraction(c.cont(y)) for y in y_set}
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


def lift_covariant(f: FinFun, m_monoid: Monoid = BOOL_AND) -> OpenGame:
    m = BaseMap(PairObj(f.dom, UNIT), PairObj(f.cod, UNIT), f, FinFun.identity(UNIT))
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
        raise sequence_error(g1.dst, g2.src)
    arrow = _shared_arrow(g1, g2)
    return OpenGame(arrow, arrow.gcomp(g1.member, g2.member))


def sequence_error(dst: PairObj, src: PairObj) -> CompositionError:
    """The refusal of ``seq`` for a game into ``dst`` and one out of ``src``."""
    return CompositionError(
        f"cannot sequence a game into {dst} with one out of {src}"
    )


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

@record(frozen=True)
class NormalFormGame:
    players: tuple
    strategies: tuple  # FinSet per player
    payoff: Callable[[tuple, int], Rat]  # (profile, player index) -> utility

    def profiles(self):
        return itertools.product(*(s.elements for s in self.strategies))


@record(frozen=True)
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

def best_resp_bimodule(
    graded_lens,
    element_pool: Callable[[Any, Any, Any], list] | None = None,
    context_pool: Callable[[Any, Any], list] | None = None,
) -> GradedBimodule:
    """Strategy-pair relations in context, acted on by lens families.

    An element is a ``RowElement`` whose row at a context is the frozenset
    of related profile pairs.  The left action extends the context with
    the prefix profile's lens and relates the suffix components; the
    second prefix component is discarded.  The right action mirrors this.
    ``regrade`` takes preimages, ``m`` intersects and ``e`` relates
    everything.

    Equality compares rows over the context pool of the endpoints
    (``context_pool``, by default every context ``GAME_CTX`` enumerates, up
    to ``CONTEXT_BOUND``), and the key is the grade with those rows, so key
    equality is equality.
    """

    def left(grade, rows):
        # ((j1, k1), (j2, k2)) for any j2, when k1, k2 are related in the
        # context extended by the lens j1 plays
        return frozenset(
            ((j1, k1), (j2, k2))
            for j1, row in zip(grade, rows)
            for k1, k2 in row
            for j2 in grade
        )

    def right(grade, rows):
        return frozenset(
            ((j1, k1), (j2, k2))
            for k1, row in zip(grade, rows)
            for j1, j2 in row
            for k2 in grade
        )

    def pull(phi, grade):
        # the preimage of the relation under phi x phi
        image = dict(zip(phi.dom.elements, phi.table))
        return lambda row: frozenset(
            (p1, p2) for p1, p2 in itertools.product(phi.dom, repeat=2)
            if (image[p1], image[p2]) in row
        )

    return _row_judgement(
        "bestresp",
        graded_lens,
        left=left,
        right=right,
        pull=pull,
        unit=lambda grade: frozenset(itertools.product(grade, repeat=2)),
        merge=frozenset.__and__,
        commutative=True,
        element_pool=element_pool,
        context_pool=context_pool,
    )


# -- probabilistic games ------------------------------------------------------

def dist_marginal(d: Dist, which: int) -> Dist:
    return d.map(lambda p: p[which])


@record(frozen=True)
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
    charged prefix strategy moves the point, with the product weight);
    the right action spreads it over the suffix marginal (each charged
    suffix strategy rewrites the continuation table).  Both act through
    ``GAME_CTX``, as the row and best-response bimodules do.  Expected
    payoffs are taken only where a decision is judged.

    Equality compares the verdicts at every registered context (as a
    point distribution, or a given distribution) and every registered
    strategy distribution of the grade.  The key is the grade with those
    verdicts, so key equality is equality; without both pools there is
    neither equality nor a key.
    """
    ctx = GAME_CTX

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
                    lambda j1: ctx.ract(c, a.member(j1))
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
                lambda c: suffix.map(lambda j2: ctx.lact(a.member(j2), c)),
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
                cd.map(lambda c: ctx.cst(c, b.dst, b.src, z_obj)), d
            ),
        )

    def regrade(phi: FinFun, b: ProbElement):
        return ProbElement(
            b.src,
            b.dst,
            phi.dom,
            lambda c, d: b.pred(c, d.map(phi)),
        )

    judged_at: dict = {}

    def verdicts(b: ProbElement) -> tuple:
        # one (context distribution, strategy distribution) list per
        # (endpoints, grade), read from the pools once
        k = (b.src, b.dst, b.grade)
        if k not in judged_at:
            judged_at[k] = [
                (c if isinstance(c, Dist) else dist_pure(c), d)
                for c in context_pool(b.src, b.dst)
                for d in dist_pool(b.grade)
            ]
        return tuple(b.pred(c, d) for c, d in judged_at[k])

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
