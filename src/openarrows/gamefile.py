"""A small declaration language for finite games.

Files are line-oriented: one declaration per line, with indented
continuation rows for tables, and a single s-expression for the
composition term.  The syntax is deliberately tiny — every fixture should
be diffable and writable by hand:

    set moves C D
    payoff u : moves moves -> util util
      C C = 2 2
      ...
    decision d1 : moves utility util
    game main = (seq (par d1 d2) u)

Parsing resolves every name and type-checks the composition; the result
round-trips bit-for-bit through :func:`format_game_file`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .bimodule import CtxPair
from .finset import (
    BOOL_AND,
    STAR,
    UNIT,
    WITNESSES,
    Dist,
    DomainError,
    FinFun,
    FinSet,
    dist_product,
    dist_pure,
    product,
)
from .games import (
    OpenGame,
    decision,
    game_context,
    lift_covariant,
    par,
    payoff_block,
    prob_decision,
    prob_payoff_block,
    seq,
    trivial_context,
)


class GameFileError(ValueError):
    """Any problem with a game description."""


class ParseError(GameFileError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class EndpointError(GameFileError):
    """A composition whose operand interfaces do not meet."""


class ContextError(GameFileError):
    """A context that cannot judge the declared game."""


# -- declarations -------------------------------------------------------------

@dataclass(frozen=True)
class SetDecl:
    name: str
    elements: tuple


@dataclass(frozen=True)
class PayoffDecl:
    name: str
    args: tuple  # argument set names
    utils: tuple  # utility set names, one per player
    rows: tuple  # ((arg values...), (util values...)) pairs


@dataclass(frozen=True)
class LiftDecl:
    name: str
    src: str
    dst: str
    rows: tuple  # (element, element) pairs


@dataclass(frozen=True)
class DecisionDecl:
    name: str
    obs: str | None  # observation set; None observes the unit
    moves: str
    util: str
    prob: bool = False


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Node:
    op: str  # "seq" | "par"
    left: Any
    right: Any


@dataclass(frozen=True)
class GameDecl:
    name: str
    expr: Any


@dataclass(frozen=True)
class ContextDecl:
    name: str
    trivial: bool
    state: Any = None
    cont_rows: tuple = ()


@dataclass(frozen=True)
class ProbeDecl:
    name: str
    parts: tuple  # (decision name, ((move, Fraction weight), ...)) pairs


@dataclass(frozen=True)
class GameFile:
    decls: tuple

    def _of(self, kind):
        return {d.name: d for d in self.decls if isinstance(d, kind)}

    @property
    def sets(self):
        return self._of(SetDecl)

    @property
    def payoffs(self):
        return self._of(PayoffDecl)

    @property
    def lifts(self):
        return self._of(LiftDecl)

    @property
    def decisions(self):
        return self._of(DecisionDecl)

    @property
    def contexts(self):
        return self._of(ContextDecl)

    @property
    def probes(self):
        return self._of(ProbeDecl)

    @property
    def game(self) -> GameDecl:
        return next(d for d in self.decls if isinstance(d, GameDecl))


# -- tokenizing ---------------------------------------------------------------

_INT = re.compile(r"-?\d+$")
_FRACTION = re.compile(r"-?\d+/\d+$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str):
    """Comment-stripped tokens per line, with the line's indentation."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        indent = len(body) - len(body.lstrip())
        toks = [_Tok(m.group(), ln, m.start() + 1)
                for m in re.finditer(r"[()]|[^\s()]+", body)]
        out.append((indent, toks))
    return out


def _value(tok: _Tok):
    if tok.text == "*":
        return STAR
    if _INT.match(tok.text):
        return int(tok.text)
    return tok.text


def _render_elem(v) -> str:
    if v is STAR:
        return "*"
    return str(v)


def _expect(toks: list, i: int, what: str) -> _Tok:
    if i >= len(toks):
        last = toks[-1]
        raise ParseError(f"expected {what} at end of line", last.line,
                         last.col + len(last.text))
    return toks[i]


def _expect_text(toks: list, i: int, text: str) -> None:
    t = _expect(toks, i, f"{text!r}")
    if t.text != text:
        raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)


def _name_tok(toks: list, i: int, what: str) -> _Tok:
    t = _expect(toks, i, what)
    if not _NAME.match(t.text):
        raise ParseError(f"{what} must be an identifier, found {t.text!r}",
                         t.line, t.col)
    return t


# -- the s-expression composition term ---------------------------------------

def _parse_expr(toks: list, i: int):
    t = _expect(toks, i, "a composition term")
    if t.text == "(":
        op = _expect(toks, i + 1, "an operator")
        if op.text not in ("seq", "par"):
            raise ParseError(
                f"unknown operator {op.text!r} (expected seq or par)",
                op.line, op.col,
            )
        left, i = _parse_expr(toks, i + 2)
        right, i = _parse_expr(toks, i)
        close = _expect(toks, i, "')'")
        if close.text != ")":
            raise ParseError(f"expected ')', found {close.text!r}",
                             close.line, close.col)
        return Node(op.text, left, right), i + 1
    if t.text == ")":
        raise ParseError("unexpected ')'", t.line, t.col)
    if not _NAME.match(t.text):
        raise ParseError(f"expected a game name, found {t.text!r}",
                         t.line, t.col)
    return Atom(t.text), i + 1


def _format_expr(e) -> str:
    if isinstance(e, Atom):
        return e.name
    return f"({e.op} {_format_expr(e.left)} {_format_expr(e.right)})"


# -- parsing ------------------------------------------------------------------

def parse_game_text(text: str) -> GameFile:
    lines = _tokenize(text)
    decls: list = []
    names: dict[str, _Tok] = {}

    def declare(tok: _Tok) -> str:
        if tok.text in names:
            raise ParseError(f"duplicate declaration of {tok.text!r}",
                             tok.line, tok.col)
        names[tok.text] = tok
        return tok.text

    def rows_after(k: int) -> tuple[list, int]:
        body = []
        while k < len(lines) and lines[k][0] > 0:
            body.append(lines[k][1])
            k += 1
        return body, k

    k = 0
    while k < len(lines):
        indent, toks = lines[k]
        head = toks[0]
        if indent > 0:
            raise ParseError(
                f"unexpected continuation row {head.text!r}", head.line, head.col
            )
        k += 1
        if head.text == "set":
            name = declare(_name_tok(toks, 1, "set name"))
            if len(toks) < 3:
                raise ParseError("a set needs at least one element",
                                 head.line, head.col)
            elems = tuple(_value(t) for t in toks[2:])
            if len(set(map(repr, elems))) != len(elems):
                raise ParseError(f"set {name!r} repeats an element",
                                 toks[2].line, toks[2].col)
            decls.append(SetDecl(name, elems))
        elif head.text == "payoff":
            body, k = rows_after(k)
            decls.append(_parse_payoff(toks, body, declare))
        elif head.text == "lift":
            body, k = rows_after(k)
            decls.append(_parse_lift(toks, body, declare))
        elif head.text in ("decision", "probdecision"):
            decls.append(_parse_decision(toks, declare))
        elif head.text == "game":
            name = declare(_name_tok(toks, 1, "game name"))
            _expect_text(toks, 2, "=")
            expr, j = _parse_expr(toks, 3)
            if j != len(toks):
                t = toks[j]
                raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
            decls.append(GameDecl(name, expr))
        elif head.text == "context":
            body, k = rows_after(k)
            decls.append(_parse_context(toks, body, declare))
        elif head.text == "probe":
            body, k = rows_after(k)
            decls.append(_parse_probe(toks, body, declare))
        else:
            raise ParseError(f"unknown declaration {head.text!r}",
                             head.line, head.col)

    gf = GameFile(tuple(decls))
    _validate(gf)
    return gf


def _parse_payoff(toks, body, declare):
    name = declare(_name_tok(toks, 1, "payoff name"))
    _expect_text(toks, 2, ":")
    args, i = [], 3
    while i < len(toks) and toks[i].text != "->":
        args.append(_name_tok(toks, i, "argument set").text)
        i += 1
    _expect_text(toks, i, "->")
    utils = [_name_tok(toks, j, "utility set").text for j in range(i + 1, len(toks))]
    if not args or not utils:
        raise ParseError("a payoff needs argument and utility sets",
                         toks[0].line, toks[0].col)
    rows = []
    for row in body:
        vals = [_value(t) for t in row]
        eq = [t.text for t in row]
        if "=" not in eq:
            raise ParseError("payoff row needs '='", row[0].line, row[0].col)
        at = eq.index("=")
        if at != len(args) or len(vals) - at - 1 != len(utils):
            raise ParseError("payoff row arity mismatch", row[0].line, row[0].col)
        rows.append((tuple(vals[:at]), tuple(vals[at + 1:])))
    return PayoffDecl(name, tuple(args), tuple(utils), tuple(rows))


def _parse_lift(toks, body, declare):
    name = declare(_name_tok(toks, 1, "lift name"))
    _expect_text(toks, 2, ":")
    src = _name_tok(toks, 3, "source set").text
    _expect_text(toks, 4, "->")
    dst = _name_tok(toks, 5, "target set").text
    rows = []
    for row in body:
        if len(row) != 3 or row[1].text != "=":
            raise ParseError("lift row must be 'a = b'", row[0].line, row[0].col)
        rows.append((_value(row[0]), _value(row[2])))
    return LiftDecl(name, src, dst, tuple(rows))


def _parse_decision(toks, declare):
    prob = toks[0].text == "probdecision"
    name = declare(_name_tok(toks, 1, "decision name"))
    _expect_text(toks, 2, ":")
    rest = [t.text for t in toks[3:]]
    if "->" in rest:
        obs = _name_tok(toks, 3, "observation set").text
        _expect_text(toks, 4, "->")
        i = 5
    else:
        obs = None
        i = 3
    moves = _name_tok(toks, i, "move set").text
    _expect_text(toks, i + 1, "utility")
    util = _name_tok(toks, i + 2, "utility set").text
    if i + 3 != len(toks):
        t = toks[i + 3]
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return DecisionDecl(name, obs, moves, util, prob)


def _parse_context(toks, body, declare):
    name = declare(_name_tok(toks, 1, "context name"))
    if len(toks) == 3 and toks[2].text == "trivial":
        if body:
            r = body[0]
            raise ParseError("a trivial context has no rows", r[0].line, r[0].col)
        return ContextDecl(name, trivial=True)
    if len(toks) != 2:
        t = toks[2]
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    state, rows = None, []
    for row in body:
        if row[0].text == "state" and len(row) == 2:
            state = _value(row[1])
        elif row[0].text == "cont" and len(row) == 4 and row[2].text == "=":
            rows.append((_value(row[1]), _value(row[3])))
        else:
            raise ParseError("context rows are 'state X' or 'cont Y = V'",
                             row[0].line, row[0].col)
    if state is None:
        raise ParseError(f"context {name!r} declares no state",
                         toks[0].line, toks[0].col)
    return ContextDecl(name, trivial=False, state=state, cont_rows=tuple(rows))


def _parse_probe(toks, body, declare):
    name = declare(_name_tok(toks, 1, "probe name"))
    parts = []
    for row in body:
        who = _name_tok(row, 0, "decision name").text
        _expect_text(row, 1, "=")
        pairs = row[2:]
        if not pairs or len(pairs) % 2:
            raise ParseError("probe row needs move/weight pairs",
                             row[0].line, row[0].col)
        weights = []
        for j in range(0, len(pairs), 2):
            wt = pairs[j + 1]
            if not (_FRACTION.match(wt.text) or _INT.match(wt.text)):
                raise ParseError(f"weight {wt.text!r} is not a rational",
                                 wt.line, wt.col)
            weights.append((_value(pairs[j]), Fraction(wt.text)))
        if sum(w for _, w in weights) != 1:
            raise ParseError(f"probe weights for {who!r} must sum to 1",
                             row[0].line, row[0].col)
        parts.append((who, tuple(weights)))
    return ProbeDecl(name, tuple(parts))


def parse_game_file(path) -> GameFile:
    with open(path, encoding="utf-8") as fh:
        return parse_game_text(fh.read())


# -- static validation --------------------------------------------------------

def _validate(gf: GameFile) -> None:
    games = [d for d in gf.decls if isinstance(d, GameDecl)]
    if not games:
        raise GameFileError("no game declared")
    if len(games) > 1:
        raise GameFileError("more than one game declared")
    sets = gf.sets

    def known_set(name, owner):
        if name not in sets:
            raise GameFileError(f"{owner} references unknown set {name!r}")
        return set(sets[name].elements)

    for p in gf.payoffs.values():
        arg_sets = [known_set(a, f"payoff {p.name!r}") for a in p.args]
        util_sets = [known_set(u, f"payoff {p.name!r}") for u in p.utils]
        seen = set()
        for args, utils in p.rows:
            for v, s in zip(args, arg_sets):
                if v not in s:
                    raise GameFileError(
                        f"payoff {p.name!r} row uses {v!r} outside its set"
                    )
            for v, s in zip(utils, util_sets):
                if v not in s:
                    raise GameFileError(
                        f"payoff {p.name!r} pays {v!r} outside its utility set"
                    )
            seen.add(args)
        want = 1
        for s in arg_sets:
            want *= len(s)
        if len(seen) != len(p.rows) or len(p.rows) != want:
            raise GameFileError(f"payoff {p.name!r} must tabulate every "
                                f"argument combination exactly once")
    for lf in gf.lifts.values():
        src = known_set(lf.src, f"lift {lf.name!r}")
        dst = known_set(lf.dst, f"lift {lf.name!r}")
        if {a for a, _ in lf.rows} != src or len(lf.rows) != len(src):
            raise GameFileError(f"lift {lf.name!r} must map every source "
                                f"element exactly once")
        for _, b in lf.rows:
            if b not in dst:
                raise GameFileError(f"lift {lf.name!r} maps into {b!r} "
                                    f"outside its target set")
    for d in gf.decisions.values():
        if d.obs is not None:
            known_set(d.obs, f"decision {d.name!r}")
        known_set(d.moves, f"decision {d.name!r}")
        known_set(d.util, f"decision {d.name!r}")
    for pr in gf.probes.values():
        for who, weights in pr.parts:
            d = gf.decisions.get(who)
            if d is None or not d.prob:
                raise GameFileError(
                    f"probe {pr.name!r} assigns to {who!r}, which is not a "
                    f"probabilistic decision"
                )
            moves = set(sets[d.moves].elements)
            played = [m for m, _ in weights]
            if len(set(map(repr, played))) != len(played):
                raise GameFileError(f"probe {pr.name!r} repeats a move "
                                    f"for {who!r}")
            for m in played:
                if m not in moves:
                    raise GameFileError(f"probe {pr.name!r} plays {m!r} "
                                        f"outside the move set of {who!r}")
    build_game(gf)  # type-check the composition


# -- formatting ---------------------------------------------------------------

def format_game_file(gf: GameFile) -> str:
    chunks = []
    for d in gf.decls:
        if isinstance(d, SetDecl):
            chunks.append(f"set {d.name} "
                          + " ".join(_render_elem(e) for e in d.elements))
        elif isinstance(d, PayoffDecl):
            head = (f"payoff {d.name} : " + " ".join(d.args)
                    + " -> " + " ".join(d.utils))
            rows = [
                "  " + " ".join(_render_elem(v) for v in args)
                + " = " + " ".join(_render_elem(v) for v in utils)
                for args, utils in d.rows
            ]
            chunks.append("\n".join([head] + rows))
        elif isinstance(d, LiftDecl):
            head = f"lift {d.name} : {d.src} -> {d.dst}"
            rows = [f"  {_render_elem(a)} = {_render_elem(b)}"
                    for a, b in d.rows]
            chunks.append("\n".join([head] + rows))
        elif isinstance(d, DecisionDecl):
            kw = "probdecision" if d.prob else "decision"
            obs = f"{d.obs} -> " if d.obs is not None else ""
            chunks.append(f"{kw} {d.name} : {obs}{d.moves} utility {d.util}")
        elif isinstance(d, GameDecl):
            chunks.append(f"game {d.name} = {_format_expr(d.expr)}")
        elif isinstance(d, ContextDecl):
            if d.trivial:
                chunks.append(f"context {d.name} trivial")
            else:
                rows = [f"  state {_render_elem(d.state)}"]
                rows += [f"  cont {_render_elem(y)} = {_render_elem(v)}"
                         for y, v in d.cont_rows]
                chunks.append("\n".join([f"context {d.name}"] + rows))
        elif isinstance(d, ProbeDecl):
            rows = [
                f"  {who} = "
                + " ".join(f"{_render_elem(m)} {w}" for m, w in weights)
                for who, weights in d.parts
            ]
            chunks.append("\n".join([f"probe {d.name}"] + rows))
    return "\n\n".join(chunks) + "\n"


# -- building the declared game ----------------------------------------------

@dataclass(frozen=True)
class BuiltGame:
    """A resolved composition: the game object plus its ingredients."""

    prob: bool  # judged on probes (PROB_ARROW) rather than by rows
    game: OpenGame  # what the composition term denotes
    expr: Any
    atoms: dict  # atom name -> OpenGame


def _finset(gf: GameFile, name: str) -> FinSet:
    return FinSet(gf.sets[name].elements)


def _payoff_fun(gf: GameFile, p: PayoffDecl) -> FinFun:
    if len(p.args) > 2 or len(p.utils) > 2:
        raise GameFileError(
            f"payoff {p.name!r}: blocks with more than two players need an "
            f"explicitly nested table, which this format does not offer"
        )
    arg_sets = [_finset(gf, a) for a in p.args]
    util_sets = [_finset(gf, u) for u in p.utils]
    dom = arg_sets[0] if len(arg_sets) == 1 else product(*arg_sets)
    cod = util_sets[0] if len(util_sets) == 1 else product(*util_sets)
    table = {
        (args[0] if len(args) == 1 else args):
        (utils[0] if len(utils) == 1 else utils)
        for args, utils in p.rows
    }
    return FinFun.of(dom, cod, table)


def _atom_names(e, out: list) -> list:
    if isinstance(e, Atom):
        out.append(e.name)
    else:
        _atom_names(e.left, out)
        _atom_names(e.right, out)
    return out


def build_game(gf: GameFile, m_monoid=BOOL_AND) -> BuiltGame:
    """Resolve the composition term into an open or probabilistic game."""
    expr = gf.game.expr
    used = _atom_names(expr, [])
    kinds = set()
    for name in used:
        if name in gf.decisions:
            kinds.add("prob" if gf.decisions[name].prob else "det")
        elif name in gf.payoffs or name in gf.lifts:
            pass
        else:
            raise GameFileError(f"game composes unknown name {name!r}")
    if kinds == {"det", "prob"}:
        raise GameFileError(
            "cannot mix plain and probabilistic decisions in one game"
        )
    prob = kinds == {"prob"}
    if prob and m_monoid.name != BOOL_AND.name:
        raise GameFileError("probabilistic games judge Booleans only")

    atoms: dict = {}

    def atom(name: str):
        if name in atoms:
            return atoms[name]
        if name in gf.decisions:
            d = gf.decisions[name]
            obs = UNIT if d.obs is None else _finset(gf, d.obs)
            moves, util = _finset(gf, d.moves), _finset(gf, d.util)
            g = (prob_decision(obs, moves, util) if d.prob
                 else decision(obs, moves, util, m_monoid=m_monoid))
        elif name in gf.payoffs:
            u = _payoff_fun(gf, gf.payoffs[name])
            g = prob_payoff_block(u) if prob else payoff_block(u, m_monoid)
        else:
            if prob:
                raise GameFileError(
                    f"lift {name!r} has no probabilistic interpretation"
                )
            lf = gf.lifts[name]
            fun = FinFun.of(_finset(gf, lf.src), _finset(gf, lf.dst),
                            dict(lf.rows))
            g = lift_covariant(fun, m_monoid=m_monoid)
        atoms[name] = g
        return g

    def build(e):
        if isinstance(e, Atom):
            return atom(e.name)
        left, right = build(e.left), build(e.right)
        try:
            if e.op == "seq":
                return seq(left, right)
            return par(left, right)
        except (DomainError, ValueError) as exc:
            raise EndpointError(
                f"at {_format_expr(e)}: {exc}"
            ) from exc

    return BuiltGame(prob, build(expr), expr, atoms)


def probe_distribution(gf: GameFile, built: BuiltGame, probe: ProbeDecl) -> Dist:
    """The joint strategy distribution a probe describes.

    The joint index nests like the composition term, so the distribution
    is assembled by the same tree walk, taking independent products.
    """
    parts = dict(probe.parts)

    def walk(e):
        if isinstance(e, Node):
            return dist_product(walk(e.left), walk(e.right))
        g = built.atoms[e.name]
        d = gf.decisions.get(e.name)
        if d is None or not d.prob:
            # a payoff block: a single strategy, charged with certainty
            return dist_pure(g.index.elements[0])
        if e.name not in parts:
            raise GameFileError(
                f"probe {probe.name!r} leaves decision {e.name!r} unassigned"
            )
        moves = _finset(gf, d.moves)
        return Dist(tuple(
            (FinFun.of(UNIT, moves, lambda _x, m=m: m), w)
            for m, w in parts[e.name]
        ))

    return walk(built.expr)


def resolve_context(gf: GameFile, built: BuiltGame, name: str | None) -> CtxPair:
    """A declared (or trivial) context, checked against the game's boundary."""
    g = built.game
    if name is None:
        try:
            return trivial_context(g)
        except DomainError as exc:
            raise ContextError(str(exc)) from exc
    decl = gf.contexts.get(name)
    if decl is None:
        raise ContextError(f"no context named {name!r}")
    if decl.trivial:
        try:
            return trivial_context(g)
        except DomainError as exc:
            raise ContextError(str(exc)) from exc
    if decl.state not in g.src.fwd:
        raise ContextError(
            f"context {name!r} starts at {decl.state!r}, which the game "
            f"does not observe"
        )
    table = dict(decl.cont_rows)
    missing = [y for y in g.dst.fwd if y not in table]
    if missing or len(table) != len(g.dst.fwd):
        raise ContextError(
            f"context {name!r} must pay off every outcome exactly once"
        )
    for y, v in table.items():
        if v not in g.dst.bwd:
            raise ContextError(
                f"context {name!r} pays {v!r} outside the utility carrier"
            )
    return game_context(g, decl.state, FinFun.of(g.dst.fwd, g.dst.bwd, table))


def strategy_label(j) -> str:
    """A stable, human-readable name for a (possibly nested) strategy."""
    parts = _label_parts(j, [])
    return ",".join(parts) if parts else "*"


def _label_parts(j, out: list) -> list:
    if isinstance(j, tuple):
        for part in j:
            _label_parts(part, out)
    elif isinstance(j, FinFun):
        if j.dom == UNIT:
            out.append(_render_elem(j(STAR)))
        else:
            out.append("[" + " ".join(
                f"{_render_elem(x)}>{_render_elem(j(x))}" for x in j.dom
            ) + "]")
    elif j is not STAR:
        out.append(_render_elem(j))
    return out


def fixture_path(name: str) -> str:
    """Absolute path of a bundled example game file."""
    import os

    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def monoid_by_name(name: str):
    table = {"bool": BOOL_AND, "witness": WITNESSES}
    if name not in table:
        raise GameFileError(
            f"unknown monoid {name!r} (choose from {sorted(table)})"
        )
    return table[name]
