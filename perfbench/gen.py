"""Seeded generator of two-player strategic games written as `.game` text.

Every game is `(seq (par row col) u)`: two unit-observation decisions under
one payoff block.  Payoffs are integers in PAYOFFS.  Element names carry the
game's number and the player, so no two games share a carrier.

Move counts follow a fixed schedule, SIZES, in a seeded order: one n x n
game for each n in 2..7, so each player gets every count once and the
largest game has 49 profiles.  Solving cost grows steeply with the number
of profiles, so drawing sizes at random would make a pass's work, and so
its time, vary from seed to seed far more than the program does.

Each game number yields a plain game (judged by `solve --closed`, by
`solve --closed --monoid witness` and by `oracle`) and its `probdecision`
twin on the same payoff table, judged over mixed-strategy probes whose
weights have denominators of at most 4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from reference import pure_nash

SIZES = tuple((n, n) for n in range(2, 8))
PAYOFFS = tuple(range(0, 6))
MAX_DENOMINATOR = 4
PROBES_PER_GAME = 4


@dataclass(frozen=True)
class Game:
    """One generated game: its payoff table, probes and `.game` text."""

    name: str
    prob: bool
    moves: tuple  # (row moves, col moves)
    payoff: dict  # (row move, col move) -> (row utility, col utility)
    probes: dict  # probe name -> (row weights, col weights), move -> Fraction
    text: str


def _mixed(rng: random.Random, moves: tuple) -> dict:
    """A mixed strategy whose weights are k/d with d <= MAX_DENOMINATOR."""
    d = rng.randint(1, MAX_DENOMINATOR)
    units = [0] * len(moves)
    for _ in range(d):
        units[rng.randrange(len(moves))] += 1
    return {m: Fraction(k, d) for m, k in zip(moves, units) if k}


def _probes(rng: random.Random, moves: tuple, payoff: dict) -> dict:
    rows, cols = moves
    probes = {}
    # a pure Nash profile, when there is one, is a probe that must pass
    nash = pure_nash(moves, payoff)
    if nash:
        r, c = nash[rng.randrange(len(nash))]
        probes["p0"] = ({r: Fraction(1)}, {c: Fraction(1)})
    while len(probes) < PROBES_PER_GAME:
        probes[f"p{len(probes)}"] = (_mixed(rng, rows), _mixed(rng, cols))
    return probes


def _weights_text(w: dict) -> str:
    return " ".join(f"{m} {f}" for m, f in w.items())


def render(name: str, prob: bool, moves: tuple, payoff: dict, probes: dict) -> str:
    rows, cols = moves
    kind = "probdecision" if prob else "decision"
    lines = [
        f"# generated two-player game {name}",
        "",
        "set rowmoves " + " ".join(rows),
        "set colmoves " + " ".join(cols),
        "set util " + " ".join(map(str, PAYOFFS)),
        "",
        "payoff u : rowmoves colmoves -> util util",
    ]
    lines += [f"  {r} {c} = {a} {b}" for (r, c), (a, b) in payoff.items()]
    lines += [
        "",
        f"{kind} row : rowmoves utility util",
        f"{kind} col : colmoves utility util",
        "",
        "game g = (seq (par row col) u)",
    ]
    for pname, (wr, wc) in probes.items():
        lines += ["", f"probe {pname}", f"  row = {_weights_text(wr)}",
                  f"  col = {_weights_text(wc)}"]
    return "\n".join(lines) + "\n"


def generate(seed: int) -> list:
    """One plain game per entry of SIZES, each followed by its twin."""
    rng = random.Random(seed)
    sizes = list(SIZES)
    rng.shuffle(sizes)
    games = []
    for n, (n_rows, n_cols) in enumerate(sizes):
        table = [
            (rng.choice(PAYOFFS), rng.choice(PAYOFFS))
            for _ in range(n_rows * n_cols)
        ]
        for prob, tag in ((False, "g"), (True, "p")):
            rows = tuple(f"{tag}{n}r{i}" for i in range(n_rows))
            cols = tuple(f"{tag}{n}c{j}" for j in range(n_cols))
            payoff = {
                (r, c): table[i * n_cols + j]
                for i, r in enumerate(rows)
                for j, c in enumerate(cols)
            }
            probes = _probes(rng, (rows, cols), payoff) if prob else {}
            name = f"{tag}{n}"
            games.append(Game(name, prob, (rows, cols), payoff, probes,
                              render(name, prob, (rows, cols), payoff, probes)))
    return games
