"""Independent answers for two-player games, computed from the payoff table.

Nothing here imports `openarrows`: the expected output of every `solve` and
`oracle` call is derived in plain Python from the payoff table, so the
benchmark can tell a fast wrong answer from a fast right one.

A profile is a pure Nash equilibrium when neither player has a strictly
better pure move against the other's (weak argmax, as in Ghani, Hedges,
Winschel & Zahn, "Compositional game theory", LICS 2018).  A mixed probe is
an equilibrium when no player has a pure move whose expected payoff is
strictly higher than that of the probe, computed with exact fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _elem(tok: str):
    return int(tok) if re.fullmatch(r"-?\d+", tok) else tok


def pure_nash(moves: tuple, payoff: dict) -> list:
    """Pure Nash profiles, in row-major order."""
    return [p for p, devs in deviations(moves, payoff).items() if not devs]


def deviations(moves: tuple, payoff: dict) -> dict:
    """Per profile, each player's strictly better moves, sorted by repr.

    This is the witness multiset `solve --monoid witness` reports.
    """
    rows, cols = moves
    out = {}
    for r in rows:
        for c in cols:
            devs = [r2 for r2 in rows if payoff[r2, c][0] > payoff[r, c][0]]
            devs += [c2 for c2 in cols if payoff[r, c2][1] > payoff[r, c][1]]
            out[r, c] = tuple(sorted(devs, key=repr))
    return out


def probe_is_equilibrium(moves: tuple, payoff: dict, probe: tuple) -> bool:
    rows, cols = moves
    wr, wc = probe

    def row_pay(r):
        return sum((w * payoff[r, c][0] for c, w in wc.items()), Fraction(0))

    def col_pay(c):
        return sum((w * payoff[r, c][1] for r, w in wr.items()), Fraction(0))

    mine_r = sum((w * row_pay(r) for r, w in wr.items()), Fraction(0))
    mine_c = sum((w * col_pay(c) for c, w in wc.items()), Fraction(0))
    return (all(row_pay(r) <= mine_r for r in rows)
            and all(col_pay(c) <= mine_c for c in cols))


def parse_two_player(text: str) -> tuple:
    """Read a `(seq (par d1 d2) u)` game file: (moves, payoff, probes, prob).

    Only the subset of the format that two-player fixtures use is read:
    sets, one two-player payoff block, two decisions and probes.
    """
    sets, payoff, deciders, probes = {}, {}, [], {}
    prob = False
    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    block = None
    for ln in lines:
        if not ln.strip():
            continue
        toks = ln.split()
        if ln[0].isspace():
            if block == "payoff":
                lhs, rhs = ln.split("=")
                payoff[tuple(map(_elem, lhs.split()))] = tuple(
                    map(_elem, rhs.split()))
            elif block is not None and block[0] == "probe":
                who, rest = ln.split("=")
                ws = rest.split()
                probes[block[1]][who.strip()] = {
                    _elem(m): Fraction(w) for m, w in zip(ws[::2], ws[1::2])}
            continue
        block = None
        if toks[0] == "set":
            sets[toks[1]] = tuple(map(_elem, toks[2:]))
        elif toks[0] == "payoff":
            block = "payoff"
        elif toks[0] in ("decision", "probdecision"):
            prob = toks[0] == "probdecision"
            deciders.append((toks[1], sets[toks[3]]))
        elif toks[0] == "probe":
            block = ("probe", toks[1])
            probes[toks[1]] = {}
    (d1, m1), (d2, m2) = deciders
    return ((m1, m2), payoff,
            {n: (w[d1], w[d2]) for n, w in probes.items()}, prob)


# -- expected CLI output ------------------------------------------------------

def _label(profile: tuple) -> str:
    return ",".join(map(str, profile))


def _json(v):
    return list(v) if isinstance(v, tuple) else v


def expected_solve(moves: tuple, payoff: dict, monoid: str) -> list:
    """`solve --closed --format json` rows as (strategy label, verdict)."""
    devs = deviations(moves, payoff)
    rows = [
        (_label(p), (not d) if monoid == "bool" else _json(d))
        for p, d in devs.items()
    ]
    return sorted(rows)


def expected_probes(moves: tuple, payoff: dict, probes: dict) -> list:
    return sorted(
        (name, probe_is_equilibrium(moves, payoff, p)) for name, p in probes.items()
    )


def expected_oracle(moves: tuple, payoff: dict) -> dict:
    eq = sorted([list(p) for p in pure_nash(moves, payoff)])
    return {"compositional": eq, "oracle": eq, "agree": True}
