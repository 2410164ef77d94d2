"""Command-line front end.

Four subcommands:

``solve``
    Parse a game file and judge every strategy (or declared probe)
    against a context.

``laws``
    Run a law suite and stream one report per law; ``--mutants`` runs
    the planted-defect battery instead.

``oracle``
    Cross-check a two-player simultaneous game against the brute-force
    equilibrium search.

``fmt``
    Reprint a game file in canonical form.

Exit codes: 0 success, 1 internal failure or negative verdict, 2 bad
input (parse, type, context mismatch, or a bad size), 3 size bound
exceeded, 4 the oracle cannot interpret the game's shape.  All output is
deterministic; JSON output is one object per line with a ``schema`` tag.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .finset import STAR, FinFun, FinSet, clear_identity_memos, product
from .gamefile import (
    GameFileError,
    Node,
    build_game,
    format_game_file,
    monoid_by_name,
    parse_game_file,
    probe_distribution,
    resolve_context,
    strategy_label,
)
from .games import decisions_to_normal_form, equilibria, nash_oracle, trivial_context
from .grading import SizeError
from .laws import SUITE_NAMES, run_mutants, run_suite

SCHEMA_SOLVE = "openarrows.solve/1"
SCHEMA_LAWS = "openarrows.laws/1"
SCHEMA_MUTANTS = "openarrows.mutants/1"
SCHEMA_ORACLE = "openarrows.oracle/1"

#: the largest ``laws --size``; above it, the closed-form case estimates
#: alone would build huge integers before any suite refuses on its budget
MAX_SIZE = 3


class OracleShapeError(ValueError):
    """The oracle only reads one simultaneous round of two decisions."""


def _text_value(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (tuple, list)):
        return "[" + " ".join(_text_value(x) for x in v) + "]"
    return str(v)


def _json_value(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    return str(v)


def _emit(record: dict, fmt: str, columns: tuple) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        print("\t".join(_text_value(record[c]) for c in columns))


def cmd_solve(args) -> int:
    monoid = monoid_by_name(args.monoid)
    gf = parse_game_file(args.file, monoid)
    built = build_game(gf, monoid)
    ctx = resolve_context(gf, built, None if args.closed else args.context)
    if built.prob:
        probes = sorted(gf.probes)
        if not probes:
            raise GameFileError(
                "a probabilistic game needs at least one probe to judge"
            )
        for name in probes:
            d = probe_distribution(gf, built, gf.probes[name])
            verdict = built.game.judge(ctx, d)
            _emit({"schema": SCHEMA_SOLVE, "probe": name,
                   "equilibrium": verdict},
                  args.format, ("probe", "equilibrium"))
        return 0
    table = equilibria(built.game, ctx)
    rows = sorted(
        (strategy_label(j), v) for j, v in table.items()
    )
    for label, v in rows:
        _emit({"schema": SCHEMA_SOLVE, "strategy": label,
               "equilibrium": _json_value(v)},
              args.format, ("strategy", "equilibrium"))
    return 0


def cmd_laws(args) -> int:
    if args.size < 1:
        print(f"error: --size must be at least 1, got {args.size}", file=sys.stderr)
        return 2
    if args.size > MAX_SIZE:
        print(f"error: size {args.size} exceeds the bound of {MAX_SIZE}",
              file=sys.stderr)
        return 3
    if args.mutants:
        for r in run_mutants():
            _emit({"schema": SCHEMA_MUTANTS, "target": r.target,
                   "failed": list(r.failed), "isolated": r.isolated},
                  args.format, ("target", "failed", "isolated"))
        # the checked structures are broken by construction: always nonzero
        return 1
    reports = run_suite(args.suite, size=args.size)
    ok = True
    for r in reports:
        ok = ok and r.status == "pass"
        _emit({"schema": SCHEMA_LAWS, "law": r.law, "instance": r.instance,
               "status": r.status, "checked": r.checked,
               "equality": r.equality,
               "counterexample": _json_value(r.counterexample)},
              args.format, ("status", "law", "instance", "checked"))
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    gf = parse_game_file(args.file)
    e = gf.game.expr
    shape_ok = (
        isinstance(e, Node) and e.op == "seq"
        and isinstance(e.left, Node) and e.left.op == "par"
        and not isinstance(e.left.left, Node)
        and not isinstance(e.left.right, Node)
        and not isinstance(e.right, Node)
        and e.left.left.name in gf.decisions
        and e.left.right.name in gf.decisions
        and gf.decisions[e.left.left.name].obs is None
        and gf.decisions[e.left.right.name].obs is None
        and not gf.decisions[e.left.left.name].prob
        and e.right.name in gf.payoffs
        and len(gf.payoffs[e.right.name].args) == 2
        and len(gf.payoffs[e.right.name].utils) == 2
    )
    if not shape_ok:
        raise OracleShapeError(
            "the oracle reads exactly (seq (par d1 d2) u): two plain "
            "unit-observation decisions under a two-player payoff"
        )
    built = build_game(gf)
    d1 = built.atoms[e.left.left.name]
    d2 = built.atoms[e.left.right.name]
    p = gf.payoffs[e.right.name]
    joint = product(d1.dst.fwd, d2.dst.fwd)
    utils = [
        FinFun.of(joint, _util_set(gf, p, i),
                  {row: pays[i] for row, pays in p.rows})
        for i in range(2)
    ]
    comp = sorted(
        (j1(STAR), j2(STAR))
        for ((j1, j2), _), v in equilibria(built.game,
                                           trivial_context(built.game)).items()
        if v
    )
    oracle_eq, _report = nash_oracle(
        decisions_to_normal_form([d1, d2], utils)
    )
    oracle_eq = sorted(oracle_eq)
    agree = comp == oracle_eq
    record = {
        "schema": SCHEMA_ORACLE,
        "compositional": [list(pr) for pr in comp],
        "oracle": [list(pr) for pr in oracle_eq],
        "agree": agree,
    }
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        fmt_side = lambda prs: " ".join(",".join(map(str, pr)) for pr in prs) or "-"
        print(f"compositional\t{fmt_side(comp)}")
        print(f"oracle\t{fmt_side(oracle_eq)}")
        print(f"agree\t{_text_value(agree)}")
    return 0 if agree else 1


def _util_set(gf, p, i) -> FinSet:
    return FinSet(gf.sets[p.utils[i]].elements)


def cmd_fmt(args) -> int:
    gf = parse_game_file(args.file)
    sys.stdout.write(format_game_file(gf))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openarrows",
        description="solve, check, and cross-validate finite open games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="judge every strategy of a game file")
    p.add_argument("file")
    p.add_argument("--context", default=None,
                   help="name of a declared context")
    p.add_argument("--closed", action="store_true",
                   help="use the unique context of a closed game")
    p.add_argument("--monoid", default="bool", choices=("bool", "witness"))
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("laws", help="run a coherence-law suite")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p.add_argument("--size", type=int, default=2,
                   help="carrier size bound (default 2)")
    p.add_argument("--mutants", action="store_true",
                   help="run the planted-defect battery instead")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("oracle",
                       help="compare against brute-force equilibrium search")
    p.add_argument("file")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("fmt", help="reprint a game file canonically")
    p.add_argument("file")
    p.set_defaults(fn=cmd_fmt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OracleShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GameFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        # one call owns the carriers it built: the next call shares none
        clear_identity_memos()


if __name__ == "__main__":
    sys.exit(main())
