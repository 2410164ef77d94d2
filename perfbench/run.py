"""The openarrows benchmark: law suites, the mutant battery and generated games.

Run from the repository root:

    python3 perfbench/run.py --workload laws-lens --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn.  Each repetition (one pass of
the workload) runs in a fresh interpreter, strictly one child at a time, as
a closed loop with one client: every CLI call starts after the previous one
returned.  The parent moves the child between its CPUs (`rotate_cpus`).
The child drives the package only through `openarrows.cli.main` and is
timed from outside it.  A fresh process per pass keeps memo tables
from being amortised across repetitions and gives set-up time and peak
memory per pass.  Passes repeat until `--seconds` is spent; `run_s` is the
fastest pass, because the host's other tenants only ever slow a pass, and
every other metric is the median over the run's passes.

Every output is checked: law reports against the verdicts and case counts
recorded in `expected_laws.json`, mutants against the recorded mutant table
(each fails exactly its own law), and `solve` and `oracle` against answers
computed from the generated payoff tables by `reference.py`.  A mismatch or
a wrong exit code is a failed operation.

With `--trace 1` the run makes one untraced pass, then traced passes whose
wrappers (see `tracer.py`) give per-layer call counts and self times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, holding the metrics that
`BENCHMARK.json` names for the mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, NamedTuple

import gen
import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected_laws.json")
WORKDIR = ".bench_work"

SETUP_SAMPLES = 5  # import-only children per run, besides one per pass
SWITCH_S = 0.02  # a child moves to the next CPU this often
MIN_PASSES = 2
DEADLINE_S = 170  # a workload's run must end within 180 s of its start

LAYERS = ("finset", "base", "lens", "arrow", "bimodule", "grading", "optic",
          "games", "laws", "gamefile", "cli")

# Law workloads run fixed suites; their seed changes nothing.  A pass must
# be short enough for at least two passes per run: the arrow suite runs at
# size 1 (7-10 s; 90 s at size 2 on a 2-core x86-64 VM), and the graded,
# bimodule and context suites at size 1 (43, 34 and 14 s at size 2).
LAW_PASSES = {
    "laws-lens": [("arrow", 1), ("optic", 2)],
    "laws-games": [("graded", 1), ("bimodule", 1), ("context", 1)],
}
MUTANT_WORKLOADS = ("laws-games",)  # also run `laws --mutants` once per pass
WORKLOADS = ("laws-lens", "laws-games", "solve-gen")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- one pass of each workload -------------------------------------------------

class Call(NamedTuple):
    """One CLI invocation, its metric group and the check of its output.

    `check(rc, stdout)` returns (operations, failed, messages, law cases).
    """

    argv: list
    group: str
    check: Callable


def _json_rows(stdout: str) -> list:
    rows = []
    for line in stdout.splitlines():
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            rows.append({"unparsed": line})
    return rows


def _compare_rows(expected: list, actual: list, rc, want_rc) -> tuple:
    """(operations, failed, messages): one operation per expected row."""
    failed = sum(1 for e, a in zip(expected, actual) if e != a)
    failed += abs(len(expected) - len(actual))
    msgs = [f"expected {e}, got {a}" for e, a in zip(expected, actual) if e != a]
    if len(expected) != len(actual):
        msgs.append(f"expected {len(expected)} rows, got {len(actual)}")
    if rc != want_rc:
        failed += 1
        msgs.append(f"exit code {rc}, expected {want_rc}")
    ops = max(len(expected), 1)
    return ops, min(failed, ops), msgs


def law_calls(workload: str, expected: dict) -> list:
    calls = []
    for suite, size in LAW_PASSES[workload]:
        want = expected[f"{suite}@{size}"]

        def check(rc, out, want=want):
            rows = _json_rows(out)
            got = [[r.get("law"), r.get("instance"), r.get("status"), r.get("checked")]
                   for r in rows]
            cases = sum(r.get("checked") or 0 for r in rows)
            return (*_compare_rows(want, got, rc, 0), cases)

        calls.append(Call(
            ["laws", "--suite", suite, "--size", str(size), "--format", "json"],
            f"suite_s.{suite}.size{size}", check))
    if workload in MUTANT_WORKLOADS:
        calls.append(Call(["laws", "--mutants", "--format", "json"], "mutants_s",
                          _mutant_check(expected["mutants"])))
    return calls


def _mutant_check(want: list):
    """One operation per mutant: it must fail exactly its own law, as recorded."""
    def check(rc, out):
        got = [[r.get("target"), r.get("failed"), r.get("isolated")]
               for r in _json_rows(out)]
        return (*_compare_rows(want, got, rc, 1), 0)
    return check


def solve_calls(seed: int, root: str) -> list:
    """Write the seed's games under the work directory; one call per check."""
    rel = os.path.join(WORKDIR, f"solve-gen-seed{seed}")
    os.makedirs(os.path.join(root, rel), exist_ok=True)
    calls = []
    for g in gen.generate(seed):
        path = os.path.join(rel, f"{g.name}.game")
        with open(os.path.join(root, path), "w") as f:
            f.write(g.text)
        solve = ["solve", path, "--closed", "--format", "json"]
        if g.prob:
            want = reference.expected_probes(g.moves, g.payoff, g.probes)
            calls.append(Call(solve, "solve", _solve_check(want, "probe")))
            continue
        for monoid in ("bool", "witness"):
            want = reference.expected_solve(g.moves, g.payoff, monoid)
            calls.append(Call(solve + ["--monoid", monoid], "solve",
                              _solve_check(want, "strategy")))
        want = reference.expected_oracle(g.moves, g.payoff)
        calls.append(Call(["oracle", path, "--format", "json"], "oracle",
                          _oracle_check(want)))
    return calls


def _solve_check(want: list, key: str):
    def check(rc, out):
        got = [(r.get(key), r.get("equilibrium")) for r in _json_rows(out)]
        _, failed, msgs = _compare_rows(want, got, rc, 0)
        return 1, min(1, failed), msgs, 0
    return check


def _oracle_check(want: dict):
    def check(rc, out):
        rows = _json_rows(out)
        got = {k: rows[0].get(k) for k in want} if len(rows) == 1 else rows
        msgs = [] if got == want else [f"oracle: expected {want}, got {got}"]
        if rc != 0:
            msgs.append(f"oracle exit code {rc}, expected 0")
        return 1, 1 if msgs else 0, msgs, 0
    return check


def build_pass(workload: str, seed: int, root: str) -> list:
    if workload == "solve-gen":
        return solve_calls(seed, root)
    with open(EXPECTED) as f:
        return law_calls(workload, json.load(f))


# -- running children ------------------------------------------------------------

def rotate_cpus(pid: int, stop: threading.Event) -> None:
    """Move process `pid` to the next of our CPUs every SWITCH_S seconds.

    On a shared host, other tenants slow each CPU by up to half,
    independently and in phases of seconds to minutes.  A child that stays
    on one CPU meets that CPU's phase; one that takes turns on all of them
    meets their average, so its time spreads far less between passes.  It
    still runs alone: one child at a time, on one CPU at a time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while len(cpus) > 1 and not stop.wait(SWITCH_S):
        turn += 1
        try:
            os.sched_setaffinity(pid, {cpus[turn % len(cpus)]})
        except OSError:  # the child has exited
            return


def spawn(root: str, argvs: list, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and wait for it to end."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=root, text=True)
    stop = threading.Event()
    rotation = threading.Thread(target=rotate_cpus, args=(proc.pid, stop))
    rotation.start()
    job = json.dumps({"spawned": spawned, "calls": argvs, "trace": trace})
    try:
        out, err = proc.communicate(job, timeout=deadline - spawned)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run would last longer than {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop.set()
        rotation.join()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q) - 1)] if s else 0.0


class Run:
    """The passes of one run and the checks of their outputs."""

    def __init__(self, workload: str, calls: list):
        self.workload, self.calls = workload, calls
        self.passes, self.traced, self.setup = [], [], []
        self.attempted = self.failed = 0
        self.messages = []

    def check(self, rec: dict) -> None:
        cases = 0
        for call, res in zip(self.calls, rec["calls"]):
            ops, failed, msgs, n = call.check(res["rc"], res["stdout"])
            self.attempted += ops
            self.failed += failed
            cases += n
            self.messages += [f"{' '.join(call.argv)}: {m}" for m in msgs[:3]]
        rec["cases"] = cases
        for res in rec["calls"]:
            del res["stdout"]

    def add(self, rec: dict, traced: bool) -> None:
        self.check(rec)
        (self.traced if traced else self.passes).append(rec)


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> Run:
    calls = build_pass(workload, seed, root)
    argvs = [c.argv for c in calls]
    run = Run(workload, calls)
    deadline = time.monotonic() + DEADLINE_S
    spawn(root, [], False, deadline)  # warm-up: byte-compile, fill the page cache
    start = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        run.setup.append(spawn(root, [], False, deadline)["setup_s"])
    if trace:  # the untraced baseline of the tracing overhead
        run.add(spawn(root, argvs, False, deadline), False)
    durations = []
    while True:
        t0 = time.monotonic()
        rec = spawn(root, argvs, trace, deadline)
        run.add(rec, trace)
        if not trace:
            run.setup.append(rec["setup_s"])
        durations.append(time.monotonic() - t0)
        done = len(run.traced if trace else run.passes)
        spent = time.monotonic() - start
        if done >= (1 if trace else MIN_PASSES) and (
                spent + statistics.median(durations) > seconds):
            return run


# -- metrics ---------------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    """name -> (value, unit, samples)."""
    p = run.passes
    med = statistics.median
    m = {
        "setup_s": (med(run.setup), "s", len(run.setup)),
        "run_s": (min(r["run_s"] for r in p), "s", len(p)),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in p), "MB", len(p)),
    }
    groups = {}
    for rec in p:
        for call, res in zip(run.calls, rec["calls"]):
            groups.setdefault(call.group, []).append(res["s"])
    if run.workload == "solve-gen":
        solve = [x * 1000 for x in groups.get("solve", [])]
        oracle = [x * 1000 for x in groups.get("oracle", [])]
        m["solve_p50_ms"] = (percentile(solve, 0.5), "ms", len(solve))
        m["solve_p90_ms"] = (percentile(solve, 0.9), "ms", len(solve))
        m["oracle_p50_ms"] = (percentile(oracle, 0.5), "ms", len(oracle))
        m["solves_per_s"] = (med(len(run.calls) / r["run_s"] for r in p),
                             "calls/s", len(p))
    else:
        law_s = [sum(res["s"] for c, res in zip(run.calls, r["calls"])
                     if c.group.startswith("suite_s.")) for r in p]
        m["law_cases_per_s"] = (med(r["cases"] / s for r, s in zip(p, law_s)),
                                "cases/s", len(p))
        for g, xs in groups.items():
            m[g] = (med(xs), "s", len(xs))
    m["fail_share"] = (run.failed / max(run.attempted, 1), "ratio", run.attempted)
    return m


def per_layer(run: Run) -> tuple:
    """(name -> (value, unit), absent names)."""
    t = run.traced
    med = statistics.median
    first = t[0]["trace"]
    installed = set(first["installed"])
    names = tracer.traced_names()
    m = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in names:
        calls = first["totals"].get(name, {}).get("calls", 0)
        self_s = med(r["trace"]["totals"].get(name, {}).get("self_s", 0.0) for r in t)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        layer_self[name.split(".")[0]] += self_s
    traced_s = med(r["run_s"] for r in t)
    for layer, s in layer_self.items():
        m[f"{layer}.self_share"] = (s / traced_s, "ratio")
    m["finset.FinFun.of.cells"] = (first["counters"].get("finset.FinFun.of.cells", 0),
                                   "count")
    hc = m["arrow.hom_cached.calls"][0]
    m["arrow.hom_cached.hit_ratio"] = (
        1 - m["arrow.hom.calls"][0] / hc if hc else 0.0, "ratio")
    m["laws.cases"] = (t[0]["cases"], "count")
    games = sum(1 for c in run.calls if c.group in ("solve", "oracle"))
    m["gamefile.build_game.per_call"] = (
        m["gamefile.build_game.calls"][0] / games if games else 0.0, "builds/call")
    m["trace.overhead_s"] = (traced_s - med(r["run_s"] for r in run.passes), "s")
    unstable = [n for n in names if any(
        r["trace"]["totals"].get(n, {}).get("calls", 0) != m[f"{n}.calls"][0]
        for r in t)]
    if unstable:
        print(f"warning: call counts differ between traced passes: {unstable}")
    return m, sorted(set(names) - installed)


# -- output ----------------------------------------------------------------------

def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def report(run: Run, trace: bool, seed: int, root: str, wanted: list) -> dict:
    """Print the metrics, return the result object for the mode's names."""
    print(f"workload {run.workload}  seed {seed}  passes {len(run.passes)}"
          f"  traced passes {len(run.traced)}"
          "  (closed loop, one client, one child process at a time)")
    e2e = end_to_end(run)
    for name, (v, unit, n) in e2e.items():
        print(f"  {name:<28} {v:>14.6g} {unit:<8} n={n}")
    values = {k: (v, u) for k, (v, u, _) in e2e.items()}
    absent = []
    if trace:
        layer, absent = per_layer(run)
        for name, (v, unit) in layer.items():
            print(f"  {name:<40} {v:>14.6g} {unit}")
        values.update(layer)
    diag = {
        "machine": platform.platform(), "processor": platform.machine(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(root),
        "calibration_s": [r["calibration_s"] for r in run.passes + run.traced],
        "absent": absent,
    }
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    for msg in run.messages[:20]:
        print(f"  mismatch: {msg}", file=sys.stderr)
    details = os.path.join(root, WORKDIR, f"{run.workload}-seed{seed}-trace{int(trace)}.json")
    with open(details, "w") as f:
        json.dump({"diagnostics": diag, "passes": run.passes, "traced": run.traced,
                   "setup_s": run.setup}, f)
    missing = [n for n in wanted if n not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json were not produced: {missing}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "openarrows", "cli.py")):
        print("error: run from the repository root; src/openarrows is missing",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
        results = {}
        for w in (WORKLOADS if args.workload == "all" else (args.workload,)):
            run = measure(w, args.seed, args.seconds, bool(args.trace), root)
            results[w] = report(run, bool(args.trace), args.seed, root, wanted)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": v for w, r in results.items()
                        for n, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
