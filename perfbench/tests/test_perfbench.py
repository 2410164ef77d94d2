"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
FIXTURES = os.path.join(ROOT, "src", "openarrows", "fixtures")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _fixture(name: str) -> tuple:
    with open(os.path.join(FIXTURES, name)) as f:
        return reference.parse_two_player(f.read())


def test_same_seed_gives_identical_texts_and_another_seed_differs():
    a = [g.text for g in gen.generate(7)]
    assert a == [g.text for g in gen.generate(7)]
    assert a != [g.text for g in gen.generate(8)]


def test_generated_games_share_no_carriers_and_cover_the_sizes():
    games = gen.generate(3)
    moves = [m for g in games for side in g.moves for m in side]
    assert len(moves) == len(set(moves))
    plain = sorted(tuple(map(len, g.moves)) for g in games if not g.prob)
    assert plain == sorted(gen.SIZES)


def test_generated_text_reads_back_as_the_generated_game():
    for g in gen.generate(5):
        moves, payoff, probes, prob = reference.parse_two_player(g.text)
        assert (moves, payoff, probes, prob) == (g.moves, g.payoff, g.probes, g.prob)
        for wr, wc in probes.values():
            assert sum(wr.values()) == sum(wc.values()) == 1
            assert all(w.denominator <= gen.MAX_DENOMINATOR
                       for w in list(wr.values()) + list(wc.values()))


def test_reference_reproduces_the_shipped_fixtures():
    moves, payoff, _, _ = _fixture("prisoners_dilemma.game")
    assert reference.pure_nash(moves, payoff) == [("D", "D")]
    moves, payoff, _, _ = _fixture("matching_pennies.game")
    assert reference.pure_nash(moves, payoff) == []
    moves, payoff, probes, prob = _fixture("matching_pennies_prob.game")
    assert prob
    passing = [n for n, ok in reference.expected_probes(moves, payoff, probes) if ok]
    assert passing == ["mixed"]


def _cli(argv: list) -> tuple:
    from openarrows.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _record(calls: list) -> dict:
    res = []
    for c in calls:
        rc, out = _cli(c.argv)
        res.append({"argv": c.argv, "rc": rc, "s": 0.001, "stdout": out})
    return {"run_s": 0.01, "setup_s": 0.1, "peak_rss_mb": 20.0, "calls": res}


def test_cli_agrees_with_the_reference_and_a_planted_error_fails(tmp_path, monkeypatch):
    calls = run.solve_calls(2, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    honest = run.Run("solve-gen", calls)
    honest.add(_record(calls), False)
    honest.setup.append(0.1)
    assert honest.attempted == len(calls) and honest.failed == 0, honest.messages
    assert run.end_to_end(honest)["fail_share"][0] == 0

    # plant one wrong expectation: flip the first verdict of a Boolean solve
    moves, payoff = next((g.moves, g.payoff) for g in gen.generate(2) if not g.prob)
    want = reference.expected_solve(moves, payoff, "bool")
    want[0] = (want[0][0], not want[0][1])
    planted = [run.Call(calls[0].argv, "solve", run._solve_check(want, "strategy"))]
    broken = run.Run("solve-gen", planted)
    broken.add(_record(planted), False)
    broken.setup.append(0.1)
    assert broken.failed == 1
    assert run.end_to_end(broken)["fail_share"][0] == 1.0


def test_law_checks_count_drift_and_wrong_exit_codes():
    expected = {"optic@2": [["arrow.unit", "optic(set)", "pass", 10],
                            ["arrow.assoc", "optic(set)", "pass", 20]]}
    run.LAW_PASSES["test"] = [("optic", 2)]
    try:
        (call,) = run.law_calls("test", expected)
    finally:
        del run.LAW_PASSES["test"]
    rows = [{"law": "arrow.unit", "instance": "optic(set)", "status": "pass",
             "checked": 10},
            {"law": "arrow.assoc", "instance": "optic(set)", "status": "pass",
             "checked": 21}]
    out = "\n".join(json.dumps(r) for r in rows) + "\n"
    assert call.check(0, out)[:2] == (2, 1)  # a drifted case count
    assert call.check(1, out)[:2] == (2, 2)  # and a wrong exit code
    rows[1]["checked"] = 20
    out = "\n".join(json.dumps(r) for r in rows) + "\n"
    assert call.check(0, out)[:2] == (2, 0)
    assert call.check(0, out)[3] == 30


def test_mutant_check_counts_a_mutant_that_is_not_isolated():
    want = [["arrow.assoc", ["arrow.assoc"], True],
            ["arrow.unit", ["arrow.unit"], True]]
    check = run._mutant_check(want)
    rows = [{"target": t, "failed": f, "isolated": i} for t, f, i in want]
    out = "\n".join(json.dumps(r) for r in rows) + "\n"
    assert check(1, out)[:2] == (2, 0)
    assert check(0, out)[:2] == (2, 1)  # the battery must exit 1
    rows[1].update(failed=["arrow.unit", "arrow.assoc"], isolated=False)
    out = "\n".join(json.dumps(r) for r in rows) + "\n"
    assert check(1, out)[:2] == (2, 1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf(d):
        clock.now += d

    leaf = t.wrap("leaf", leaf)

    def mid():
        clock.now += 1
        leaf(2)
        leaf(3)

    mid = t.wrap("mid", mid)

    def top():
        clock.now += 4
        mid()
        leaf(5)

    t.wrap("top", top)()
    totals = t.totals()
    assert totals["top"] == {"calls": 1, "self_s": 4}
    assert totals["mid"] == {"calls": 1, "self_s": 1}
    assert totals["leaf"] == {"calls": 3, "self_s": 10}
    edges = {(e["name"], e["parent"]): e for e in t.edges()}
    assert edges["leaf", "mid"]["calls"] == 2 and edges["leaf", "top"]["calls"] == 1
    assert edges["top", tracer.ROOT]["total_s"] == 15
    t.reset()
    assert t.totals() == {}
    leaf(1)
    assert t.totals() == {"leaf": {"calls": 1, "self_s": 1}}


def test_tracer_reports_removed_names_as_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakearrows"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from . import finset\n")
    (pkg / "finset.py").write_text(
        "class FinSet:\n"
        "    def __init__(self, elements):\n"
        "        self.elements = tuple(elements)\n"
        "def fun_compose(f, g):\n"
        "    return FinSet(f + g)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(tracer, "PACKAGE", "fakearrows")
    t = tracer.Tracer()
    installed = tracer.install(t)
    try:
        import fakearrows.finset as fs
    finally:
        sys.meta_path[:] = [f for f in sys.meta_path
                            if not isinstance(f, tracer._AfterImport)]
        for name in ("fakearrows", "fakearrows.finset"):
            sys.modules.pop(name, None)
    assert installed == {"finset.FinSet", "finset.fun_compose"}
    fs.fun_compose((1,), (2,))
    totals = t.totals()
    assert totals["finset.fun_compose"]["calls"] == 1
    assert totals["finset.FinSet"]["calls"] == 1
    assert "finset.product" in set(tracer.traced_names()) - installed


def test_fields_of_instances_are_wrapped_once():
    t = tracer.Tracer()

    class Inst:
        def __init__(self, comp):
            self.comp = comp

    tracer._wrap_fields(t, Inst, {"comp": "arrow.comp"})
    fn = lambda a, b: a + b  # noqa: E731
    a, b = Inst(fn), Inst(fn)
    assert a.comp is b.comp  # a shared function stays shared
    assert a.comp(1, 2) == 3
    assert t.totals()["arrow.comp"]["calls"] == 1


def test_rotation_moves_a_child_between_cpus_and_ends_with_it():
    cpus = os.sched_getaffinity(0)
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.5)"])
    stop = threading.Event()
    rotation = threading.Thread(target=run.rotate_cpus, args=(proc.pid, stop))
    rotation.start()
    seen = set()
    while proc.poll() is None:
        with contextlib.suppress(OSError):
            now = os.sched_getaffinity(proc.pid)
            if len(now) == 1:  # pinned by the rotation, not inherited
                seen |= now
        time.sleep(run.SWITCH_S / 2)
    proc.wait()
    rotation.join(timeout=5)  # the child is gone, so it must stop unasked
    stop.set()
    rotation.join()
    assert not rotation.is_alive()
    if len(cpus) > 1:
        assert seen == cpus
