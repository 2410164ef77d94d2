"""One repetition of a workload, run in a fresh interpreter.

Reads a job from standard input: the monotonic time at which the parent
spawned this process, the CLI argument lists of one pass, and whether to
trace.  Imports `openarrows.cli`, drives the package only through
`cli.main(argv)`, timing each call from outside, and writes one JSON
object with the outputs, timings, peak memory and a calibration timing to
standard output.  It must be started with `src/` on `PYTHONPATH`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

CALIBRATION_N = 300_000


def calibrate() -> float:
    """A fixed pure-Python loop, timed: diagnostic of machine speed only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_calls(main, calls: list) -> list:
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse exits on bad arguments
                rc = exc.code
            elapsed = time.perf_counter() - t0
        results.append({"argv": argv, "rc": rc, "s": elapsed,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def main() -> None:
    job = json.loads(sys.stdin.read())
    tracer = installed = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    cli = importlib.import_module("openarrows.cli")
    setup_s = time.monotonic() - job["spawned"]
    if tracer is not None:
        tracer.reset()  # count the pass only, not import-time construction
    t0 = time.perf_counter()
    calls = run_calls(cli.main, job["calls"])
    run_s = time.perf_counter() - t0
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": calibrate(),
    }
    if tracer is not None:
        record["trace"] = {
            "totals": tracer.totals(),
            "counters": dict(tracer.counters),
            "edges": tracer.edges(),
            "samples": tracer.samples,
            "installed": sorted(installed),
        }
    json.dump(record, sys.stdout)


if __name__ == "__main__":
    main()
