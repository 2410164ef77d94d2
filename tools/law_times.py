"""Time importing the CLI, the law suites and the mutant battery of one or
more source trees.

Usage::

    python tools/law_times.py SRC [SRC ...] [--size N] [--repeat N]

For each SRC (a directory holding the ``openarrows`` package), the
``import`` row, each of the five suites at ``--size`` (default 2) and the
mutant battery run in ``--repeat`` (default 5) fresh interpreters; which
tree goes first alternates from one repetition to the next.  A child
reports the seconds its run took in process and its peak resident set.
The ``import`` row times ``import openarrows.cli`` alone, the set-up every
CLI call pays; a suite's run excludes its imports.  One row per (row,
tree): the median and range of the seconds and the median peak RSS in
MB.  This process imports nothing from the trees.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys

SUITES = ("import", "arrow", "optic", "bimodule", "context", "graded", "mutants")

_CHILD = """
import resource, sys, time
src, suite, size = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)
if suite == "import":
    start = time.perf_counter()
    import openarrows.cli
else:
    from openarrows import laws
    start = time.perf_counter()
    laws.run_mutants() if suite == "mutants" else laws.run_suite(suite, size)
elapsed = time.perf_counter() - start
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def run_once(src: str, suite: str, size: int) -> tuple[float, float]:
    """In-process seconds and peak RSS in MB of one run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, src, suite, str(size)],
        check=True, capture_output=True, text=True,
    ).stdout
    seconds, rss = out.split()
    return float(seconds), float(rss)


def measure(trees: list, size: int = 2, repeat: int = 5) -> list:
    """Rows ``(suite, tree, median s, min s, max s, median peak RSS MB)``."""
    rows = []
    for suite in SUITES:
        runs: dict = {tree: [] for tree in trees}
        for i in range(repeat):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                runs[tree].append(run_once(tree, suite, size))
        for tree in trees:
            seconds = [s for s, _ in runs[tree]]
            rss = statistics.median(r for _, r in runs[tree])
            rows.append((suite, tree, statistics.median(seconds), min(seconds),
                         max(seconds), rss))
    return rows


def render(rows: list) -> str:
    lines = ["suite\ttree\tmedian_s\trange_s\tpeak_rss_mb"]
    for suite, tree, med, lo, hi, rss in rows:
        lines.append(f"{suite}\t{tree}\t{med:.3f}\t{lo:.3f}-{hi:.3f}\t{rss:.2f}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="SRC")
    parser.add_argument("--size", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    sys.stdout.write(render(measure(args.trees, args.size, args.repeat)))
