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
CLI call pays; a suite's run excludes its imports.  The ``import`` row
also reads the size of glibc's main malloc arena after that import
(``mallinfo2().arena``, read through ``ctypes`` once the peak RSS is
taken; ``n/a`` off glibc): a shift in where compiling the modules leaves
the heap moves it, and peak RSS with it, without any change in live
memory.  One row per (row, tree): the median and range of the seconds,
the median peak RSS and the median arena in MB.  This process imports
nothing from the trees.
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
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
arena = "-"
if suite == "import":
    import ctypes

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(n, ctypes.c_size_t) for n in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
            "fsmblks", "uordblks", "fordblks", "keepcost")]

    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        arena = "n/a"
    else:
        mallinfo2.argtypes, mallinfo2.restype = [], Mallinfo2
        arena = mallinfo2().arena / 2**20
print(elapsed, rss, arena)
"""


def run_once(src: str, suite: str, size: int) -> tuple:
    """In-process seconds, peak RSS in MB and the main arena in MB (``-``
    outside the ``import`` row, ``n/a`` off glibc) of one run in a fresh
    interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, src, suite, str(size)],
        check=True, capture_output=True, text=True,
    ).stdout
    seconds, rss, arena = out.split()
    return float(seconds), float(rss), arena


def measure(trees: list, size: int = 2, repeat: int = 5) -> list:
    """Rows ``(suite, tree, median s, min s, max s, median peak RSS MB,
    median arena MB or a placeholder)``."""
    rows = []
    for suite in SUITES:
        runs: dict = {tree: [] for tree in trees}
        for i in range(repeat):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                runs[tree].append(run_once(tree, suite, size))
        for tree in trees:
            seconds = [s for s, _, _ in runs[tree]]
            rss = statistics.median(r for _, r, _ in runs[tree])
            arenas = [a for _, _, a in runs[tree]]
            try:
                arena = f"{statistics.median(map(float, arenas)):.2f}"
            except ValueError:  # "-" or "n/a"
                arena = arenas[0]
            rows.append((suite, tree, statistics.median(seconds), min(seconds),
                         max(seconds), rss, arena))
    return rows


def render(rows: list) -> str:
    lines = ["suite\ttree\tmedian_s\trange_s\tpeak_rss_mb\tarena_mb"]
    for suite, tree, med, lo, hi, rss, arena in rows:
        lines.append(f"{suite}\t{tree}\t{med:.3f}\t{lo:.3f}-{hi:.3f}\t{rss:.2f}"
                     f"\t{arena}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="SRC")
    parser.add_argument("--size", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    sys.stdout.write(render(measure(args.trees, args.size, args.repeat)))
