"""Print how the two replays' memory and time grow with the tree size.

    python3 tools/replay_scale.py

For n = 200, 400 and 800 the input is one seeded tree pair on labels
0..n-1 (``random_forest_pair`` with one component, from
``seeded_rng(n)``; n = 400 is the pair of the tests' memory bounds) and
its greedy trace.  Each line gives the trace's step count and, for
``validate_trace`` and ``build_network``, the tracemalloc peak of one
call and the least process time of three untraced calls.  A replay that
holds one state at a time peaks at about one state plus its records; a
replay that keeps every state grows with n times the step count.

The script imports the package from the ``src`` directory beside it, so
it measures the checkout it lives in.  It uses the standard library and
``cherrypick`` alone, and its output is a report, with no pass or fail.
"""

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cherrypick import build_network, validate_trace  # noqa: E402
from cherrypick.generate import random_forest_pair, seeded_rng  # noqa: E402
from cherrypick.search import greedy_cps  # noqa: E402

SIZES = (200, 400, 800)
RUNS = 3


def measure(fn, *args):
    """(tracemalloc peak in bytes of one call, least process time of
    `RUNS` untraced calls in seconds)."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = float("inf")
    for _ in range(RUNS):
        start = time.process_time()
        fn(*args)
        best = min(best, time.process_time() - start)
    return peak, best


def main():
    for n in SIZES:
        F, F2 = random_forest_pair([str(i) for i in range(n)], 1, seeded_rng(n))
        trace = greedy_cps(F, F2)
        cells = ["n %d" % n, "steps %d" % len(trace)]
        for fn in (validate_trace, build_network):
            peak, took = measure(fn, F, F2, trace)
            cells.append("%s peak %.1f MB %.3f s" % (fn.__name__, peak / 1e6, took))
        print(", ".join(cells))


if __name__ == "__main__":
    main()
