"""Print one sha256 over the exact search's outputs on fixed seeded inputs.

    python3 tools/search_digest.py

The inputs are the 360 seeded forest pairs (n = 4..9, 60 per n, pair k
from ``seeded_rng(1000n + k)`` with 1 + k % 3 components in each forest)
and 30 one-transposition tree pairs (n = 10..14, six per n: a random tree
from ``seeded_rng(27000 + 100n + s)`` against itself with two of its
labels swapped).  For each pair the digest covers the status, lower and
upper bound, serialized witness and terminal of ``min_weight_cps``, and
the serialized greedy trace and terminal of ``greedy_cps``.  Two commits
that print the same digest return the same results on these inputs.

The script imports the package from the ``src`` directory beside it, so
it measures the checkout it lives in.  Its inputs come from
``cherrypick.generate`` and the standard library alone.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cherrypick as cp  # noqa: E402
from cherrypick.generate import random_forest, random_tree, seeded_rng  # noqa: E402


def forest_pairs():
    """The 360 seeded forest pairs, n = 4..9."""
    for n in range(4, 10):
        labels = [str(i) for i in range(1, n + 1)]
        for k in range(60):
            rng = seeded_rng(1000 * n + k)
            yield random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)


def transposition_pairs():
    """A random tree against itself with two labels swapped, n = 10..14."""
    for n in range(10, 15):
        labels = [str(i) for i in range(1, n + 1)]
        for s in range(6):
            rng = seeded_rng(27000 + 100 * n + s)
            tree = random_tree(labels, rng)
            a, b = rng.sample(labels, 2)
            swap = {a: b, b: a}
            swapped = cp.PhyloTree(tree.adj, {v: swap.get(lab, lab) for v, lab in tree.labels.items()})
            yield cp.Forest([tree]), cp.Forest([swapped])


def record(F, F2):
    """The outputs of one pair, as one string."""
    result = cp.min_weight_cps(F, F2)
    greedy = cp.greedy_cps(F, F2)
    return "%s %d %d\n%s%s\n%s%s\n" % (
        result.status, result.lower, result.upper,
        cp.serialize_trace(result.witness), result.witness.terminal,
        cp.serialize_trace(greedy), greedy.terminal,
    )


def digest(pairs):
    h = hashlib.sha256()
    for F, F2 in pairs:
        h.update(record(F, F2).encode())
    return h.hexdigest()


def main():
    pairs = list(forest_pairs()) + list(transposition_pairs())
    print("search digest %s over %d pairs" % (digest(pairs), len(pairs)))


if __name__ == "__main__":
    main()
