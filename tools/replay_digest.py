"""Print one sha256 over the trace replay's verdicts on fixed seeded inputs.

    python3 tools/replay_digest.py

The traces are the greedy traces of the 360 seeded forest pairs (n =
4..9, 60 per n, pair k from ``seeded_rng(1000n + k)`` with 1 + k % 3
components in each forest, as in ``tools/search_digest.py``) and 12 walk
traces on forest pairs with 60-120 leaves (pair i from
``seeded_rng(28000 + i)``: the leaf count, then 1-3 components, then the
two forests; at each state the walk takes the first free step if there
is one, else a random legal step).  Each trace j also gets three
corruptions drawn from ``seeded_rng(29000 + j)``: one step dropped, two
adjacent steps swapped, and one step's partner or cut changed.

For every trace the digest covers the weight ``validate_trace`` returns
or the error it raises (a ``ReplayError`` names the step index and the
reason), and for every valid trace ``serialize_network(build_network(...))``.
Two commits that print the same digest give the same verdicts and
networks on these inputs.

The script imports the package from the ``src`` directory beside it, so
it measures the checkout it lives in.  Its inputs come from
``cherrypick.generate`` and the standard library alone.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cherrypick as cp  # noqa: E402
from cherrypick.errors import InvalidTrace  # noqa: E402
from cherrypick.generate import random_forest, seeded_rng  # noqa: E402
from cherrypick.reductions import RULE_PARAMS  # noqa: E402


def forest_pairs():
    """The 360 seeded forest pairs, n = 4..9."""
    for n in range(4, 10):
        labels = [str(i) for i in range(1, n + 1)]
        for k in range(60):
            rng = seeded_rng(1000 * n + k)
            yield random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)


def walk_trace(F, F2, rng):
    """The first free step while there is one, else a random legal step."""
    steps = []
    while len(F.ground_set) > 1:
        options = cp.applicable_steps(F, F2)
        free = [s for s in options if s.cost == 0]
        step = free[0] if free else options[rng.randrange(len(options))]
        F, F2 = cp.apply_step(F, F2, step)
        steps.append(step)
    return cp.ReductionTrace(tuple(steps))


def walk_cases():
    """12 walk traces on forest pairs with 60-120 leaves."""
    for i in range(12):
        rng = seeded_rng(28000 + i)
        n, k = rng.randint(60, 120), rng.randint(1, 3)
        labels = [str(j) for j in range(1, n + 1)]
        F, F2 = random_forest(labels, k, rng), random_forest(labels, k, rng)
        yield F, F2, walk_trace(F, F2, rng)


def cases():
    """(F, F2, trace) for the greedy traces, then the walk traces."""
    for F, F2 in forest_pairs():
        yield F, F2, cp.greedy_cps(F, F2)
    yield from walk_cases()


def corruptions(trace, labels, rng):
    """Three corrupted copies of a trace: one step dropped, two adjacent
    steps swapped, one step's partner or cut changed.  A trace too short
    for a corruption yields it unchanged."""
    steps = list(trace.steps)
    out = []
    if steps:
        i = rng.randrange(len(steps))
        out.append(steps[:i] + steps[i + 1:])
    else:
        out.append(steps)
    if len(steps) > 1:
        i = rng.randrange(len(steps) - 1)
        out.append(steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2:])
    else:
        out.append(steps)
    changed = list(steps)
    options = [
        (i, field)
        for i, s in enumerate(steps)
        for field in ("y", "cut")
        if getattr(s, field) and (field == "y" or len(RULE_PARAMS[s.rule].cuts) > 1)
    ]
    if options:
        i, field = options[rng.randrange(len(options))]
        step = steps[i]
        if field == "y":
            pool = [lab for lab in labels if lab not in (step.label, step.y)]
        else:
            pool = [c for c in RULE_PARAMS[step.rule].cuts if c != step.cut]
        changed[i] = step._replace(**{field: pool[rng.randrange(len(pool))]})
    out.append(changed)
    return [cp.ReductionTrace(tuple(s)) for s in out]


def record(F, F2, trace):
    """The verdict on one trace, and the network of a valid one."""
    try:
        weight = cp.validate_trace(F, F2, trace)
    except InvalidTrace as exc:
        return "%s %s\n" % (type(exc).__name__, exc)
    return "weight %d\n%s\n" % (weight, cp.serialize_network(cp.build_network(F, F2, trace)))


def digest(items):
    """(sha256, traces judged, valid traces) over (F, F2, trace) items,
    each with its three corruptions."""
    h = hashlib.sha256()
    judged = valid = 0
    for j, (F, F2, trace) in enumerate(items):
        labels = sorted(F.ground_set)
        for t in [trace] + corruptions(trace, labels, seeded_rng(29000 + j)):
            text = record(F, F2, t)
            judged += 1
            valid += text.startswith("weight")
            h.update(text.encode())
    return h.hexdigest(), judged, valid


def main():
    sha, judged, valid = digest(cases())
    print("replay digest %s over %d traces, %d valid" % (sha, judged, valid))


if __name__ == "__main__":
    main()
