"""The replay verdict digest in tools/replay_digest.py."""

import importlib.util
from pathlib import Path

from cherrypick.generate import seeded_rng
from cherrypick.reductions import validate_trace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_digest.py"
spec = importlib.util.spec_from_file_location("replay_digest", TOOL)
replay_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_digest)


def test_inputs_are_the_seeded_forest_pairs_and_valid_walk_traces_on_60_to_120_leaves():
    pairs = list(replay_digest.forest_pairs())
    assert len(pairs) == 360
    assert all(F.ground_set == F2.ground_set for F, F2 in pairs)
    walks = list(replay_digest.walk_cases())
    assert len(walks) == 12
    for F, F2, trace in walks:
        assert F.ground_set == F2.ground_set
        assert 60 <= len(F.ground_set) <= 120
        assert validate_trace(F, F2, trace) == trace.weight


def test_each_trace_gets_a_dropped_step_a_swapped_pair_and_a_changed_partner_or_cut():
    F, F2, trace = next(replay_digest.cases())
    labels = sorted(F.ground_set)
    steps = list(trace.steps)
    for seed in range(20):
        dropped, swapped, changed = (
            list(t.steps) for t in replay_digest.corruptions(trace, labels, seeded_rng(seed))
        )
        assert any(dropped == steps[:i] + steps[i + 1:] for i in range(len(steps)))
        diff = [i for i, (a, b) in enumerate(zip(swapped, steps)) if a != b]
        assert len(swapped) == len(steps) and len(diff) in (0, 2)
        if diff:
            i, j = diff
            assert j == i + 1 and (swapped[i], swapped[j]) == (steps[j], steps[i])
        (i,) = [i for i, (a, b) in enumerate(zip(changed, steps)) if a != b]
        fields = [f for f in changed[i]._fields if getattr(changed[i], f) != getattr(steps[i], f)]
        assert len(changed) == len(steps) and fields in (["y"], ["cut"])


def test_digest_is_pinned():
    # same verdicts and same networks as when it was last pinned
    assert replay_digest.digest(replay_digest.cases()) == (
        "fe6e9f213b15d1f611225b37881fe6e7cae6a706b86e1242efb080a454d4a654",
        1488,
        560,
    )
