"""Metamorphic gates on the exact value where no oracle reaches.

Three properties of the hybrid number h need no second solver:

* swap symmetry, h(F, F2) = h(F2, F): the search branches on the first
  forest's cherries, so the swapped run explores a different tree;
* invariance under a permutation of the labels, which changes the step
  order and so the order the search branches in;
* parent-child consistency for every legal move of a state S with cost
  c: h(S) - c <= h(child), because the move prefixes any sequence of the
  child, and h(child) <= h(S), because a network displaying S displays S
  with one more edge cut, and a drop keeps the value.

They are a cheap gate, not a judge: a search that is wrong in a
consistent way passes them.  Each value is a fresh value-only solve.
"""

import pytest

from cherrypick.generate import random_forest, seeded_rng
from cherrypick.reductions import apply_action, legal_moves
from cherrypick.search import hybrid_number, min_weight_cps
from cherrypick.trees import Forest, PhyloTree

from util import near_pair, replay_states


def relabelled(F, mapping):
    return Forest(
        [PhyloTree(t.adj, {v: mapping[lab] for v, lab in t.labels.items()}) for t in F.components]
    )


def check_gates(F, F2, rng, states, moves):
    """Swap symmetry and permutation invariance of the pair's value, and
    parent-child consistency for up to `moves` sampled legal moves at
    each of its first `states` witness states."""
    result = min_weight_cps(F, F2)
    value = result.min_weight
    assert hybrid_number(F2, F) == value
    labels = sorted(F.ground_set)
    mapping = dict(zip(labels, rng.sample(labels, len(labels))))
    assert hybrid_number(relabelled(F, mapping), relabelled(F2, mapping)) == value
    need = value
    replay, _ = replay_states(F, F2, result.witness)
    checked = 0
    for state, step in list(zip(replay, result.witness.steps))[:states]:
        assert hybrid_number(*state) == need
        legal = legal_moves(*state)
        for move, action in rng.sample(legal, min(moves, len(legal))):
            child = hybrid_number(*apply_action(*state, action)[:2])
            assert need - move.cost <= child <= need, (state, move, child, need)
            checked += 1
        need -= step.cost
    return checked


def test_metamorphic_gates_on_seeded_forest_pairs_and_a_near_pair():
    checked = 0
    labels = [str(i) for i in range(1, 9)]
    for k in range(20):
        rng = seeded_rng(8000 + k)
        F, F2 = random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)
        checked += check_gates(F, F2, rng, states=4, moves=6)
    checked += check_gates(*near_pair(30, 5, 0), seeded_rng(30), states=4, moves=4)
    assert checked > 300


@pytest.mark.slow
@pytest.mark.parametrize("n", [50, 80])
def test_metamorphic_gates_on_large_near_pairs(n):
    for s in (0, 1):
        check_gates(*near_pair(n, 5, s), seeded_rng(n + s), states=4, moves=10)
