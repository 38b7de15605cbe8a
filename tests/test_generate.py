"""Seeded random generation."""

import hashlib

import pytest

from cherrypick.generate import random_forest, random_forest_pair, random_tree, seeded_rng
from cherrypick.newick import serialize_forest
from cherrypick.trees import Forest

from util import all_topologies


def test_random_tree_valid_and_deterministic():
    labels = [str(i) for i in range(1, 9)]
    a = random_tree(labels, seeded_rng(7))
    b = random_tree(labels, seeded_rng(7))
    assert a.canonical == b.canonical
    assert a.leaf_labels == frozenset(labels)


def test_random_tree_covers_every_topology():
    # n = 4 has exactly three topologies; sequential insertion should hit
    # all of them quickly
    seen = set()
    rng = seeded_rng(11)
    for _ in range(60):
        seen.add(random_tree(["1", "2", "3", "4"], rng).canonical)
    assert seen == {Forest([t]).canonical for t in all_topologies("1234")}


def test_random_forest_component_count():
    rng = seeded_rng(13)
    for k in (1, 2, 3):
        f = random_forest([str(i) for i in range(1, 8)], k, rng)
        assert len(f.components) == k
        assert f.ground_set == {str(i) for i in range(1, 8)}


def test_random_forest_too_many_components():
    with pytest.raises(ValueError):
        random_forest(["1", "2"], 3, seeded_rng(1))


def test_random_pair_deterministic_documents():
    a1, a2 = random_forest_pair([str(i) for i in range(1, 7)], 2, seeded_rng(99))
    b1, b2 = random_forest_pair([str(i) for i in range(1, 7)], 2, seeded_rng(99))
    assert serialize_forest(a1) == serialize_forest(b1)
    assert serialize_forest(a2) == serialize_forest(b2)


def test_single_label():
    f = random_forest(["z"], 1, seeded_rng(0))
    assert f.ground_set == {"z"} and len(f.components) == 1


def test_seeded_documents_match_the_pinned_digest():
    # seeded documents must stay byte-equal across versions; the digest
    # covers seeds 0..9 and 1..4 components on the labels "1".."14"
    # (what `cherrypick gen --leaves 14` draws from)
    labels = [str(i) for i in range(1, 15)]
    digest = hashlib.sha256()
    for seed in range(10):
        for k in range(1, 5):
            digest.update(serialize_forest(random_forest(labels, k, seeded_rng(seed))).encode())
    assert digest.hexdigest() == "8665985f6209687bc48aadc0b350dddf707dd302a9c8924b03e1c29796ea4f24"
