"""Seeded random trees and forests for tests and the command line.

Trees are grown by sequential leaf insertion into a uniformly random edge,
which makes every labeled topology equally likely; forests come from a
tree by cutting random edges.  All choices draw from a caller-supplied
``random.Random``, so equal seeds give byte-equal documents.
"""

import random

from .trees import Forest, PhyloTree, remove_edge_traced


def random_tree(labels, rng):
    """Uniform random unrooted binary topology on the given labels."""
    labels = sorted(labels)
    if not labels:
        raise ValueError("need at least one label")
    if len(labels) == 1:
        return PhyloTree({0: frozenset()}, {0: labels[0]})
    adj = {0: {1}, 1: {0}}
    node_labels = {0: labels[0], 1: labels[1]}
    next_id = 2
    edges = [(0, 1)]
    for lab in labels[2:]:
        u, v = edges[rng.randrange(len(edges))]
        mid, leaf = next_id, next_id + 1
        next_id += 2
        adj[u].discard(v)
        adj[v].discard(u)
        adj[mid] = {u, v, leaf}
        adj[u].add(mid)
        adj[v].add(mid)
        adj[leaf] = {mid}
        node_labels[leaf] = lab
        edges.remove((u, v))
        edges.extend([(u, mid), (mid, v), (mid, leaf)])
    return PhyloTree(adj, node_labels)


def random_forest(labels, components, rng):
    """A random forest with the requested component count, made by cutting
    random edges out of a random tree."""
    if components < 1:
        raise ValueError("need at least one component")
    if components > len(labels):
        raise ValueError("cannot split %d labels into %d components" % (len(labels), components))
    forest = Forest([random_tree(labels, rng)])
    while len(forest.components) < components:
        choices = [
            (idx, edge)
            for idx, tree in sorted(enumerate(forest.components), key=lambda c: c[1].canonical)
            for edge in tree.edges()
        ]
        idx, edge = choices[rng.randrange(len(choices))]
        forest, _ = remove_edge_traced(forest, idx, edge)
    return forest


def random_forest_pair(labels, components, rng):
    """Two independent random forests on the same labels."""
    return random_forest(labels, components, rng), random_forest(labels, components, rng)


def seeded_rng(seed):
    return random.Random(seed)
