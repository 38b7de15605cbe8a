"""Shared test helpers: an independent topology enumerator, a
label-respecting network isomorphism check, and two brute-force minimum
cherry picking sequences.

All are deliberately written from scratch (recursive insertion, plain
backtracking, exhaustive search) so they can serve as oracles for the
library's own code.
"""

import itertools

from cherrypick.reductions import (
    ReductionTrace,
    applicable_steps,
    apply_action,
    apply_step,
    legal_moves,
)
from cherrypick.trees import Forest, PhyloTree


def all_topologies(labels):
    """Every unrooted binary topology on the given labels, by inserting
    leaves one at a time into every edge; yields (2n-5)!! trees."""
    labels = sorted(labels)
    if not labels:
        return
    if len(labels) == 1:
        yield PhyloTree({0: frozenset()}, {0: labels[0]})
        return

    def grow(adj, node_labels, edges, next_id, remaining):
        if not remaining:
            yield PhyloTree({v: frozenset(ns) for v, ns in adj.items()}, dict(node_labels))
            return
        lab = remaining[0]
        for u, v in list(edges):
            mid, leaf = next_id, next_id + 1
            adj[u] = adj[u] - {v} | {mid}
            adj[v] = adj[v] - {u} | {mid}
            adj[mid] = {u, v, leaf}
            adj[leaf] = {mid}
            node_labels[leaf] = lab
            new_edges = [e for e in edges if e != (u, v)] + [(u, mid), (mid, v), (mid, leaf)]
            yield from grow(adj, node_labels, new_edges, next_id + 2, remaining[1:])
            del adj[mid], adj[leaf], node_labels[leaf]
            adj[u] = adj[u] - {mid} | {v}
            adj[v] = adj[v] - {mid} | {u}

    adj = {0: {1}, 1: {0}}
    node_labels = {0: labels[0], 1: labels[1]}
    yield from grow(adj, node_labels, [(0, 1)], 2, labels[2:])


def tree_forest(newick_text):
    from cherrypick.newick import parse_forest

    return parse_forest(newick_text)


def networks_isomorphic(n1, n2):
    """Label-respecting isomorphism of two pseudo-networks by
    backtracking; fine for desk-scale graphs."""
    if n1.num_vertices != n2.num_vertices or n1.num_edges != n2.num_edges:
        return False
    if n1.leaf_labels != n2.leaf_labels:
        return False
    mapping = {n1.vertex_of[lab]: n2.vertex_of[lab] for lab in n1.leaf_labels}
    if any(n1.degree(v) != n2.degree(mapping[v]) for v in mapping):
        return False
    free1 = sorted(v for v in n1.adj if v not in mapping)
    used2 = set(mapping.values())

    def consistent(v, w):
        # every already-mapped neighbour must match with multiplicity
        for u in set(n1.adj[v]):
            mu = mapping.get(u)
            if mu is not None and n1.multiplicity(v, u) != n2.multiplicity(w, mu):
                return False
        return True

    def assign(i):
        if i == len(free1):
            return True
        v = free1[i]
        for w in n2.adj:
            if w in used2 or w in n2.labels or n2.degree(w) != n1.degree(v):
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            used2.add(w)
            if assign(i + 1):
                return True
            del mapping[v]
            used2.discard(w)
        return False

    if not assign(0):
        return False
    # final edge-multiset check
    for u, v in set(n1.edge_list):
        if n1.multiplicity(u, v) != n2.multiplicity(mapping[u], mapping[v]):
            return False
    return True


def forest_pairs(labels):
    """All ordered pairs of single-tree forests over a label set."""
    tops = [Forest([t]) for t in all_topologies(labels)]
    return list(itertools.product(tops, tops))


def min_trace_bruteforce(F, F2):
    """The lexicographically least minimum-weight cherry picking sequence
    (steps compared by their position in ``applicable_steps``), by plain
    depth-first search with no memo, no forcing of free steps and no
    lower bound.

    The only limit is a weight budget, raised one at a time from 0: the
    first complete sequence found within budget w, trying steps in
    enumeration order, is the least one of weight at most w.  Without it
    the search is out of reach even at five leaves, because free steps
    can be taken in every order.
    """

    def first_within(F, F2, budget):
        if len(F.ground_set) == 1:
            return ()
        for step in applicable_steps(F, F2):
            if step.cost > budget:
                continue
            rest = first_within(*apply_step(F, F2, step), budget - step.cost)
            if rest is not None:
                return (step,) + rest
        return None

    budget = 0
    while True:
        steps = first_within(F, F2, budget)
        if steps is not None:
            return ReductionTrace(steps)
        budget += 1


def min_trace_full_branching(F, F2):
    """The lexicographically least minimum-weight cherry picking sequence,
    by memoized iterative deepening that branches on every legal move at
    every state: no free step is forced and no move is left out.  The
    reference for the exact search, which branches on one cherry."""
    memo = {}

    def within(F, F2, budget):
        if len(F.ground_set) == 1:
            return True
        key = (F.canonical, F2.canonical, budget)
        if key not in memo:
            memo[key] = any(
                step.cost <= budget and within(*apply_action(F, F2, action)[:2], budget - step.cost)
                for step, action in legal_moves(F, F2)
            )
        return memo[key]

    weight = 0
    while not within(F, F2, weight):
        weight += 1
    steps = []
    while len(F.ground_set) > 1:
        for step, action in legal_moves(F, F2):
            nF, nF2, _ = apply_action(F, F2, action)
            if step.cost <= weight and within(nF, nF2, weight - step.cost):
                steps.append(step)
                F, F2, weight = nF, nF2, weight - step.cost
                break
    return ReductionTrace(tuple(steps))
