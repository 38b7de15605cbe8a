"""Shared test helpers: an independent topology enumerator, a
label-respecting network isomorphism check, two brute-force minimum
cherry picking sequences, a witness walk that enumerates every step, the
display enumeration without pruning, seeded near tree pairs, every state
of a trace's replay and the environment of a child Python process.

All are deliberately written from scratch (recursive insertion, plain
backtracking, exhaustive search) or kept in their plain form, so they can
serve as oracles for the library's own code.
"""

import itertools
import os
from collections import deque
from pathlib import Path

import cherrypick
from cherrypick.reductions import (
    ReductionStep,
    ReductionTrace,
    applicable_steps,
    apply_action,
    apply_step,
    check_step,
    legal_moves,
)
from cherrypick.generate import random_tree, seeded_rng
from cherrypick.oracles import ComponentImage, EmbeddingImage, _attach_points, _reconnect
from cherrypick.trees import Forest, PhyloTree, _edge, restrict


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


def near_pair(n, k, s):
    """A random tree on labels 1..n against itself after k random TBR
    moves, as two one-component forests.  Each move cuts a random edge,
    restricts the tree to the two sides and reconnects them at random
    attach points; pair s of (n, k) draws from ``seeded_rng(9000 + 100n
    + 10k + s)``."""
    rng = seeded_rng(9000 + 100 * n + 10 * k + s)
    tree = moved = random_tree([str(i) for i in range(1, n + 1)], rng)
    for _ in range(k):
        edges = moved.edges()
        edge = edges[rng.randrange(len(edges))]
        side = moved.side_leaves(edge, edge[0])
        parts = restrict(moved, side), restrict(moved, moved.leaf_labels - side)
        points = [_attach_points(part) for part in parts]
        moved = _reconnect(
            parts[0], points[0][rng.randrange(len(points[0]))],
            parts[1], points[1][rng.randrange(len(points[1]))],
        )
    return Forest([tree]), Forest([moved])


def replay_states(F, F2, trace):
    """Every state a trace passes through from (F, F2), the start pair
    first and the final state last, and each step's surgery record: the
    steps are resolved with ``check_step`` and applied with
    ``apply_action``, and every state is kept, which ``replay_trace``
    does not do."""
    states, records = [(F, F2)], []
    for step in trace.steps:
        *after, rec = apply_action(*states[-1], check_step(*states[-1], step))
        states.append(tuple(after))
        records.append(rec)
    return states, records


def min_trace_bruteforce(F, F2):
    """The lexicographically least minimum-weight cherry picking sequence
    (steps compared by ``ReductionStep.sort_key``), by plain depth-first
    search with no memo, no forcing of free steps and no lower bound.  It
    sorts ``applicable_steps`` itself, so it judges the solver's step
    order rather than sharing it.

    The only limit is a weight budget, raised one at a time from 0: the
    first complete sequence found within budget w, trying steps in
    enumeration order, is the least one of weight at most w.  Without it
    the search is out of reach even at five leaves, because free steps
    can be taken in every order.
    """

    def first_within(F, F2, budget):
        if len(F.ground_set) == 1:
            return ()
        for step in sorted(applicable_steps(F, F2), key=ReductionStep.sort_key):
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


def witness_full_enumeration(F, F2, weight):
    """The lexicographically least trace of the given optimal weight, by
    trying every legal step at every state, sorted here by
    ``ReductionStep.sort_key`` rather than taken in the solver's own
    order, and keeping the first whose child still reaches the weight.
    Child values come from the exact search; only the walk's shortcut
    for forced steps is left out."""
    from cherrypick.search import _Searcher

    searcher = _Searcher()
    steps = []
    need = weight
    while len(F.ground_set) > 1:
        for step in sorted(applicable_steps(F, F2), key=ReductionStep.sort_key):
            if step.cost > need:
                continue
            nF, nF2 = apply_step(F, F2, step)
            if searcher.residual(nF, nF2, need - step.cost + 1) == need - step.cost:
                steps.append(step)
                F, F2, need = nF, nF2, need - step.cost
                break
    return ReductionTrace(tuple(steps))


def displays_unpruned(network, forest):
    """``oracles.displays`` without its guards and with neither of its
    prunes (the two free neighbours of an internal end vertex, and the
    far-leaf test that the pruned search makes at each step of an
    internal vertex's path walk, entering a vertex only while it reaches
    every far leaf): the same backtracking over subdivision embeddings,
    trying every end vertex for every internal tree vertex and going
    deeper from each, so its first witness is the one the pruned search
    must find."""
    # built once per call, in the order of PseudoNetwork.simple_neighbors
    neighbors = {v: network.simple_neighbors(v) for v in network.adj}

    def embed_tree(tree, used):
        if tree.num_vertices == 1:
            label = next(iter(tree.labels.values()))
            v = network.vertex_of[label]
            if v in used:
                return
            used.add(v)
            yield ComponentImage({tree.vertex_of[label]: v}, {})
            used.discard(v)
            return
        anchor = min(tree.leaf_labels)
        anchor_v = tree.vertex_of[anchor]
        net_anchor = network.vertex_of[anchor]
        if net_anchor in used:
            return
        order = []
        seen = {anchor_v}
        queue = deque([anchor_v])
        while queue:
            v = queue.popleft()
            for w in sorted(tree.adj[v]):
                if w not in seen:
                    seen.add(w)
                    order.append((v, w))
                    queue.append(w)
        phi = {anchor_v: net_anchor}
        paths = {}
        used.add(net_anchor)

        def candidate_paths(start, target):
            path = [start]
            on_path = {start}

            def walk(v):
                for w in neighbors[v]:
                    if w in on_path or w in used:
                        continue
                    if target is not None:
                        if w == target:
                            yield path + [w]
                        elif w not in network.labels:
                            path.append(w)
                            on_path.add(w)
                            yield from walk(w)
                            on_path.discard(w)
                            path.pop()
                    else:
                        if w in network.labels:
                            continue
                        path.append(w)
                        on_path.add(w)
                        yield path + []
                        yield from walk(w)
                        on_path.discard(w)
                        path.pop()

            yield from walk(start)

        def place(idx):
            if idx == len(order):
                yield ComponentImage(dict(phi), {k: tuple(v) for k, v in paths.items()})
                return
            a, b = order[idx]
            if b in tree.labels:
                target = network.vertex_of[tree.labels[b]]
                if target in used:
                    return
            else:
                target = None
            for path in candidate_paths(phi[a], target):
                phi[b] = path[-1]
                fresh = path[1:]
                used.update(fresh)
                paths[_edge(a, b)] = list(path) if a < b else list(reversed(path))
                yield from place(idx + 1)
                del paths[_edge(a, b)]
                for v in fresh:
                    used.discard(v)
                del phi[b]

        yield from place(0)
        used.discard(net_anchor)

    comps = sorted(range(len(forest.components)), key=lambda i: -forest.components[i].num_vertices)
    used = set()
    found = {}

    def place(k):
        if k == len(comps):
            return True
        idx = comps[k]
        for image in embed_tree(forest.components[idx], used):
            found[idx] = image
            if place(k + 1):
                return True
        found.pop(comps[k], None)
        return False

    if place(0):
        return EmbeddingImage(tuple(found[i] for i in range(len(forest.components))))
    return None


def child_env():
    """The environment for a child Python process that must import this
    checkout's cherrypick, whether or not it is installed: the tests run
    with ``src`` on ``sys.path``, and a child does not inherit that."""
    return dict(os.environ, PYTHONPATH=str(Path(cherrypick.__file__).parents[1]))
