"""Greedy construction and exact minimum-weight search."""

import re
import sys
from collections import deque
from itertools import chain
from pathlib import Path

import pytest

from cherrypick.errors import CapExceeded, GroundSetMismatch, NotATree
from cherrypick.generate import random_forest, random_forest_pair, random_tree, seeded_rng
from cherrypick.newick import parse_forest, serialize_trace
from cherrypick.oracles import tbr_distance_bfs, tbr_neighbors
from cherrypick.reductions import (
    _isolated_moves,
    _ordered_moves,
    _pair_moves,
    apply_action,
    labels_of,
    legal_moves,
    validate_trace,
)
from cherrypick.search import (
    _cherry_moves,
    _closed,
    _common_cherry_chain,
    _Searcher,
    _solve,
    greedy_cps,
    hybrid_number,
    min_weight_cps,
    tbr_distance,
)
from cherrypick.trees import Forest, PhyloTree, canonical_form, restrict

from util import (
    all_topologies,
    forest_pairs,
    min_trace_bruteforce,
    min_trace_full_branching,
    near_pair,
    replay_states,
    witness_full_enumeration,
)


FIG_FOREST = "(1,3);\n((2,4),(5,6));"


def seeded_forest_pairs(sizes, per_size=12):
    """Forest pair k of n leaves from ``seeded_rng(1000n + k)``, with
    1 + k % 3 components in each forest."""
    pairs = []
    for n in sizes:
        labels = [str(i) for i in range(1, n + 1)]
        for k in range(per_size):
            rng = seeded_rng(1000 * n + k)
            pairs.append((random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)))
    return pairs


# ---------------------------------------------------------------------------
# greedy


def test_greedy_identical_trees_weight_zero():
    f = parse_forest("((1,2),((3,4),(5,6)));")
    trace = greedy_cps(f, f)
    assert trace.weight == 0
    assert validate_trace(f, f, trace) == 0
    assert all(s.rule in ("C1", "C3") for s in trace.steps)


def test_greedy_quartets_weight_one_with_xx_pattern():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,4));")
    trace = greedy_cps(F, F2)
    assert trace.weight == 1
    assert trace.steps[0].rule == "C2a_i" and trace.steps[0].cut == "e_x"
    assert trace.steps[1].rule == "C3"
    assert trace.steps[0].label == trace.steps[1].label == "1"
    assert validate_trace(F, F2, trace) == 1


def test_greedy_all_singletons_all_c3():
    F = parse_forest("1;\n2;\n3;")
    trace = greedy_cps(F, F)
    assert trace.weight == 0
    assert all(s.rule == "C3" for s in trace.steps)
    assert labels_of(trace) == ("1", "2", "3")


def test_greedy_singleton_instance():
    F = parse_forest("x;")
    trace = greedy_cps(F, F)
    assert len(trace.steps) == 0 and trace.terminal == "x"


def test_greedy_mismatch():
    with pytest.raises(GroundSetMismatch):
        greedy_cps(parse_forest("(1,2);"), parse_forest("(1,3);"))


def test_greedy_always_terminates_with_valid_length(subtests=None):
    rng = seeded_rng(808)
    for _ in range(150):
        n = rng.randint(1, 10)
        labels = [str(i) for i in range(1, n + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, min(3, n)), rng)
        trace = greedy_cps(F, F2)
        assert validate_trace(F, F2, trace) == trace.weight
        assert len(labels_of(trace)) >= n


def test_greedy_applies_its_resolved_actions_without_a_check(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("greedy checked a step it resolved itself")

    pairs = seeded_forest_pairs(range(4, 8))
    with monkeypatch.context() as patched:
        patched.setattr("cherrypick.reductions.check_step", broken)
        traces = [greedy_cps(F, F2) for F, F2 in pairs]
    for (F, F2), trace in zip(pairs, traces):
        assert validate_trace(F, F2, trace) == trace.weight


# ---------------------------------------------------------------------------
# exact search


def test_min_weight_identity_is_zero():
    for text in ("x;", "(1,2);", "((1,2),(3,4));", "((1,2),((3,4),(5,6)));"):
        f = parse_forest(text)
        result = min_weight_cps(f, f)
        assert result.min_weight == 0
        assert validate_trace(f, f, result.witness) == 0


def test_min_weight_distinct_quartets_is_one():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,4));")
    result = min_weight_cps(F, F2)
    assert result.min_weight == 1
    assert validate_trace(F, F2, result.witness) == 1


def test_min_weight_never_exceeds_greedy():
    rng = seeded_rng(909)
    labels = [str(i) for i in range(1, 7)]
    for _ in range(25):
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        g = greedy_cps(F, F2)
        r = min_weight_cps(F, F2)
        assert r.min_weight <= g.weight


def test_min_weight_symmetric():
    rng = seeded_rng(1010)
    labels = [str(i) for i in range(1, 7)]
    for _ in range(15):
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        assert min_weight_cps(F, F2).min_weight == min_weight_cps(F2, F).min_weight


def test_min_weight_zero_iff_isomorphic_trees():
    tops = [Forest([t]) for t in all_topologies("1234")]
    for a in tops:
        for b in tops:
            w = min_weight_cps(a, b).min_weight
            assert (w == 0) == (canonical_form(a) == canonical_form(b))


def test_min_weight_forests_can_be_zero_without_equality():
    # the pair collapses by removals alone even though the forests differ
    F = parse_forest("(1,2);\n3;")
    F2 = parse_forest("1;\n(2,3);")
    assert min_weight_cps(F, F2).min_weight == 0


def test_witness_is_deterministic():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,4));")
    a = min_weight_cps(F, F2).witness
    b = min_weight_cps(F, F2).witness
    assert a == b


def test_budget_gives_bounded_interval():
    rng = seeded_rng(1111)
    labels = [str(i) for i in range(1, 8)]
    T1 = Forest([random_tree(labels, rng)])
    T2 = Forest([random_tree(labels, rng)])
    exact = min_weight_cps(T1, T2)
    if exact.min_weight == 0:
        return
    result = min_weight_cps(T1, T2, budget=1)
    assert result.status == "bounded"
    assert result.min_weight is None
    assert result.lower <= exact.min_weight <= result.upper
    assert validate_trace(T1, T2, result.witness) == result.upper


def test_hybrid_number_fixture_identity():
    f = parse_forest(FIG_FOREST)
    assert hybrid_number(f, f) == 0


def test_hybrid_number_symmetry():
    F = parse_forest("(1,3);\n((2,4),(5,6));")
    F2 = parse_forest("((1,2),((3,4),(5,6)));")
    assert hybrid_number(F, F2) == hybrid_number(F2, F)


def test_tbr_distance_requires_trees():
    with pytest.raises(NotATree):
        tbr_distance(parse_forest("1;\n(2,3);"), parse_forest("(1,(2,3));"))


def test_tbr_distance_quartets():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,4),(2,3));")
    assert tbr_distance(F, F2) == 1


def test_tbr_distance_of_equal_trees_needs_no_search(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("searched equal trees")

    monkeypatch.setattr("cherrypick.search._solve", broken)
    caterpillar = "(" * 1499 + "1," + ",".join(str(i) + ")" for i in range(2, 1501)) + ";"
    assert tbr_distance(parse_forest(caterpillar), parse_forest(caterpillar)) == 0
    with pytest.raises(GroundSetMismatch, match="trees are on different label sets"):
        tbr_distance(parse_forest("((1,2),(3,4));"), parse_forest("((1,2),(3,5));"))


def test_min_weight_two_expected_from_bfs_oracle():
    # frozen from the BFS oracle: both pairs are two TBR moves apart
    a = parse_forest("((1,2),((3,4),(5,6)));")
    b = parse_forest("((3,6),((1,4),(2,5)));")
    assert min_weight_cps(a, b).min_weight == 2
    cat1 = parse_forest("((1,2),(3,(4,(5,6))));")
    cat2 = parse_forest("((1,5),(3,(4,(2,6))));")
    assert min_weight_cps(cat1, cat2).min_weight == 2


# ---------------------------------------------------------------------------
# forced free steps, lazy children, counters


def test_witness_matches_bruteforce():
    cases = []
    for n in range(1, 6):
        tops = [Forest([t]) for t in all_topologies([str(i) for i in range(1, n + 1)])]
        cases.extend((tops[0], T) for T in tops)
    rng = seeded_rng(3)
    for n in (6, 7):
        labels = [str(i) for i in range(1, n + 1)]
        for k in (1, 2, 3):
            cases.append((random_forest(labels, k, rng), random_forest(labels, k, rng)))
    for F, F2 in cases:
        result = min_weight_cps(F, F2)
        brute = min_trace_bruteforce(F, F2)
        assert result.min_weight == brute.weight
        assert serialize_trace(result.witness) == serialize_trace(brute)


def test_one_cherry_search_matches_full_branching():
    # the search branches on the moves around F's first cherry only; the
    # reference branches on every legal move of every state
    cases = []
    for n in range(1, 6):
        cases.extend(forest_pairs([str(i) for i in range(1, n + 1)]))
    for n in (6, 7, 8):
        labels = [str(i) for i in range(1, n + 1)]
        rng = seeded_rng(n)
        for k in (1, 2, 3):
            for _ in range(3):
                cases.append((random_forest(labels, k, rng), random_forest(labels, k, rng)))
    # distance-2 tree pairs where the only branch that keeps the value is
    # the F2 end cut at u_m (first pair) or at u_1 (second): without it
    # the search says 3
    for a, b in (
        ("(((((2,6),3),5),(4,7)),1);", "((((((5,7),3),2),6),4),1);"),
        ("((((((2,7),6),3),4),5),1);", "((((2,3),6),((4,7),5)),1);"),
    ):
        cases.append((parse_forest(a), parse_forest(b)))
    for F, F2 in cases:
        result = min_weight_cps(F, F2)
        reference = min_trace_full_branching(F, F2)
        assert result.min_weight == reference.weight
        assert serialize_trace(result.witness) == serialize_trace(reference)


@pytest.mark.slow
def test_every_six_leaf_tree_pair_matches_tbr_move_graph():
    trees = list(all_topologies("123456"))
    index = {T.canonical: i for i, T in enumerate(trees)}
    graph = [[index[nb] for nb in tbr_neighbors(T)] for T in trees]
    for i, T in enumerate(trees):
        dist = {i: 0}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in graph[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == len(trees) == 105
        for j, T2 in enumerate(trees):
            assert min_weight_cps(Forest([T]), Forest([T2])).min_weight == dist[j]


@pytest.mark.slow
def test_nine_leaf_tree_pairs_match_full_branching():
    # the seeded tree suite's n = 9 pairs; the reference takes about 16 s
    labels = [str(i) for i in range(1, 10)]
    for i in range(5):
        rng = seeded_rng(12345 + 9000 + i)
        F, F2 = random_forest(labels, 1, rng), random_forest(labels, 1, rng)
        result = min_weight_cps(F, F2)
        reference = min_trace_full_branching(F, F2)
        assert result.min_weight == reference.weight
        assert serialize_trace(result.witness) == serialize_trace(reference)


def test_branch_set_is_the_sibling_pair_cuts(monkeypatch):
    # at every branching state: e_x and e_y in F (one action when they are
    # the same edge), then, exactly when x and y share a tree of F2, two
    # cuts there, at the ends u_1 and u_m of the x--y path in that order,
    # each keeping x and y on one side
    seen = []

    def recording(F, F2, cherry):
        actions = _cherry_moves(F, F2, cherry)
        seen.append((F, F2, actions))
        return actions

    monkeypatch.setattr("cherrypick.search._cherry_moves", recording)
    for n in range(6, 11):
        labels = [str(i) for i in range(1, n + 1)]
        rng = seeded_rng(500 + n)
        for k in (1, 2, 3, 1, 2, 3):
            hybrid_number(random_forest(labels, k, rng), random_forest(labels, k, rng))
    shapes = set()
    for F, F2, actions in seen:
        x, y = F.cherries()[0]
        comp = F.component_index(x)
        tree = F.components[comp]
        in_F = [("cut", 0, comp, e) for e in dict.fromkeys(map(tree.pendant_edge, (x, y)))]
        assert actions[: len(in_F)] == in_F
        in_F2 = actions[len(in_F):]
        shapes.add((len(in_F), len(in_F2)))
        if F2.component_index(x) != F2.component_index(y):
            assert in_F2 == []
            continue
        b_comp = F2.component_index(x)
        btree = F2.components[b_comp]
        path = btree.path(btree.vertex_of[x], btree.vertex_of[y])
        assert len(in_F2) == 2
        for (_, side, idx, edge), end in zip(in_F2, (path[1], path[-2])):
            assert (side, idx) == (1, b_comp) and btree.has_edge(*edge)
            assert end in edge and {x, y} <= btree.side_leaves(edge, end)
    assert shapes == {(1, 0), (1, 2), (2, 0), (2, 2)}


def test_search_stats_counters():
    F = parse_forest("((1,2),(3,(4,(5,6))));")
    F2 = parse_forest("((1,5),(3,(4,(2,6))));")
    result = min_weight_cps(F, F2)
    stats = result.stats
    assert result.min_weight == 2
    assert stats.applied >= stats.forced > 0
    assert 0 < sum(stats.level_nodes) <= stats.nodes
    assert len(stats.level_nodes) <= greedy_cps(F, F2).weight


def test_one_swap_at_four_hundred_leaves_is_exact():
    # free-step chains run in a loop, so depth stays far below the limit
    assert sys.getrecursionlimit() <= 1000
    labels = [str(i) for i in range(400)]
    T = random_tree(labels, seeded_rng(1))
    swap = {"3": "170", "170": "3"}
    T2 = PhyloTree(T.adj, {v: swap.get(lab, lab) for v, lab in T.labels.items()})
    result = min_weight_cps(Forest([T]), Forest([T2]))
    assert result.status == "exact" and result.min_weight == 2
    assert validate_trace(Forest([T]), Forest([T2]), result.witness) == 2


def test_witness_walk_matches_full_enumeration():
    # the walk takes a C1 step, and any free step once no weight is left,
    # without enumerating; the reference tries every step at every state
    for n in range(4, 10):
        labels = [str(i) for i in range(1, n + 1)]
        for k in range(12):
            rng = seeded_rng(1000 * n + k)
            F, F2 = random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)
            result = min_weight_cps(F, F2)
            reference = witness_full_enumeration(F, F2, result.min_weight)
            assert serialize_trace(result.witness) == serialize_trace(reference)


def test_walk_lists_the_legal_moves_and_its_probes_keep_the_value():
    # at every state the witness and greedy pass through, each stream the
    # walk merges (one per ordered cherry and orientation, plus the C3
    # moves) is in step order, so the merge is their sorted concatenation;
    # and a probe that first drops the child's isolated labels finds the
    # raw child's residual.  The walk never reads the terminal state.
    def key(move):
        return move[0].sort_key()

    for F, F2 in seeded_forest_pairs(range(4, 8)):
        cutoff = len(F.ground_set)  # above every residual, so both are exact
        prober, reference = _Searcher(), _Searcher()
        for trace in (min_weight_cps(F, F2).witness, greedy_cps(F, F2)):
            for state in replay_states(F, F2, trace)[0][:-1]:
                streams = [_isolated_moves(*state)]
                for orientation, (A, B) in (("forward", state), ("reversed", state[::-1])):
                    for a, b in A.cherries():
                        streams += [list(_pair_moves(A, B, x, y, orientation)) for x, y in ((a, b), (b, a))]
                for stream in streams:
                    assert stream == sorted(stream, key=key)
                assert list(_ordered_moves(*state)) == sorted(chain(*streams), key=key)
                moves = legal_moves(*state)
                for _, action in moves:
                    child = apply_action(*state, action)[:2]
                    probed = prober._probe(*state, action, cutoff)
                    assert probed == reference.residual(*child, cutoff)


def test_a_cut_that_isolates_a_leaf_is_branched_on_as_its_drop(monkeypatch):
    # every cut the search branches on and every move the walk probes, each
    # with the cutoff of its state: _closed keeps the action exactly when
    # no end of the cut edge is a leaf, and otherwise names the drop of
    # that leaf, whose child is the cut child after that leaf's C3 step,
    # with its key and its residual
    recorded = []
    branch, probe = _Searcher._branch, _Searcher._probe

    def branching(self, F, F2, cutoff, cherry):
        recorded.extend((F, F2, action, cutoff) for action in _cherry_moves(F, F2, cherry))
        return branch(self, F, F2, cutoff, cherry)

    def probing(self, F, F2, action, cutoff):
        recorded.append((F, F2, action, cutoff))
        return probe(self, F, F2, action, cutoff)

    runs = []
    with monkeypatch.context() as patched:
        patched.setattr(_Searcher, "_branch", branching)
        patched.setattr(_Searcher, "_probe", probing)
        for inputs in seeded_forest_pairs(range(4, 9)) + [near_pair(30, 5, s) for s in (0, 1)]:
            min_weight_cps(*inputs)
            runs.append(recorded[:])
            recorded.clear()
    seen = set()
    for run in runs:
        cut_values, drop_values = _Searcher(), _Searcher()
        for F, F2, action, cutoff in run:
            closed = _closed(F, F2, action)
            if action[0] == "drop":
                assert closed == action
                continue
            _, side, comp, edge = action
            labels = (F2 if side else F).components[comp].labels
            ends = [labels[v] for v in edge if v in labels]
            seen.add((side, bool(ends)))
            if not ends:
                assert closed == action
                continue
            assert closed == ("drop", ends[0])
            cut = apply_action(F, F2, action)[:2]
            dropped = apply_action(*cut, closed)[:2]
            child = apply_action(F, F2, closed)[:2]
            assert child == dropped and _Searcher._key(*child) == _Searcher._key(*dropped)
            assert drop_values.residual(*child, cutoff) == cut_values.residual(*cut, cutoff)
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def test_near_pair_values():
    # values at n >= 30 that no oracle reaches, with witnesses that replay
    for (n, k, s), weight in {(30, 5, 0): 5, (30, 5, 1): 4, (50, 5, 0): 5, (50, 7, 0): 6}.items():
        F, F2 = near_pair(n, k, s)
        result = min_weight_cps(F, F2)
        assert result.min_weight == weight
        assert validate_trace(F, F2, result.witness) == weight


def test_legal_only_refinement_trap_has_distance_one():
    # a branch refinement that kept only legal steps once returned 2 here
    F = parse_forest("((((4,5),6),(2,3)),1);")
    F2 = parse_forest("(((((4,6),5),3),2),1);")
    result = min_weight_cps(F, F2)
    assert result.min_weight == tbr_distance_bfs(F.components[0], F2.components[0]) == 1
    reference = witness_full_enumeration(F, F2, result.min_weight)
    assert serialize_trace(result.witness) == serialize_trace(reference)


def test_value_only_solves_skip_the_witness_walk(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("walked a witness nobody reads")

    monkeypatch.setattr("cherrypick.search._Searcher.witness", broken)
    a = parse_forest("((1,2),((3,4),(5,6)));")
    b = parse_forest("((3,6),((1,4),(2,5)));")
    assert hybrid_number(a, b) == 2
    assert tbr_distance(a, b) == 2
    with pytest.raises(AssertionError, match="nobody reads"):
        min_weight_cps(a, b)


def test_search_states_are_the_inputs_restricted_to_their_partition(monkeypatch):
    # the memo key is each forest's label partition; it names a state
    # because every component the search sees is the input component
    # holding its labels restricted to them, and cutting e_x and e_y in
    # either order reaches one state under one key
    key = _Searcher._key

    def cut_pendant(F, F2, leaf):
        comp = F.component_index(leaf)
        return apply_action(F, F2, ("cut", 0, comp, F.components[comp].pendant_edge(leaf)))[:2]

    def checking(F, F2):
        for forest, start in zip((F, F2), inputs):
            for t in forest.components:
                home = start.components[start.component_index(next(iter(t.vertex_of)))]
                assert t.canonical == restrict(home, t.leaf_labels).canonical
        cherries = F.cherries()
        if cherries:
            x, y = cherries[0]
            if len(F.components[F.component_index(x)].vertex_of) > 2:
                one = cut_pendant(*cut_pendant(F, F2, x), y)
                two = cut_pendant(*cut_pendant(F, F2, y), x)
                assert key(*one) == key(*two) and one == two
        seen.append(key(F, F2))
        return seen[-1]

    monkeypatch.setattr(_Searcher, "_key", staticmethod(checking))
    pairs = []
    for n in range(4, 10):
        labels = [str(i) for i in range(1, n + 1)]
        rng = seeded_rng(3100 + n)
        pairs.extend(random_forest_pair(labels, k, rng) for k in (1, 2, 3, 1, 2, 3))
    pairs.extend(near_pair(30, 5, s) for s in (0, 1))
    for inputs in pairs:
        seen = []
        result = min_weight_cps(*inputs)
        assert result.status == "exact" and (result.min_weight == 0 or seen)


def test_memo_writes_never_lose_information(monkeypatch):
    # the invariant that lets _Searcher._store write unconditionally: a
    # write replaces nothing, or replaces a non-exact bound with a larger
    # value or with an exact entry
    class Memo(dict):
        def __setitem__(self, key, entry):
            old = self.get(key)
            assert old is None or (not old[1] and (entry[1] or entry[0] > old[0])), (old, entry)
            replaced.append(old is not None)
            super().__setitem__(key, entry)

    init = _Searcher.__init__

    def spied(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.memo = Memo()

    monkeypatch.setattr(_Searcher, "__init__", spied)
    replaced = []
    pairs = []
    for n in range(4, 10):
        labels = [str(i) for i in range(1, n + 1)]
        for k in range(60):
            rng = seeded_rng(1000 * n + k)
            pairs.append((random_forest(labels, 1 + k % 3, rng), random_forest(labels, 1 + k % 3, rng)))
    pairs.extend(near_pair(30, 5, s) for s in (0, 1))
    for F, F2 in pairs:
        assert min_weight_cps(F, F2).status == "exact"
    assert any(replaced) and not all(replaced)


def test_value_only_solve_renders_no_tree(monkeypatch):
    # the search keys its states by label partition and greedy compares
    # no trees, so a value-only solve reads no canonical form
    F, F2 = random_forest_pair([str(i) for i in range(1, 10)], 2, seeded_rng(4242))
    renders = []
    canonical = PhyloTree.canonical
    monkeypatch.setattr(
        PhyloTree, "canonical", property(lambda t: renders.append(t) or canonical.fget(t))
    )
    result = _solve(F, F2, walk=False)
    assert result.lower > 1 and result.stats.nodes > 10
    assert len(renders) == 0


def test_tbr_distance_with_a_cap():
    a = parse_forest("((1,2),((3,4),(5,6)));")
    b = parse_forest("((3,6),((1,4),(2,5)));")
    assert tbr_distance(a, b, cap=2) == 2
    for cap in (0, 1):
        with pytest.raises(CapExceeded, match="TBR distance exceeds cap %d" % cap):
            tbr_distance(a, b, cap=cap)


def test_negative_budgets_and_caps_are_rejected():
    # on equal and on different trees alike, before any search
    a = parse_forest("((1,2),((3,4),(5,6)));")
    b = parse_forest("((3,6),((1,4),(2,5)));")
    for other in (a, b):
        with pytest.raises(ValueError, match=r"^cap must be non-negative, got -1$"):
            tbr_distance(a, other, cap=-1)
        with pytest.raises(ValueError, match=r"^budget must be non-negative, got -1$"):
            min_weight_cps(a, other, budget=-1)
        with pytest.raises(ValueError, match=r"^cap must be non-negative, got -2$"):
            _solve(a, other, cap=-2)
    assert tbr_distance(a, a, cap=0) == 0
    assert min_weight_cps(a, b, budget=0).status == "bounded"


# ---------------------------------------------------------------------------
# the input's common-cherry chain, taken once per solve


def transposition_pair(n, seed):
    """A random tree on labels 1..n against itself with two labels swapped."""
    rng = seeded_rng(seed)
    labels = [str(i) for i in range(1, n + 1)]
    T = random_tree(labels, rng)
    a, b = rng.sample(labels, 2)
    swap = {a: b, b: a}
    return Forest([T]), Forest([PhyloTree(T.adj, {v: swap.get(lab, lab) for v, lab in T.labels.items()})])


TRANSPOSITION_PAIRS = [transposition_pair(n, 100 * n + s) for n in (6, 7, 8) for s in range(6)]


def test_one_transposition_witness_matches_full_enumeration():
    for F, F2 in TRANSPOSITION_PAIRS:
        result = min_weight_cps(F, F2)
        reference = witness_full_enumeration(F, F2, result.min_weight)
        assert serialize_trace(result.witness) == serialize_trace(reference)


def test_equal_trees_are_solved_by_the_chain_alone():
    for n in range(1, 13):
        T = Forest([random_tree([str(i) for i in range(1, n + 1)], seeded_rng(n))])
        result = min_weight_cps(T, T)
        assert result.status == "exact" and result.min_weight == 0
        assert result.witness == greedy_cps(T, T)
        assert [step.rule for step in result.witness.steps] == ["C1"] * (n - 1)
        stats = result.stats
        assert (stats.nodes, stats.level_nodes, stats.forced, stats.applied) == (0, [], n - 1, n - 1)


def test_a_zero_budget_returns_the_greedy_trace():
    pairs = TRANSPOSITION_PAIRS + seeded_forest_pairs(range(4, 8), per_size=6)
    for F, F2 in pairs:
        greedy = greedy_cps(F, F2)
        result = min_weight_cps(F, F2, budget=0)
        assert result.witness == greedy and result.upper == greedy.weight
        if greedy.weight:
            assert (result.status, result.lower) == ("bounded", 0)


def test_mismatched_or_empty_label_sets_are_rejected_before_the_chain(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("took a step on a mismatched pair")

    monkeypatch.setattr("cherrypick.search.apply_action", broken)
    # (1,2) is a cherry of both
    for F, F2 in (
        (parse_forest("((1,2),(3,4));"), parse_forest("((1,2),(3,5));")),
        (parse_forest("((1,2),(3,4));"), parse_forest("((1,2),3);")),
        (Forest([]), Forest([])),
    ):
        with pytest.raises(GroundSetMismatch, match="forests must share a non-empty label set"):
            min_weight_cps(F, F2)


def test_the_chain_is_counted_once_and_levels_start_after_it():
    # forced and applied count the chain once, nodes and level_nodes never;
    # on a tree pair the reduced root has no free step, so the first level
    # expands that one state
    for F, F2 in TRANSPOSITION_PAIRS + seeded_forest_pairs(range(4, 9), per_size=6):
        head, rF, rF2 = _common_cherry_chain(F, F2)
        stats, reduced = _solve(F, F2, walk=False).stats, _solve(rF, rF2, walk=False).stats
        assert stats.nodes == sum(stats.level_nodes) == reduced.nodes
        assert stats.level_nodes == reduced.level_nodes
        assert (stats.forced, stats.applied) == (reduced.forced + len(head), reduced.applied + len(head))
        if len(F.components) == 1 and stats.level_nodes:
            assert stats.level_nodes[0] == 1
    assert any(_common_cherry_chain(F, F2)[0] for F, F2 in TRANSPOSITION_PAIRS)


# ---------------------------------------------------------------------------
# the README's library example


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
