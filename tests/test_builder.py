"""Reverse-replay network construction with image tracking."""

import tracemalloc

import pytest

from cherrypick.builder import BuildState, _ids_apart, build_network
from cherrypick.errors import GroundSetMismatch, ImageTrackingError, InvalidTrace, ScaleGuard
from cherrypick.generate import random_forest_pair, random_tree, seeded_rng
from cherrypick.networks import network_from_tree, reticulation_number
from cherrypick.newick import parse_forest
from cherrypick.oracles import displays
from cherrypick.reductions import (
    ReductionStep,
    ReductionTrace,
    apply_action,
    check_step,
    validate_trace,
)
from cherrypick.search import greedy_cps, min_weight_cps
from cherrypick.trees import Forest, PhyloTree, _edge

from util import networks_isomorphic


def test_weight_zero_trace_builds_the_tree_back():
    f = parse_forest("((1,2),((3,4),(5,6)));")
    trace = greedy_cps(f, f)
    assert trace.weight == 0
    n = build_network(f, f, trace)
    assert reticulation_number(n) == 0
    assert networks_isomorphic(n, network_from_tree(f.components[0]))


def test_weight_one_quartets_builds_the_four_cycle():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,4));")
    result = min_weight_cps(F, F2)
    n = build_network(F, F2, result.witness)
    assert reticulation_number(n) <= 1
    assert displays(n, F) is not None
    assert displays(n, F2) is not None
    # r >= 1 too: a tree cannot display two incompatible quartets
    assert reticulation_number(n) == 1


def test_single_label_instance():
    f = parse_forest("x;")
    n = build_network(f, f, ReductionTrace(()))
    assert n.num_vertices == 1
    assert n.leaf_labels == {"x"}


def test_two_label_instance():
    f = parse_forest("(1,2);")
    trace = greedy_cps(f, f)
    n = build_network(f, f, trace)
    assert n.num_vertices == 2 and reticulation_number(n) == 0


def test_isolated_cherry_undo():
    # the C2 cut splits an isolated edge; its undo subdivides both pendant
    # edges and joins them
    F = parse_forest("(1,2);\n(3,4);")
    F2 = parse_forest("((1,3),(2,4));")
    result = min_weight_cps(F, F2)
    n = build_network(F, F2, result.witness)
    assert reticulation_number(n) <= result.min_weight
    assert displays(n, F) is not None and displays(n, F2) is not None


def test_internal_edge_undo_disjoint_images():
    # the minimum witness of this pair cuts pendant edges only; the traces
    # of test_internal_edge_cut_undo cut internal edges
    F = parse_forest("((1,2),((3,4),(5,6)));")
    F2 = parse_forest("((3,6),((1,4),(2,5)));")
    result = min_weight_cps(F, F2)
    n = build_network(F, F2, result.witness)
    assert reticulation_number(n) <= result.min_weight
    assert displays(n, F) is not None and displays(n, F2) is not None


# a C2 cut of an internal edge leaves both of its ends suppressed, so its
# undo subdivides the images of two merged edges; each trace starts with
# such a cut and finishes greedily
INTERNAL_CUTS = [
    (
        "(((1,2),3),(4,5));",
        "(((1,4),2),(3,5));",
        ReductionStep("1", "C2a_ii", y="2", p="3", cut="e_xyp"),
    ),
    (
        "((((2,4),3),5),1);",
        "((((2,5),4),3),1);",
        ReductionStep("1", "C2a_iii", y="5", p="2", q="4", cut="e_pq"),
    ),
    (
        "((((3,5),2),(4,6)),1);",
        "(((((4,6),3),5),2),1);",
        ReductionStep("3", "C2b_ii", y="5", cut="c2b_edge"),
    ),
]


@pytest.mark.parametrize("f1, f2, step", INTERNAL_CUTS)
def test_internal_edge_cut_undo(f1, f2, step, monkeypatch):
    F, F2 = parse_forest(f1), parse_forest(f2)
    nF, nF2, record = apply_action(F, F2, check_step(F, F2, step))
    assert [eff.kind for eff in record[2].effects] == ["suppressed", "suppressed"]
    trace = ReductionTrace((step,) + greedy_cps(nF, nF2).steps)
    n = build_network(F, F2, trace)
    assert reticulation_number(n) <= trace.weight
    assert displays(n, F) is not None and displays(n, F2) is not None

    peek = BuildState.peek_path
    monkeypatch.setattr(
        BuildState, "peek_path", lambda self, side, a, b: peek(self, side, a, b) + ("shared",)
    )
    with pytest.raises(ImageTrackingError, match="images of the split components overlap"):
        build_network(F, F2, trace)


def test_builder_invalid_trace():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,4));")
    bad = ReductionTrace((ReductionStep("1", "C1", "forward", y="2"),))
    with pytest.raises(InvalidTrace):
        build_network(F, F2, bad)


def test_c1_c3_only_traces_give_trees():
    rng = seeded_rng(1616)
    for _ in range(30):
        n_labels = rng.randint(1, 9)
        labels = [str(i) for i in range(1, n_labels + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, min(3, n_labels)), rng)
        trace = greedy_cps(F, F2)
        if trace.weight != 0:
            continue
        net = build_network(F, F2, trace)
        assert reticulation_number(net) == 0


def test_build_respects_weight_bound_on_random_pairs():
    rng = seeded_rng(1717)
    for _ in range(60):
        n_labels = rng.randint(2, 8)
        labels = [str(i) for i in range(1, n_labels + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, min(3, n_labels)), rng)
        trace = greedy_cps(F, F2)
        w = validate_trace(F, F2, trace)
        net = build_network(F, F2, trace)
        assert reticulation_number(net) <= w
        assert displays(net, F) is not None
        assert displays(net, F2) is not None


def test_build_on_minimum_witnesses():
    rng = seeded_rng(1818)
    for _ in range(20):
        labels = [str(i) for i in range(1, 7)]
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        result = min_weight_cps(F, F2)
        net = build_network(F, F2, result.witness)
        assert reticulation_number(net) <= result.min_weight
        assert displays(net, F) is not None
        assert displays(net, F2) is not None


def _assert_builds(F, F2):
    result = min_weight_cps(F, F2)
    net = build_network(F, F2, result.witness)
    assert reticulation_number(net) <= result.min_weight
    assert displays(net, F) is not None
    assert displays(net, F2) is not None


def test_components_sharing_vertex_ids_build():
    # vertex ids are private to each tree, so two components may reuse them
    edge = {0: {1}, 1: {0}}
    F = Forest([PhyloTree(edge, {0: "a", 1: "b"}), PhyloTree(edge, {0: "c", 1: "d"})])
    _assert_builds(F, parse_forest("((a,c),(b,d));"))
    rng = seeded_rng(2020)
    for _ in range(10):
        labels = [str(i) for i in range(1, rng.randint(5, 8) + 1)]
        cut = rng.randint(1, len(labels) - 1)
        F = Forest([random_tree(labels[:cut], rng), random_tree(labels[cut:], rng)])
        rng.shuffle(labels)
        F2 = Forest([random_tree(labels[:cut], rng), random_tree(labels[cut:], rng)])
        _assert_builds(F, F2)


def test_forests_with_distinct_vertex_ids_are_not_renumbered():
    F = parse_forest("(1,2);\n((3,4),(5,6));")
    assert _ids_apart(F) is F


def test_ground_set_mismatch_propagates():
    F = parse_forest("((1,2),(3,4));")
    F2 = parse_forest("((1,3),(2,5));")
    with pytest.raises(GroundSetMismatch):
        build_network(F, F2, ReductionTrace(()))


# -- negative tests: a corrupted image must fail verification ---------------

# one forest has a singleton component, so there are two components whose
# images can be made to overlap; the weight-1 witness adds a display edge,
# so some images run through subdivision vertices
CORRUPT_F = "((1,2),((3,4),6));\n5;"
CORRUPT_F2 = "((1,3),((2,5),(4,6)));"


def _final_build_state(monkeypatch):
    """The BuildState of a finished build, with the forest pair its images
    track (the starting pair)."""
    F, F2 = parse_forest(CORRUPT_F), parse_forest(CORRUPT_F2)
    states = []
    verify = BuildState.verify_images

    def spy(self, pair):
        states.append(self)
        verify(self, pair)

    with monkeypatch.context() as m:
        m.setattr(BuildState, "verify_images", spy)
        build_network(F, F2, min_weight_cps(F, F2).witness)
    state = states[-1]
    state.verify_images((F, F2))  # uncorrupted, it passes
    return state, (F, F2)


def test_verify_rejects_a_vertex_dropped_from_a_path(monkeypatch):
    state, pair = _final_build_state(monkeypatch)
    for paths in state.epath:
        for key, path in paths.items():
            for i in range(1, len(path) - 1):
                if path[i + 1] not in state.adj[path[i - 1]]:
                    paths[key] = path[:i] + path[i + 1 :]
                    with pytest.raises(ImageTrackingError, match="leaves the network"):
                        state.verify_images(pair)
                    return
    pytest.fail("no image path has an interior vertex")


def test_verify_rejects_an_unmapped_tree_vertex(monkeypatch):
    state, pair = _final_build_state(monkeypatch)
    del state.vmap[1][next(iter(pair[1].components[0].adj))]
    with pytest.raises(ImageTrackingError, match="unmapped tree vertex"):
        state.verify_images(pair)


def test_verify_rejects_overlapping_component_images(monkeypatch):
    state, pair = _final_build_state(monkeypatch)
    F = pair[0]
    (single,) = [t for t in F.components if t.num_vertices == 1]
    (other,) = [t for t in F.components if t is not single]
    (v,) = single.adj
    state.vmap[0][v] = state.vmap[0][next(iter(other.adj))]
    with pytest.raises(ImageTrackingError, match="share vertices"):
        state.verify_images(pair)


def test_verify_rejects_a_leaf_mapped_to_the_wrong_vertex(monkeypatch):
    state, pair = _final_build_state(monkeypatch)
    state.vertex_of["1"], state.vertex_of["2"] = state.vertex_of["2"], state.vertex_of["1"]
    with pytest.raises(ImageTrackingError, match="mapped to the wrong vertex"):
        state.verify_images(pair)


def test_verify_rejects_a_path_through_another_components_leaf(monkeypatch):
    # reroute an image of the large component through the network leaf of
    # the singleton, over two new network edges: every path is still a
    # walk with the right ends, and only disjointness is broken
    state, pair = _final_build_state(monkeypatch)
    (single,) = [t for t in pair[0].components if t.num_vertices == 1]
    leaf = state.vertex_of[next(iter(single.vertex_of))]
    key, path = next((k, p) for k, p in sorted(state.epath[0].items()) if leaf not in p)
    for end in (path[0], path[-1]):
        state.adj[end] = state.adj[end] | {leaf}
        state.adj[leaf] = state.adj[leaf] | {end}
    state.epath[0][key] = (path[0], leaf, path[-1])
    with pytest.raises(ImageTrackingError, match="share vertices"):
        state.verify_images(pair)


def test_verify_rejects_leaves_that_swapped_labels(monkeypatch):
    # the forest changes while every tree vertex keeps its adjacency
    state, pair = _final_build_state(monkeypatch)
    F, F2 = pair
    i = F.component_index("1")
    tree = F.components[i]
    a, b = tree.vertex_of["1"], tree.vertex_of["2"]
    labels = {**tree.labels, a: "2", b: "1"}
    swapped = PhyloTree._trusted(tree.adj, labels, {lab: v for v, lab in labels.items()})
    with pytest.raises(ImageTrackingError, match="mapped to the wrong vertex"):
        state.verify_images((F.replace_component(i, [swapped], F.ground_set), F2))


def test_verify_catches_a_path_the_edge_index_lost(monkeypatch):
    # drop the owner-index entry of the last indexed edge to be subdivided:
    # the image using that edge is not patched and no later undo reads it,
    # so only the image check after the last step can notice
    F, F2 = parse_forest(CORRUPT_F), parse_forest(CORRUPT_F2)
    trace = min_weight_cps(F, F2).witness
    subdivide = BuildState.subdivide
    indexed = []

    def counting(self, u, v):
        if (min(u, v), max(u, v)) in self.owner[0]:
            indexed.append((u, v))
        return subdivide(self, u, v)

    monkeypatch.setattr(BuildState, "subdivide", counting)
    build_network(F, F2, trace)
    assert indexed
    calls = []

    def lossy(self, u, v):
        key = (min(u, v), max(u, v))
        if key in self.owner[0]:
            calls.append(key)
            if len(calls) == len(indexed):
                del self.owner[0][key]
        return subdivide(self, u, v)

    monkeypatch.setattr(BuildState, "subdivide", lossy)
    build_network(F, F2, trace, verify=False)
    calls.clear()
    with pytest.raises(ImageTrackingError, match="leaves the network"):
        build_network(F, F2, trace, verify=True)


def _spy_on_undo_steps(monkeypatch, after):
    """Call `after(state)` after each undo step of every build."""

    def spied(real):
        def undo(self, *args):
            real(self, *args)
            after(self)

        return undo

    for name in ("attach_leaf", "add_display_edge"):
        monkeypatch.setattr(BuildState, name, spied(getattr(BuildState, name)))


def test_verify_checks_the_images_once_after_the_last_undo_step(monkeypatch):
    calls = []
    verify = BuildState.verify_images

    def spy(self, pair):
        calls.append(pair)
        verify(self, pair)

    monkeypatch.setattr(BuildState, "verify_images", spy)
    _spy_on_undo_steps(monkeypatch, lambda state: calls.append("undo"))
    F, F2 = parse_forest(CORRUPT_F), parse_forest(CORRUPT_F2)
    trace = min_weight_cps(F, F2).witness
    build_network(F, F2, trace, verify=False)
    assert calls == ["undo"] * len(trace.steps)
    calls.clear()
    build_network(F, F2, trace)
    # the input forests themselves: their vertex ids are already apart
    assert calls[:-1] == ["undo"] * len(trace.steps)
    assert calls[-1][0] is F and calls[-1][1] is F2


def test_build_network_holds_one_state_at_a_time():
    # the pair and trace of test_validate_trace_holds_one_state_at_a_time;
    # a build that kept every replay state peaked near 36.5 MB on it
    rng = seeded_rng(400)
    F, F2 = random_forest_pair([str(i) for i in range(400)], 1, rng)
    trace = greedy_cps(F, F2)
    tracemalloc.start()
    try:
        network = build_network(F, F2, trace, verify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reticulation_number(network) <= trace.weight
    assert peak < 8_000_000


def test_edge_count_matches_the_adjacency_after_every_step(monkeypatch):
    checked = []

    def count(state):
        assert state.edge_count == sum(len(ns) for ns in state.adj.values()) // 2
        checked.append(1)

    _spy_on_undo_steps(monkeypatch, count)
    rng = seeded_rng(1919)
    for _ in range(25):
        n_labels = rng.randint(6, 30)
        labels = [str(i) for i in range(1, n_labels + 1)]
        F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
        trace = greedy_cps(F, F2)
        before = len(checked)
        build_network(F, F2, trace, verify=True)
        assert len(checked) - before == len(trace.steps)


# -- a faulty build raises or returns a network that is right ---------------


def _corrupt(state, rng):
    """Apply one corruption, drawn by `rng`, to the image maps or the
    network of a build in progress, writing through the maps as any
    caller would; returns its name."""
    side = rng.randrange(2)
    vmap, epath, adj = state.vmap[side], state.epath[side], state.adj
    kind = rng.choice(
        ["drop", "replace", "reverse", "unmap", "retarget", "cut", "swap", "forget"]
    )
    vertices = sorted(adj)
    keys = sorted(epath)
    if kind in ("drop", "replace", "reverse", "forget") and keys:
        key = rng.choice(keys)
        path = epath[key]
        i = rng.randrange(len(path))
        if kind == "drop" and len(path) > 2:
            i = rng.randrange(1, len(path) - 1)
            epath[key] = path[:i] + path[i + 1 :]
        elif kind == "replace":
            epath[key] = path[:i] + (rng.choice(vertices),) + path[i + 1 :]
        elif kind == "reverse":
            epath[key] = path[::-1]
        elif kind == "forget":
            del epath[key]
    elif kind in ("unmap", "retarget") and vmap:
        t = rng.choice(sorted(vmap))
        if kind == "unmap":
            del vmap[t]
        else:
            vmap[t] = rng.choice(vertices)
    elif kind == "cut":
        edges = state.edges()
        if edges:
            u, v = rng.choice(sorted(edges))
            adj[u] = adj[u] - {v}
            adj[v] = adj[v] - {u}
    elif kind == "swap" and len(state.vertex_of) > 1:
        a, b = rng.sample(sorted(state.vertex_of), 2)
        state.vertex_of[a], state.vertex_of[b] = state.vertex_of[b], state.vertex_of[a]
    return kind


def _judged_build(F, F2, trace, monkeypatch, rng=None):
    """Build, after one corruption at an undo step drawn by `rng`, if
    given.  Returns "raised" when the build fails, "judged" when it
    returns a network with r(N) <= weight that displays both forests,
    and "unjudged" when that network is too large for ``displays``; a
    returned network that is judged wrong fails the test."""
    with monkeypatch.context() as m:
        if rng:
            when = rng.randrange(len(trace.steps))
            done = []

            def corrupt_once(state):
                if len(done) == when:
                    _corrupt(state, rng)
                done.append(1)

            _spy_on_undo_steps(m, corrupt_once)
        try:
            net = build_network(F, F2, trace)
        except (ImageTrackingError, LookupError, ValueError):
            return "raised"
    assert reticulation_number(net) <= trace.weight
    try:
        shown = displays(net, F) is not None and displays(net, F2) is not None
    except ScaleGuard:
        return "unjudged"
    assert shown
    return "judged"


def _random_instance(rng, exact):
    """A seeded forest pair on 4-30 leaves and a trace for it: a minimum
    witness if `exact` and there are at most 8 leaves, else greedy's."""
    n = rng.randint(4, 30)
    labels = [str(j) for j in range(1, n + 1)]
    F, F2 = random_forest_pair(labels, rng.randint(1, 3), rng)
    if n <= 8 and exact:
        return F, F2, min_weight_cps(F, F2).witness
    return F, F2, greedy_cps(F, F2)


def test_a_corrupted_build_raises_or_returns_a_network_that_displays_both_forests(monkeypatch):
    rng = seeded_rng(2525)
    verdicts = []
    for i in range(300):
        F, F2, trace = _random_instance(rng, exact=i % 2)
        if trace.steps:
            verdicts.append(_judged_build(F, F2, trace, monkeypatch, rng))
    assert verdicts.count("raised") > 200 and verdicts.count("judged") >= 1


def _subdivide_one_side(real):
    def subdivide(self, u, v):
        self.owner[1].pop(_edge(u, v), None)
        return real(self, u, v)

    return subdivide


def _split_to_the_wrong_vertex(real):
    def split(self, side, merged, suppressed, w):
        real(self, side, merged, suppressed, w)
        self.vmap[side][suppressed] = self.vmap[side][merged[0]]

    return split


def _set_path_unreversed(real):
    def set_path(self, side, a, b, path):
        return real(self, side, a, b, tuple(path)[::-1] if b < a else path)

    return set_path


def _c1_on_the_wrong_leaf(real):
    def attach_leaf(self, step, rec_l, rec_r):
        if step.rule == "C1":
            others = sorted(set(self.vertex_of) - {step.y})
            if others:
                step = step._replace(y=others[0])
        return real(self, step, rec_l, rec_r)

    return attach_leaf


def _owner_entry_dropped(real):
    def own(self, side, key, network_edges):
        network_edges = list(network_edges)
        real(self, side, key, network_edges)
        if len(network_edges) > 1:
            del self.owner[side][_edge(*network_edges[-1])]

    return own


@pytest.mark.slow
@pytest.mark.parametrize(
    "method, mutant",
    [
        ("subdivide", _subdivide_one_side),
        ("_split_merged", _split_to_the_wrong_vertex),
        ("set_path", _set_path_unreversed),
        ("attach_leaf", _c1_on_the_wrong_leaf),
        ("_own", _owner_entry_dropped),
    ],
)
def test_a_mutant_build_raises_or_returns_a_network_that_displays_both_forests(
    method, mutant, monkeypatch
):
    monkeypatch.setattr(BuildState, method, mutant(getattr(BuildState, method)))
    rng = seeded_rng(2727)
    verdicts = [_judged_build(*_random_instance(rng, exact=False), monkeypatch) for _ in range(150)]
    assert "raised" in verdicts  # the mutant reaches a check on some build
