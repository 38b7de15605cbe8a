"""Pseudo-networks: blobs, leaf removal, simplification, blob excision."""

from collections import Counter

import pytest

from cherrypick.errors import (
    Disconnected,
    NotABlobEdge,
    NotPendantBlob,
    TooManyLeaves,
    TooSmall,
    TripleEdge,
    UnknownLabel,
    UnsupportedConfiguration,
)
from cherrypick.generate import seeded_rng
from cherrypick.networks import (
    PseudoNetwork,
    _suppress_degree_two,
    blobs,
    network_from_tree,
    remove_blob_edge,
    remove_network_leaf,
    remove_pendant_blob,
    reticulation_number,
    simplify,
)
from cherrypick.newick import parse_forest, parse_network
from cherrypick.oracles import displays

FOUR_CYCLE = "1 -- a\n2 -- b\n3 -- c\n4 -- d\na -- b\nb -- c\nc -- d\nd -- a\n"
TRIANGLE = "x -- a\ny -- b\nz -- c\na -- b\nb -- c\nc -- a\n"


# ---------------------------------------------------------------------------
# reticulation number


def test_reticulation_of_trees_is_zero():
    for text in ("x;", "(1,2);", "((1,2),(3,4));"):
        t = parse_forest(text).components[0]
        assert reticulation_number(t) == 0


def test_reticulation_four_cycle():
    assert reticulation_number(parse_network(FOUR_CYCLE)) == 1


def test_reticulation_double_edge():
    n = parse_network("x -- u\ny -- v\nu -- v\nu -- v\n")
    assert n.num_vertices == 4 and n.num_edges == 4
    assert reticulation_number(n) == 1


def test_reticulation_of_forests_and_other_objects():
    assert reticulation_number(parse_forest("((1,2),(3,4));")) == 0
    with pytest.raises(Disconnected, match=r"^forest with 2 components$"):
        reticulation_number(parse_forest("(1,2);\n3;"))
    for other in (None, 3, "x -- y", [(0, 1)]):
        with pytest.raises(TypeError):
            reticulation_number(other)


# ---------------------------------------------------------------------------
# the model's own checks; parse_network makes most of them first


NETWORK_FAULTS = [
    ([(0, 0), (0, 1)], {1: "a"}, ValueError, "loop at vertex 0"),
    ([(0, 1)], {}, ValueError, "a network has a non-empty leaf set"),
    ([(0, 1)], {0: "a", 1: "b c"}, ValueError, "invalid label 'b c'"),
    ([(0, 1)], {0: "a", 1: "a"}, ValueError, "duplicate label 'a'"),
    ([(0, 1)] * 3 + [(0, 2)], {2: "a"}, TripleEdge, "more than two parallel edges between 0 and 1"),
    ([(0, 1), (0, 2)], {0: "a", 1: "b", 2: "c"}, ValueError, "labeled vertex 0 has degree 2"),
]


@pytest.mark.parametrize("edges, labels, cls, message", NETWORK_FAULTS)
def test_pseudo_network_checks(edges, labels, cls, message):
    with pytest.raises(cls) as exc:
        PseudoNetwork(edges, labels)
    assert type(exc.value) is cls
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# blobs


def test_tree_has_no_blobs():
    t = parse_forest("((1,2),(3,4));").components[0]
    assert blobs(network_from_tree(t)) == []


def test_four_cycle_single_pendant_blob():
    got = blobs(parse_network(FOUR_CYCLE))
    assert len(got) == 1
    b = got[0]
    assert b.pendant and b.leaves == {"1", "2", "3", "4"}
    assert b.reticulation == 1
    assert len(b.edges) == 4


def test_triangle_blob():
    got = blobs(parse_network(TRIANGLE))
    assert len(got) == 1
    assert got[0].leaves == {"x", "y", "z"} and got[0].pendant


def test_double_edge_is_a_blob():
    n = parse_network("x -- u\ny -- v\nu -- v\nu -- v\n")
    got = blobs(n)
    assert len(got) == 1
    assert got[0].reticulation == 1
    assert len(got[0].edges) == 2


def test_two_blobs_with_bridge():
    doc = (
        "1 -- a\n2 -- b\na -- b\na -- c\nb -- c\n"
        "c -- f\n"
        "f -- d\nf -- e\nd -- e\nd -- 3\ne -- 4\n"
    )
    n = parse_network(doc)
    got = blobs(n)
    assert len(got) == 2
    assert all(b.pendant for b in got)


# ---------------------------------------------------------------------------
# leaf removal and the adjacency test


def test_remove_leaf_from_quartet_tree():
    t = network_from_tree(parse_forest("((1,2),(3,4));").components[0])
    got = remove_network_leaf(t, "1")
    assert got.is_simple
    assert got.leaf_labels == {"2", "3", "4"}


def test_remove_leaf_triangle_gives_double_edge():
    got = remove_network_leaf(parse_network(TRIANGLE), "x")
    assert not got.is_simple
    assert len(got.multi_edges()) == 1


def test_remove_leaf_four_cycle_stays_simple():
    # the two neighbours of the suppressed vertex are opposite cycle
    # corners, non-adjacent, so the result is a phylogenetic network
    got = remove_network_leaf(parse_network(FOUR_CYCLE), "1")
    assert got.is_simple
    assert reticulation_number(got) == 1


def test_remove_leaf_adjacency_criterion_everywhere():
    for doc in (FOUR_CYCLE, TRIANGLE):
        n = parse_network(doc)
        for lab in sorted(n.leaf_labels):
            x = n.vertex_of[lab]
            (u,) = n.adj[x]
            v, w = sorted(set(n.adj[u]) - {x})
            expected_simple = n.multiplicity(v, w) == 0
            got = remove_network_leaf(n, lab)
            assert got.is_simple == expected_simple


def test_remove_leaf_two_leaf_edge():
    t = network_from_tree(parse_forest("(1,2);").components[0])
    got = remove_network_leaf(t, "1")
    assert got.num_vertices == 1 and got.leaf_labels == {"2"}


def test_remove_leaf_errors():
    t = network_from_tree(parse_forest("(1,2);").components[0])
    with pytest.raises(UnknownLabel):
        remove_network_leaf(t, "9")
    single = remove_network_leaf(t, "1")
    with pytest.raises(TooSmall):
        remove_network_leaf(single, "2")


# ---------------------------------------------------------------------------
# simplification


def test_simplify_identity_on_simple():
    n = parse_network(FOUR_CYCLE)
    got = simplify(n)
    assert got.result is n and got.suppressed_count == 0


def test_simplify_double_edge_to_edge():
    n = parse_network("x -- u\ny -- v\nu -- v\nu -- v\n")
    got = simplify(n)
    assert got.suppressed_count == 1
    assert got.result.is_simple
    assert got.result.num_vertices == 2
    assert reticulation_number(n) == reticulation_number(got.result) + got.suppressed_count


def test_simplify_after_triangle_leaf_removal():
    n = remove_network_leaf(parse_network(TRIANGLE), "x")
    got = simplify(n)
    assert got.suppressed_count == 1
    assert sorted(got.result.leaf_labels) == ["y", "z"]
    assert got.result.num_vertices == 2


def test_simplify_chain_of_two():
    # double edge whose suppression creates a second double edge
    doc = (
        "u -- v\nu -- v\nu -- p\nv -- q\n"
        "p -- q\np -- 1\nq -- 2\n"
    )
    n = parse_network(doc)
    got = simplify(n)
    assert got.suppressed_count == 2
    assert got.result.is_simple
    assert reticulation_number(got.result) == reticulation_number(n) - 2


def test_simplify_rejects_single_cut_edge_blob():
    # a theta-like blob hanging off one cut edge: outside the hypothesis
    doc = (
        "u -- v\nu -- v\nu -- w\nv -- w\n"
        "w -- a\n"
        "a -- 1\na -- 2\n"
    )
    n = parse_network(doc)
    with pytest.raises(UnsupportedConfiguration):
        simplify(n)


def has_closing_chain(edges, labels):
    """Whether some cycle has at most one vertex that is labelled or of a
    degree other than two: walked both ways from one of its unlabelled
    degree-two vertices, it ends at one vertex."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    inner = {v for v, ns in adj.items() if len(ns) == 2 and v not in labels}
    for s in inner:
        ends = []
        for cur in adj[s]:
            prev = s
            while cur in inner and cur != s:
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
            ends.append(cur)
        if ends[0] == ends[1]:
            return True
    return False


def random_multigraph(rng):
    """A loop-free multigraph on at most 9 vertices, some of them
    labelled, often with paths and cycles of degree-two vertices."""
    n = rng.randint(2, 9)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
    if rng.random() < 0.5:
        ring = rng.sample(range(n), rng.randint(2, n))
        edges = edges[: rng.randint(0, 3)] + list(zip(ring, ring[1:] + ring[:1]))
    labels = {v: str(v) for v in range(n) if rng.random() < 0.3}
    return edges, labels


def test_suppress_degree_two_property():
    rng = seeded_rng(18)
    raised = 0
    for _ in range(2000):
        edges, labels = random_multigraph(rng)
        deg = Counter(v for e in edges for v in e)
        try:
            out = _suppress_degree_two(edges, labels)
        except UnsupportedConfiguration:
            raised += 1
            assert has_closing_chain(edges, labels), (edges, labels)
            continue
        assert not has_closing_chain(edges, labels), (edges, labels)
        left = Counter(v for e in out for v in e)
        assert all(d != 2 or v in labels for v, d in left.items())
        assert all(deg[v] == d for v, d in left.items())
        assert len(out) - len(left) == len(edges) - len(deg)
    assert 200 < raised < 1800  # both outcomes are well sampled


# ---------------------------------------------------------------------------
# blob edge removal


def test_remove_blob_edge_four_cycle_gives_quartet():
    n = parse_network(FOUR_CYCLE)
    a = n.adj[n.vertex_of["1"]][0]
    b = n.adj[n.vertex_of["2"]][0]
    got = remove_blob_edge(n, (a, b))
    assert got.is_simple
    assert reticulation_number(got) == 0
    # leaves 1 and 4 end up as a cherry, as do 2 and 3
    t = parse_forest("((1,4),(2,3));").components[0]
    from util import networks_isomorphic

    assert networks_isomorphic(got, network_from_tree(t))


def test_remove_blob_edge_with_resimplification():
    # deleting the p--q edge of this blob forces a double edge, then a
    # simplification pass
    doc = (
        "1 -- u\n2 -- t\n"
        "u -- v\nu -- w\nv -- t\nw -- t\nv -- w\n"
    )
    n = parse_network(doc)
    # the v--w edge is the one whose endpoints both avoid the cut vertices
    vw = None
    for e in n.edge_list:
        a, b = e
        if a not in n.labels and b not in n.labels:
            na = set(n.adj[a]) - {b}
            nb = set(n.adj[b]) - {a}
            if not (na & set(n.labels)) and not (nb & set(n.labels)):
                vw = e
    got = remove_blob_edge(n, vw)
    assert got.is_simple
    assert reticulation_number(got) < reticulation_number(n)


def test_remove_blob_edge_rejects_cut_edge():
    n = parse_network(FOUR_CYCLE)
    pend = (n.vertex_of["1"], n.adj[n.vertex_of["1"]][0])
    with pytest.raises(NotABlobEdge):
        remove_blob_edge(n, pend)


def test_remove_blob_edge_strictly_decreases_r():
    n = parse_network(FOUR_CYCLE)
    for e in blobs(n)[0].edges:
        got = remove_blob_edge(n, e)
        assert reticulation_number(got) < reticulation_number(n)


# ---------------------------------------------------------------------------
# pendant blob excision

# K4-minus-an-edge blob carrying leaf x, attached to a 3-leaf far side
ONE_LEAF_BLOB = (
    "x -- a\n"
    "a -- b\na -- d\nb -- c\nb -- d\nc -- d\n"
    "c -- u\nu -- y\nu -- z\n"
)

# 5-vertex blob (r=3) whose attachment vertex u sits on a triangle, so
# suppressing u after excision would create a double edge
ZERO_LEAF_BLOB = (
    "v -- w\nv -- w2\nw -- z\nw -- z2\nw2 -- z\nw2 -- z2\nz -- z2\n"
    "v -- u\n"
    "u -- w1\nu -- w3\nw1 -- w3\n"
    "w1 -- p\nw3 -- q\n"
)


def test_remove_pendant_blob_one_leaf():
    n = parse_network(ONE_LEAF_BLOB)
    b = next(bb for bb in blobs(n) if bb.leaves == {"x"})
    assert b.pendant and b.reticulation == 2
    got = remove_pendant_blob(n, b)
    assert got.is_simple
    assert reticulation_number(got) == reticulation_number(n) - b.reticulation
    assert got.leaf_labels == {"x", "y", "z"}


def test_remove_pendant_blob_whole_network():
    # the blob plus its single leaf is the whole network
    doc = "x -- v\nv -- w\nv -- w2\nw -- z\nw -- z2\nw2 -- z\nw2 -- z2\nz -- z2\n"
    n = parse_network(doc)
    (b,) = blobs(n)
    got = remove_pendant_blob(n, b)
    assert got.num_vertices == 1 and got.leaf_labels == {"x"}


def test_remove_pendant_blob_zero_leaves_with_fixup():
    n = parse_network(ZERO_LEAF_BLOB)
    b = next(bb for bb in blobs(n) if not bb.leaves)
    assert b.pendant and b.reticulation == 3
    got = remove_pendant_blob(n, b)
    assert got.is_simple
    # the re-subdivision gives back one cycle: r drops by r(B) - 1
    assert reticulation_number(got) == reticulation_number(n) - b.reticulation + 1
    assert reticulation_number(got) < reticulation_number(n)


def test_remove_pendant_blob_zero_leaves_clean():
    # same blob, but the attachment vertex has non-adjacent neighbours
    doc = (
        "v -- w\nv -- w2\nw -- z\nw -- z2\nw2 -- z\nw2 -- z2\nz -- z2\n"
        "v -- u\n"
        "u -- a\nu -- b\n"
        "a -- 1\na -- 2\nb -- 3\nb -- 4\n"
    )
    n = parse_network(doc)
    b = next(bb for bb in blobs(n) if not bb.leaves)
    got = remove_pendant_blob(n, b)
    assert got.is_simple
    assert reticulation_number(got) == reticulation_number(n) - b.reticulation


def test_remove_pendant_blob_too_many_leaves():
    n = parse_network(FOUR_CYCLE)
    with pytest.raises(TooManyLeaves):
        remove_pendant_blob(n, blobs(n)[0])


def test_remove_pendant_blob_stale_blob():
    n = parse_network(ONE_LEAF_BLOB)
    other = parse_network(FOUR_CYCLE)
    with pytest.raises(NotPendantBlob):
        remove_pendant_blob(n, blobs(other)[0])


def test_every_blob_has_reticulation_at_least_two_in_simple_networks():
    # cycles shorter than... any blob of a phylogenetic network that is a
    # plain cycle has r = 1, but blobs of *pseudo-network provenance* in
    # the Lemma setting satisfy r >= 2; the predicate itself is exposed
    n = parse_network(ONE_LEAF_BLOB)
    assert all(b.reticulation >= 1 for b in blobs(n))
    b = next(bb for bb in blobs(n) if bb.leaves == {"x"})
    assert b.reticulation >= 2


def test_blob_removal_preserves_displays():
    n = parse_network(ONE_LEAF_BLOB)
    f = parse_forest("(x,y);\nz;")
    f2 = parse_forest("(y,z);\nx;")
    assert displays(n, f) is not None
    assert displays(n, f2) is not None
    b = next(bb for bb in blobs(n) if bb.leaves == {"x"})
    got = remove_pendant_blob(n, b)
    assert displays(got, f) is not None
    assert displays(got, f2) is not None


def test_simplify_preserves_displays():
    # the multi-edge network displays both little forests; the simplified
    # network must still display them
    n = remove_network_leaf(parse_network(TRIANGLE), "x")
    f = parse_forest("(y,z);")
    f2 = parse_forest("y;\nz;")
    assert displays(n, f) is not None and displays(n, f2) is not None
    s = simplify(n).result
    assert displays(s, f) is not None and displays(s, f2) is not None


def _naive_blob_edge_classes(net):
    """Oracle: group edge instances that lie on a common simple cycle;
    classes with two or more instances are the blobs."""
    edges = list(net.edge_list)
    m = len(edges)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    adjlist = {}
    for idx, (u, v) in enumerate(edges):
        adjlist.setdefault(u, []).append((v, idx))
        adjlist.setdefault(v, []).append((u, idx))

    def on_common_cycle(i, j):
        a, b = edges[i]

        def dfs(v, visited, used):
            if v == b:
                return j in used
            for (w, idx) in adjlist[v]:
                if idx == i or idx in used or w in visited:
                    continue
                if dfs(w, visited | {w}, used | {idx}):
                    return True
            return False

        return dfs(a, {a}, frozenset())

    for i in range(m):
        for j in range(i + 1, m):
            if find(i) != find(j) and on_common_cycle(i, j):
                parent[find(i)] = find(j)
    classes = {}
    for i in range(m):
        classes.setdefault(find(i), []).append(i)
    return sorted(
        tuple(sorted(edges[i] for i in cls))
        for cls in classes.values()
        if len(cls) >= 2
    )


def test_blobs_match_naive_cycle_oracle():
    from cherrypick.generate import random_tree, seeded_rng

    rng = seeded_rng(20250808)
    for _ in range(40):
        n = rng.randint(3, 6)
        t = random_tree([str(i) for i in range(1, n + 1)], rng)
        edges = [list(e) for e in t.edges()]
        labels = dict(t.labels)
        nxt = max(t.adj) + 1
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(edges)), 2)
            a, b = nxt, nxt + 1
            nxt += 2
            u1, v1 = edges[i]
            u2, v2 = edges[j]
            edges[i] = [u1, a]
            edges.append([a, v1])
            edges[j] = [u2, b]
            edges.append([b, v2])
            edges.append([a, b])
        net = PseudoNetwork([tuple(e) for e in edges], labels)
        assert sorted(bb.edges for bb in blobs(net)) == _naive_blob_edge_classes(net)
    multi = parse_network("x -- u\ny -- v\nu -- v\nu -- v\n")
    assert sorted(bb.edges for bb in blobs(multi)) == _naive_blob_edge_classes(multi)
