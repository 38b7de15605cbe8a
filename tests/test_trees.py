"""Core tree and forest operations."""

import itertools
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from cherrypick import trees
from cherrypick.errors import (
    DuplicateLabel,
    EmptyRestriction,
    InvalidEdgeRef,
    NotACherry,
    UnknownLabel,
)
from cherrypick.generate import random_forest, random_forest_pair, random_tree, seeded_rng
from cherrypick.newick import parse_forest, parse_tree, serialize_forest
from cherrypick.trees import (
    EndpointEffect,
    Forest,
    PendantShape,
    PhyloTree,
    _close_end,
    canonical_form,
    pendant_of,
    pendant_shapes,
    remove_edge,
    remove_edge_traced,
    remove_leaf,
    remove_leaf_traced,
    restrict,
    subtree_edge,
    tree_remove_edge,
    tree_remove_leaf,
)

from util import all_topologies, child_env


def tree(text):
    return parse_tree(text)


# ---------------------------------------------------------------------------
# restrict


def test_restrict_drops_and_suppresses():
    t = tree("((2,4),(5,6));")
    got = restrict(t, {"2", "5", "6"})
    assert got.canonical == tree("((5,6),2);").canonical


def test_restrict_full_set_is_identity():
    t = tree("((1,2),(3,4));")
    assert restrict(t, t.leaf_labels) is t


def test_restrict_to_singleton():
    t = tree("((1,2),(3,4));")
    got = restrict(t, {"1"})
    assert got.canonical == "1;"


def test_restrict_errors():
    t = tree("((1,2),(3,4));")
    with pytest.raises(EmptyRestriction):
        restrict(t, set())
    with pytest.raises(UnknownLabel):
        restrict(t, {"1", "9"})


@given(st.integers(0, 10_000), st.integers(4, 9))
@settings(max_examples=60, deadline=None)
def test_restrict_labels_and_composition(seed, n):
    rng = seeded_rng(seed)
    t = random_tree([str(i) for i in range(1, n + 1)], rng)
    labs = sorted(t.leaf_labels)
    y = frozenset(labs[: max(2, n - 2)])
    z = frozenset(labs[: max(1, n - 4)])
    ty = restrict(t, y)
    assert ty.leaf_labels == y
    assert restrict(ty, z).canonical == restrict(t, z).canonical


# ---------------------------------------------------------------------------
# leaf and edge removal


def test_remove_leaf_matches_worked_example():
    f = parse_forest("(1,3);\n((2,4),(5,6));")
    got = remove_leaf(f, "4")
    want = parse_forest("(1,3);\n((5,6),2);")
    assert canonical_form(got) == canonical_form(want)


def test_remove_leaf_singleton_component():
    f = parse_forest("1;\n(2,3);")
    got = remove_leaf(f, "1")
    assert canonical_form(got) == canonical_form(parse_forest("(2,3);"))


def test_remove_leaf_collapses_cherry():
    f = parse_forest("(1,2);")
    got = remove_leaf(f, "1")
    assert canonical_form(got) == "2;"


def test_remove_edge_pendant_makes_isolated_vertex():
    f = parse_forest("(1,3);\n((2,4),(5,6));")
    got = remove_edge(f, pendant_of("4"))
    want = parse_forest("(1,3);\n4;\n((5,6),2);")
    assert canonical_form(got) == canonical_form(want)


def test_remove_edge_internal_split():
    f = parse_forest("((1,2),(3,4));")
    t = f.components[0]
    internal = [
        (u, v) for u, v in t.edges() if u not in t.labels and v not in t.labels
    ]
    assert len(internal) == 1
    got = remove_edge(f, subtree_edge({"1", "2"}))
    want = parse_forest("(1,2);\n(3,4);")
    assert canonical_form(got) == canonical_form(want)


def test_remove_edge_isolated_edge_gives_two_singletons():
    f = parse_forest("(1,2);")
    got = remove_edge(f, pendant_of("1"))
    assert canonical_form(got) == canonical_form(parse_forest("1;\n2;"))


def test_leaf_drop_is_the_pendant_cut_then_deleting_the_isolated_leaf():
    # dropping x removes one edge, as a cut does: the tree left is the
    # cut's side without x, and the record's far end is the cut's other end
    trees = [t for n in range(1, 8) for t in all_topologies([str(i) for i in range(n)])]
    assert [t.num_vertices for t in trees[:2]] == [1, 2]
    for t in trees:
        for x, xv in t.vertex_of.items():
            pruned, rec = tree_remove_leaf(t, x)
            assert rec.leaf_vertex == xv
            if t.num_vertices == 1:
                assert pruned is None and rec.far is None
                continue
            sides, cut = tree_remove_edge(t, t.pendant_edge(x))
            (rest,) = [side for side in sides if xv not in side.adj]
            (far,) = [eff for eff in cut.effects if eff.vertex != xv]
            assert (pruned.adj, pruned.labels, pruned.vertex_of) == (
                rest.adj,
                rest.labels,
                rest.vertex_of,
            )
            assert rec.far == far is not None


def test_remove_edge_bad_selector():
    f = parse_forest("1;\n(2,3);")
    with pytest.raises(InvalidEdgeRef):
        remove_edge(f, pendant_of("1"))  # isolated vertex has no pendant edge
    with pytest.raises(InvalidEdgeRef):
        remove_edge(f, subtree_edge({"2", "3"}))  # whole component, not proper


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_remove_edge_keeps_ground_set_and_adds_component(seed):
    rng = seeded_rng(seed)
    f = random_forest([str(i) for i in range(1, 8)], rng.randint(1, 3), rng)
    with_edges = [
        (i, e) for i, t in enumerate(f.components) for e in t.edges()
    ]
    if not with_edges:
        return
    idx, edge = with_edges[rng.randrange(len(with_edges))]
    from cherrypick.trees import remove_edge_traced

    got, _ = remove_edge_traced(f, idx, edge)
    assert got.ground_set == f.ground_set
    assert len(got.components) == len(f.components) + 1


# ---------------------------------------------------------------------------
# tree validation

# a path a - b - c on vertices 0 - 1 - 2
_PATH = {0: [1], 1: [0, 2], 2: [1]}
_TRIANGLE = {0: [1, 2], 1: [0, 2], 2: [0, 1]}


@pytest.mark.parametrize(
    "adj, labels, exc, message",
    [
        ({}, {}, ValueError, "a tree has at least one vertex"),
        ({0: []}, {0: "a", 1: "b"}, ValueError, "labeled vertex 1 not in the tree"),
        ({0: []}, {0: ""}, ValueError, "invalid label ''"),
        ({0: []}, {0: "a;b"}, ValueError, "invalid label 'a;b'"),
        ({0: [1], 1: [0]}, {0: "a", 1: "a"}, DuplicateLabel, "duplicate label 'a'"),
        ({0: []}, {}, ValueError, "a tree has at least one labeled vertex"),
        ({0: [0]}, {0: "a"}, ValueError, "loop at vertex 0"),
        ({0: [1], 1: []}, {0: "a", 1: "b"}, ValueError, "asymmetric adjacency"),
        (_TRIANGLE, {0: "a"}, ValueError, "not a tree: 3 vertices, 3 edges"),
        ({**_TRIANGLE, 3: []}, {3: "a"}, ValueError, "tree is disconnected"),
        (_PATH, {0: "a", 1: "b", 2: "c"}, ValueError, "labeled vertex 1 has degree > 1"),
        (_PATH, {0: "a", 2: "c"}, ValueError, "internal vertex 1 has degree 2"),
        # two faults each: the check that runs first names its fault
        ({0: [1], 1: [0]}, {0: "a", 1: "a", 5: "b"}, DuplicateLabel, "duplicate label 'a'"),
        ({0: [1], 1: [0]}, {0: "a b", 1: "a b"}, ValueError, "invalid label 'a b'"),
        ({0: []}, {0: "a", 5: ""}, ValueError, "labeled vertex 5 not in the tree"),
        ({0: [0, 1], 1: [0]}, {0: "a", 1: "b"}, ValueError, "loop at vertex 0"),
        ({**_PATH, 3: []}, {0: "a", 1: "b", 3: "d"}, ValueError, "not a tree: 4 vertices, 2 edges"),
    ],
)
def test_validate_names_the_first_fault(adj, labels, exc, message):
    with pytest.raises(exc) as info:
        PhyloTree(adj, labels)
    assert type(info.value) is exc
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# cherries


def test_surgery_leaves_the_parent_unchanged():
    # surgery shares the parent's untouched adjacency sets, so it must
    # never modify them; every child is a valid tree on its own
    rng = seeded_rng(2323)
    for n in (1, 2, 3, 4, 7, 12, 20):
        t = random_tree([str(i) for i in range(n)], rng)
        adj = {v: set(ns) for v, ns in t.adj.items()}
        canon = t.canonical
        children = [tree_remove_leaf(t, lab)[0] for lab in sorted(t.leaf_labels)]
        for edge in t.edges():
            children.extend(tree_remove_edge(t, edge)[0])
        assert {v: set(ns) for v, ns in t.adj.items()} == adj
        assert t.canonical == canon  # rendered afresh on each read
        for child in children:
            if child is not None:
                PhyloTree(child.adj, child.labels)  # runs _validate afresh


@pytest.mark.parametrize("n", range(1, 9))
def test_cherries_are_the_leaf_pairs_with_a_common_neighbour(n):
    # by definition, on every tree with up to 8 leaves: two leaves form a
    # cherry when they share their one neighbour or are the whole tree;
    # each label's cherry partners are its pairs there
    for t in all_topologies([str(i) for i in range(n)]):
        leaves = sorted(t.vertex_of.items())
        want = [
            (a, b)
            for (a, u), (b, v) in itertools.combinations(leaves, 2)
            if t.adj[u] == t.adj[v] or t.adj[u] == {v}
        ]
        assert t.cherries() == want
        for lab in t.vertex_of:
            partners = sorted(b if a == lab else a for a, b in want if lab in (a, b))
            assert t.cherry_partners(lab) == partners


def test_cherries_quartet():
    f = parse_forest("((1,2),(3,4));")
    assert f.cherries() == [("1", "2"), ("3", "4")]


def test_cherries_isolated_edge():
    f = parse_forest("(1,2);")
    assert f.cherries() == [("1", "2")]


def test_cherries_three_leaf_star_all_pairs():
    f = parse_forest("(1,(2,3));")
    assert f.cherries() == [("1", "2"), ("1", "3"), ("2", "3")]


def test_cherries_nonempty_when_some_component_large():
    rng = seeded_rng(5)
    for _ in range(50):
        f = random_forest([str(i) for i in range(1, 9)], rng.randint(1, 3), rng)
        if any(t.num_vertices >= 2 for t in f.components):
            assert f.cherries()


# ---------------------------------------------------------------------------
# pendant shapes


def test_shape_quartet_is_xypq_and_two_proper_xyp():
    t = tree("((1,2),(3,4));")
    shapes = pendant_shapes(t, ("1", "2"))
    kinds = sorted((s.kind, s.p, s.q, s.proper) for s in shapes)
    assert kinds == [
        ("xyp", "3", None, True),
        ("xyp", "4", None, True),
        ("xypq", "3", "4", False),
    ]


def test_shape_three_leaf_tree():
    t = tree("(3,(1,2));")
    shapes = pendant_shapes(t, ("1", "2"))
    assert len(shapes) == 1
    assert shapes[0].kind == "xyp" and shapes[0].p == "3" and not shapes[0].proper


def test_shape_proper_pendant_in_larger_tree():
    t = tree("((3,4),(1,(2,(5,6))));")
    shapes = pendant_shapes(t, ("5", "6"))
    assert [(s.kind, s.p, s.proper) for s in shapes] == [("xyp", "2", True)]
    # the shape's own cut-edge detaches exactly the leaves {2,5,6}
    s = shapes[0]
    u, v = s.cut_edge
    assert t.side_leaves(s.cut_edge, u) in ({"2", "5", "6"}, t.leaf_labels - {"2", "5", "6"})


def test_shape_xypq_proper():
    t = tree("((1,2),((3,4),(5,6)));")
    shapes = pendant_shapes(t, ("1", "2"))
    got = sorted((s.kind, s.p, s.q, s.proper) for s in shapes)
    assert got == [("xypq", "3", "4", True), ("xypq", "5", "6", True)]


def test_shape_two_leaf_component_has_none():
    t = tree("(1,2);")
    assert pendant_shapes(t, ("1", "2")) == []


def _proper_shapes_by_definition(t, x, y):
    """The pendant subtrees ((x,y),p) and ((x,y),(p,q)) read off the
    sides of every edge: a side {x,y,p}, or a side {x,y,p,q} where {p,q}
    is itself a side."""
    cut_of = {t.side_leaves((u, v), end): (u, v) for u, v in t.edges() for end in (u, v)}
    out = set()
    for side, cut in cut_of.items():
        if {x, y} < side and len(side) <= 4:
            rest = sorted(side - {x, y})
            if len(rest) == 1:
                (p,) = rest
                out.add(PendantShape("xyp", p, proper=True, e_p=t.pendant_edge(p), cut_edge=cut))
            elif frozenset(rest) in cut_of:
                p, q = rest
                out.add(
                    PendantShape(
                        "xypq",
                        p,
                        q=q,
                        proper=True,
                        e_p=t.pendant_edge(p),
                        e_q=t.pendant_edge(q),
                        e_pq=cut_of[frozenset(rest)],
                        cut_edge=cut,
                    )
                )
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_proper_shapes_are_the_pendant_subtrees(n):
    for t in all_topologies([str(i) for i in range(1, n + 1)]):
        for cherry in t.cherries():
            for x, y in (cherry, cherry[::-1]):
                got = {s for s in pendant_shapes(t, (x, y)) if s.proper}
                assert got == _proper_shapes_by_definition(t, x, y), (t, x, y)


def test_shape_requires_cherry():
    t = tree("((1,2),(3,4));")
    for cherry in (("1", "3"), ("1", "9"), ("9", "1")):
        with pytest.raises(NotACherry):
            pendant_shapes(t, cherry)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_ignores_rotation():
    a = parse_forest("((1,2),(3,4));")
    b = parse_forest("((4,3),(2,1));")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_distinguishes_attachments():
    a = parse_forest("(1,2);\n3;")
    b = parse_forest("(1,3);\n2;")
    assert canonical_form(a) != canonical_form(b)


def test_canonical_separates_all_five_leaf_topologies():
    canons = {Forest([t]).canonical for t in all_topologies("12345")}
    assert len(canons) == 15


def test_canonical_of_an_unchecked_tree_with_a_cycle_ends():
    # a surgery tree is never validated, and surgery's tests render a
    # faulty one to compare it with restrict; rendering one whose three
    # internal vertices form a triangle must end with a ValueError that
    # names the cycle, not grow its walk without bound, so it runs in a
    # child process under a memory cap
    code = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from cherrypick.trees import PhyloTree
        adj = {0: {1, 2, 3}, 1: {0, 2, 4}, 2: {0, 1, 5}, 3: {0}, 4: {1}, 5: {2}}
        tree = PhyloTree._trusted(
            {v: frozenset(ns) for v, ns in adj.items()},
            {3: "a", 4: "b", 5: "c"},
            {"a": 3, "b": 4, "c": 5},
        )
        try:
            repr(tree)
        except MemoryError:
            raise
        except Exception as exc:
            print(type(exc).__name__, exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("ValueError cycle through the edge"), proc.stdout


def test_forest_ignores_component_order():
    f = parse_forest("((1,2),(3,4));\n(5,6);\n7;")
    for perm in itertools.permutations(f.components):
        g = Forest(perm)
        assert g.components == perm
        assert g == f and hash(g) == hash(f)
        assert g.canonical == f.canonical and repr(g) == repr(f)
        assert serialize_forest(g) == serialize_forest(f)


def test_forest_rejects_a_label_in_two_components():
    # the parser rejects duplicates first, so build the trees one by one;
    # "7" (components 1 and 2) is named before "5" (components 0 and 3)
    comps = [tree("(5,6);"), tree("(7,8);"), tree("(9,7);"), tree("(1,5);")]
    with pytest.raises(DuplicateLabel, match=r"^label '7' in two components$"):
        Forest(comps)
    with pytest.raises(DuplicateLabel, match=r"^label '3' in two components$"):
        Forest([tree("((1,2),(3,4));"), tree("3;")])


def test_forest_lookups_of_a_missing_label():
    f = parse_forest("((1,2),(3,4));\n5;")
    with pytest.raises(UnknownLabel, match=r"^no leaf '9' in this forest$"):
        f.component_index("9")
    assert f.cherry_partners("9") == []
    assert not f.has_cherry(("9", "1"))


def test_forest_lookups_find_the_tree_holding_each_label():
    rng = seeded_rng(2525)
    for k in range(1, 13):
        for _ in range(4):
            labels = [str(i) for i in range(1, rng.randint(k, 16) + 1)]
            f = random_forest(labels, k, rng)
            assert len(f.components) == k
            assert f.ground_set == frozenset(labels)
            for lab in labels:
                i = f.component_index(lab)
                t = f.components[i]
                assert lab in t.vertex_of
                assert f.is_singleton(lab) == (t.num_vertices == 1)
                want = sorted(
                    b if a == lab else a for a, b in t.cherries() if lab in (a, b)
                )
                assert f.cherry_partners(lab) == want


def test_canonical_equal_iff_isomorphic():
    # rebuilding a tree with shuffled vertex ids leaves the canonical form alone
    rng = seeded_rng(31)
    for _ in range(25):
        t = random_tree([str(i) for i in range(1, 9)], rng)
        perm = {v: i + 1000 for i, v in enumerate(sorted(t.adj))}
        from cherrypick.trees import PhyloTree

        shuffled = PhyloTree(
            {perm[v]: {perm[w] for w in ns} for v, ns in t.adj.items()},
            {perm[v]: lab for v, lab in t.labels.items()},
        )
        assert shuffled.canonical == t.canonical


def test_remove_then_reattach_round_trip():
    # pruning a cherry leaf and grafting it back next to its partner is
    # the identity up to isomorphism
    rng = seeded_rng(67)
    from cherrypick.trees import PhyloTree

    for _ in range(25):
        t = random_tree([str(i) for i in range(1, 8)], rng)
        cherries = t.cherries()
        if not cherries:
            continue
        x, y = cherries[0]
        pruned, _ = tree_remove_leaf(t, x)
        adj = {v: set(ns) for v, ns in pruned.adj.items()}
        labels = dict(pruned.labels)
        yv = pruned.vertex_of[y]
        if pruned.num_vertices == 1:
            nid = yv + 1
            adj[yv] = {nid}
            adj[nid] = {yv}
            labels[nid] = x
        else:
            (nbr,) = adj[yv]
            mid, leaf = max(adj) + 1, max(adj) + 2
            adj[yv] = {mid}
            adj[nbr] = adj[nbr] - {yv} | {mid}
            adj[mid] = {yv, nbr, leaf}
            adj[leaf] = {mid}
            labels[leaf] = x
        again = PhyloTree(adj, labels)
        assert again.canonical == t.canonical


def test_check_validates_a_surgery_tree_and_its_leaf_index():
    # surgery patches the leaf index from the parent instead of rebuilding
    # it; _validate() runs the full validation and returns the index the
    # labels define, which must be the patched one
    rng = seeded_rng(2424)
    for n in (2, 3, 4, 7, 12):
        t = random_tree([str(i) for i in range(n)], rng)
        children = [tree_remove_leaf(t, lab)[0] for lab in sorted(t.leaf_labels)]
        for edge in t.edges():
            children.extend(tree_remove_edge(t, edge)[0])
        for child in children:
            if child is not None:
                assert child._validate() == child.vertex_of
    child, _ = tree_remove_leaf(parse_tree("((1,2),(3,4));"), "1")
    index = dict(child.vertex_of, **{"2": child.vertex_of["3"]})
    assert PhyloTree._trusted(dict(child.adj), dict(child.labels), index)._validate() != index


# ---------------------------------------------------------------------------
# surgery against restrict
#
# Surgery builds its trees with ``PhyloTree._trusted`` and nothing
# validates them later, so these tests are its guard: every child of every
# leaf drop and edge cut must pass the public constructor afresh and be
# the parent restricted to the child's labels.  ``restrict`` builds its
# trees through that constructor and shares no code with surgery.


def _surgery_inputs():
    """Every tree up to six leaves, then seeded trees and forests of 1-4
    components with up to 60 leaves."""
    out = [Forest([t]) for n in range(1, 7) for t in all_topologies([str(i) for i in range(n)])]
    rng = seeded_rng(3131)
    for n in (8, 13, 21, 34, 47, 60):
        labels = [str(i) for i in range(n)]
        out.append(Forest([random_tree(labels, rng)]))
        out.append(random_forest(labels, rng.randint(2, 4), rng))
    return out


def _check_every_surgery(forests):
    """Drop every leaf and cut every edge of each forest, and judge the
    trees each surgery leaves against ``restrict``; returns the number of
    surgeries."""
    count = 0
    for forest in forests:
        for i, parent in enumerate(forest.components):
            others = forest.components[:i] + forest.components[i + 1:]
            for removed in sorted(parent.vertex_of) + parent.edges():
                if isinstance(removed, tuple):
                    got = remove_edge_traced(forest, i, removed)[0]
                    want = [parent.side_leaves(removed, end) for end in removed]
                else:
                    got = remove_leaf_traced(forest, removed)[0]
                    want = [parent.leaf_labels - {removed}] if parent.num_vertices > 1 else []
                children = got.components[i:i + len(want)]
                assert got.components[:i] + got.components[i + len(want):] == others
                for child in children:
                    # raises what _validate raises on an invalid child
                    fresh = PhyloTree(child.adj, child.labels)
                    assert fresh.vertex_of == child.vertex_of, "leaf index does not match the labels"
                assert [child.leaf_labels for child in children] == want
                for child in children:
                    expected = restrict(parent, child.leaf_labels).canonical
                    assert child.canonical == expected, "not the parent restricted to its labels"
                count += 1
    return count


def test_every_drop_and_cut_leaves_the_restriction_to_its_labels():
    assert _check_every_surgery(_surgery_inputs()) > 2500


# faults ported from the replay tests: each corrupts every tree a surgery
# function returns and gives the message of the whole pass


def asymmetric(adj, labels):
    v = min(u for u, ns in adj.items() if ns)
    adj[v] = adj[v] - {min(adj[v])}
    return "asymmetric adjacency"


def dropped_vertex(adj, labels):
    v = min(labels)
    for w in adj.pop(v):
        adj[w] = adj[w] - {v}
    return "labeled vertex %r not in the tree" % (v,)


def degree_two(adj, labels):
    u, v = min((u, v) for u, ns in adj.items() for v in ns if u < v)
    z = max(adj) + 1
    adj[u], adj[v], adj[z] = adj[u] - {v} | {z}, adj[v] - {u} | {z}, frozenset((u, v))
    return "internal vertex %r has degree 2" % (z,)


@pytest.mark.parametrize("surgery", ["tree_remove_leaf", "tree_remove_edge"])
@pytest.mark.parametrize("corrupt", [asymmetric, dropped_vertex, degree_two])
def test_corrupted_surgery_fails_the_restrict_check(surgery, corrupt, monkeypatch):
    _assert_corruption_fails_restrict(_surgery_inputs(), surgery, corrupt, monkeypatch)


@pytest.mark.parametrize("surgery", ["tree_remove_leaf", "tree_remove_edge"])
@pytest.mark.parametrize("corrupt", [asymmetric, dropped_vertex, degree_two])
def test_corruption_on_30_leaves_fails_restrict(surgery, corrupt, monkeypatch):
    # a seeded pair of 30-leaf forests, parsed from text so that every
    # parent tree comes through the public constructor
    rng = seeded_rng(3030)
    pair = random_forest_pair([str(i) for i in range(30)], rng.randint(1, 3), rng)
    inputs = [parse_forest(serialize_forest(forest)) for forest in pair]
    _assert_corruption_fails_restrict(inputs, surgery, corrupt, monkeypatch)


def _assert_corruption_fails_restrict(inputs, surgery, corrupt, monkeypatch):
    """Corrupt every tree `surgery` returns; the check of every surgery on
    `inputs` must fail at the first one with the whole pass's message."""
    real = getattr(trees, surgery)
    faults = []

    def spoil(tree):
        if tree is None or tree.num_vertices < 2:
            return tree
        adj, labels = dict(tree.adj), dict(tree.labels)
        faults.append(corrupt(adj, labels))
        return PhyloTree._trusted(adj, labels, {lab: v for v, lab in labels.items()})

    def corrupted(tree, removed):
        out, record = real(tree, removed)
        return (tuple(map(spoil, out)) if isinstance(out, tuple) else spoil(out)), record

    monkeypatch.setattr(trees, surgery, corrupted)
    with pytest.raises(ValueError) as exc:
        _check_every_surgery(inputs)
    assert str(exc.value) == faults[0]


def _stale_neighbour(adj, labels, z, gone):
    """``_close_end`` with one slip: the second end of the merged edge
    keeps listing the suppressed vertex."""
    if z in labels:
        adj[z] = adj[z] - {gone}
        return EndpointEffect(z, "leaf", label=labels[z])
    n1, n2 = sorted(adj.pop(z) - {gone})
    adj[n1] = adj[n1] - {z} | {n2}
    adj[n2] = adj[n2] | {n1}
    return EndpointEffect(z, "suppressed", merged_edge=(n1, n2))


def _swap_across_merged_edge(adj, labels, z, gone):
    """``_close_end`` followed by an interchange across the merged edge
    when both its ends are internal: the tree stays valid, but it is not
    the one the step leaves."""
    effect = _close_end(adj, labels, z, gone)
    if effect.kind == "suppressed" and not labels.keys() & effect.merged_edge:
        n1, n2 = effect.merged_edge
        a, c = min(adj[n1] - {n2}), min(adj[n2] - {n1})
        adj[n1], adj[n2] = adj[n1] - {a} | {c}, adj[n2] - {c} | {a}
        adj[a], adj[c] = adj[a] - {n1} | {n2}, adj[c] - {n2} | {n1}
    return effect


@pytest.mark.parametrize(
    "mutant, error, message",
    [
        # an invalid tree: the fresh constructor names the fault
        (_stale_neighbour, ValueError, "^asymmetric adjacency$"),
        # a valid tree that is not the step's result: only restrict tells
        (_swap_across_merged_edge, AssertionError, "^not the parent restricted to its labels"),
    ],
    ids=["stale_neighbour", "swap_across_merged_edge"],
)
def test_close_end_mutant_fails_the_restrict_check(mutant, error, message, monkeypatch):
    inputs = _surgery_inputs()
    monkeypatch.setattr(trees, "_close_end", mutant)
    with pytest.raises(error, match=message):
        _check_every_surgery(inputs)
