"""Core tree and forest operations."""

import itertools
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from cherrypick.errors import (
    DuplicateLabel,
    EmptyRestriction,
    InvalidEdgeRef,
    NotACherry,
    UnknownLabel,
)
from cherrypick.generate import random_forest, random_tree, seeded_rng
from cherrypick.newick import parse_forest, parse_tree, serialize_forest
from cherrypick.trees import (
    Forest,
    PendantShape,
    PhyloTree,
    canonical_form,
    pendant_of,
    pendant_shapes,
    remove_edge,
    remove_leaf,
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
    # a surgery tree stays unchecked until check(); rendering one whose
    # three internal vertices form a triangle must end with a ValueError
    # that names the cycle, not grow its walk without bound, so it runs
    # in a child process under a memory cap
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
    # it; check() runs the full validation and compares the index too
    rng = seeded_rng(2424)
    for n in (2, 3, 4, 7, 12):
        t = random_tree([str(i) for i in range(n)], rng)
        children = [tree_remove_leaf(t, lab)[0] for lab in sorted(t.leaf_labels)]
        for edge in t.edges():
            children.extend(tree_remove_edge(t, edge)[0])
        for child in children:
            if child is not None:
                child.check()
    child, _ = tree_remove_leaf(parse_tree("((1,2),(3,4));"), "1")
    index = dict(child.vertex_of, **{"2": child.vertex_of["3"]})
    with pytest.raises(ValueError, match="leaf index does not match the labels"):
        PhyloTree._trusted(dict(child.adj), dict(child.labels), index).check()


# ---------------------------------------------------------------------------
# the step certificate check_surgery tries on surgery children before the
# whole pass
#
# Each corruption changes one thing in a copy of a child's dicts (the copy
# keeps the shared frozensets); it returns False where it does not apply.


def _drop_half_edge(rng, parent, adj, labels, vertex_of):
    v = rng.choice([v for v, ns in adj.items() if ns] or [None])
    if v is None:
        return False
    adj[v] = adj[v] - {rng.choice(list(adj[v]))}
    return True


def _add_edge(rng, parent, adj, labels, vertex_of, both_halves):
    if not adj:
        return False
    v = rng.choice(list(adj))
    # the far end may be v itself or a vertex the child lost
    far = sorted((adj.keys() | parent.adj.keys()) - adj[v])
    if not far:
        return False
    w = rng.choice(far)
    adj[v] = adj[v] | {w}
    if both_halves and w in adj:
        adj[w] = adj[w] | {v}
    return True


def _add_one_sided_edge(rng, parent, adj, labels, vertex_of):
    return _add_edge(rng, parent, adj, labels, vertex_of, False)


def _add_symmetric_edge(rng, parent, adj, labels, vertex_of):
    return _add_edge(rng, parent, adj, labels, vertex_of, True)


def _delete_vertex(rng, parent, adj, labels, vertex_of):
    if not adj:
        return False
    v = rng.choice(list(adj))
    ns = adj.pop(v)
    if rng.random() < 0.5:
        for w in ns:
            if w in adj:
                adj[w] = adj[w] - {v}
    return True


def _drop_label(rng, parent, adj, labels, vertex_of):
    if not labels:
        return False
    lab = labels.pop(rng.choice(list(labels)))
    if rng.random() < 0.5:
        vertex_of.pop(lab, None)
    return True


def _retarget_vertex_of(rng, parent, adj, labels, vertex_of):
    if not vertex_of:
        return False
    lab = rng.choice(list(vertex_of))
    if rng.random() < 0.5:
        vertex_of[lab] = rng.choice(sorted(parent.adj.keys() - {vertex_of[lab]}) or [None])
    else:
        # swap the entry for one of the parent's, maybe a label the child lost
        del vertex_of[lab]
        lab = rng.choice(sorted(parent.vertex_of))
        vertex_of[lab] = parent.vertex_of[lab]
    return True


def _rename_label(rng, parent, adj, labels, vertex_of):
    if not labels:
        return False
    v = rng.choice(list(labels))
    old = labels[v]
    # a fresh name, a name the child lost, or a name it still has
    names = sorted((set(parent.vertex_of) | {"fresh"}) - {old})
    labels[v] = new = rng.choice(names)
    if rng.random() < 0.5:
        vertex_of.pop(old, None)
        vertex_of[new] = v
    return True


def _swap_neighbour(rng, parent, adj, labels, vertex_of):
    # v - a and w - b become v - b and w - a: every degree stays
    vs = [v for v, ns in adj.items() if ns]
    if len(vs) < 2:
        return False
    v, w = rng.sample(vs, 2)
    a, b = rng.choice(list(adj[v])), rng.choice(list(adj[w]))
    if a == b or a in adj[w] or b in adj[v] or w == a or v == b:
        return False
    adj[v] = adj[v] - {a} | {b}
    adj[w] = adj[w] - {b} | {a}
    if rng.random() < 0.5 and a in adj and b in adj:
        # keep it symmetric too
        adj[a] = adj[a] - {v} | {w}
        adj[b] = adj[b] - {w} | {v}
    return True


def _restore_lost_vertex(rng, parent, adj, labels, vertex_of):
    lost = sorted(parent.adj.keys() - adj.keys())
    if not lost:
        return False
    r = rng.choice(lost)
    mode = rng.randrange(3)
    if mode < 2:
        adj[r] = parent.adj[r]
    if r in parent.labels and mode > 0:
        # with the vertex, or only its label in place of one the child has
        labels[r] = parent.labels[r]
        vertex_of[parent.labels[r]] = r
        others = [v for v in labels if v != r]
        if mode == 2 and others:
            vertex_of.pop(labels.pop(rng.choice(others)), None)
    return True


def _subdivide_edge(rng, parent, adj, labels, vertex_of):
    # a new vertex of degree two, as surgery that forgets to suppress leaves
    edges = [(u, v) for u, ns in adj.items() for v in ns if v in adj and u in adj[v]]
    if not edges:
        return False
    u, v = rng.choice(edges)
    z = max(parent.adj.keys() | adj.keys()) + 1
    adj[u], adj[v], adj[z] = adj[u] - {v} | {z}, adj[v] - {u} | {z}, frozenset((u, v))
    if rng.random() < 0.5:
        # or one of degree three, with a new unlabelled leaf
        adj[z], adj[z + 1] = adj[z] | {z + 1}, frozenset((z,))
    return True


def _move_edge_end(rng, parent, adj, labels, vertex_of):
    # v - a becomes v - b: the degree sum stays, a's and b's degrees do not
    v = rng.choice(list(adj) or [None])
    if not adj.get(v):
        return False
    a = rng.choice(list(adj[v]))
    b = rng.choice(list(adj))
    if b in adj[v] or b == v:
        return False
    adj[v] = adj[v] - {a} | {b}
    if a in adj:
        adj[a] = adj[a] - {v}
    adj[b] = adj[b] | {v}
    return True


def _rewrite_lists(rng, parent, adj, labels, vertex_of):
    # one to three vertices list up to three vertices of the child or the
    # parent, chosen at random: one-sided edges of any shape
    if not adj:
        return False
    universe = sorted(parent.adj.keys() | adj.keys())
    for v in rng.sample(sorted(adj), min(len(adj), rng.randint(1, 3))):
        adj[v] = frozenset(rng.sample(universe, rng.randint(0, min(3, len(universe)))))
    return True


CORRUPTIONS = [
    _drop_half_edge,
    _add_one_sided_edge,
    _add_symmetric_edge,
    _delete_vertex,
    _drop_label,
    _retarget_vertex_of,
    _rename_label,
    _swap_neighbour,
    _restore_lost_vertex,
    _subdivide_edge,
    _move_edge_end,
    _rewrite_lists,
]


def _whole_pass_accepts(tree):
    try:
        return tree._validate() == tree.vertex_of
    except (ValueError, DuplicateLabel):
        return False


def _surgery_children(tree, rng, k):
    """k random surgeries on a tree, leaf drops and cuts: for each, what
    it removed (a leaf label or an edge) and the trees it left."""
    ops = [("leaf", lab) for lab in tree.vertex_of] + [("edge", e) for e in tree.edges()]
    out = []
    for kind, arg in rng.sample(ops, min(k, len(ops))):
        if kind == "leaf":
            children = [tree_remove_leaf(tree, arg)[0]]
        else:
            children = list(tree_remove_edge(tree, arg)[0])
        out.append((arg, [child for child in children if child is not None]))
    return out


def _regroup_sides(rng, sides):
    """A cut's two trees with every entry kept but regrouped: one vertex,
    with its label, moved to the other side; the sides swapped; or all
    of it on one side and nothing on the other."""
    parts = [(dict(t.adj), dict(t.labels), dict(t.vertex_of)) for t in sides]
    i = rng.randrange(2)
    src, dst = parts[i], parts[1 - i]
    mode = rng.randrange(3)
    if mode == 0:
        v = rng.choice(sorted(src[0]))
        dst[0][v] = src[0].pop(v)
        if v in src[1]:
            lab = dst[1][v] = src[1].pop(v)
            dst[2][lab] = src[2].pop(lab)
    elif mode == 1:
        parts.reverse()
    else:
        for d, s in zip(dst, src):
            d.update(s)
            s.clear()
    return [PhyloTree._trusted(*part) for part in parts]


def _judge(parent, removed, children, trees, corrupts):
    """Pass `trees`, corrupted by `corrupts`, in place of the `children`
    the removal left: if certified, the whole pass must accept each of
    them and they must equal those children."""
    if parent._step_certified(removed, trees):
        # (no tree in the message: a cyclic one has no canonical form)
        dicts = [(t.adj, t.labels, t.vertex_of) for t in trees]
        assert all(map(_whole_pass_accepts, trees)), (corrupts, dicts)
        assert dicts == [(t.adj, t.labels, t.vertex_of) for t in children], (corrupts, dicts)


def _certificate_candidates(seeds, surgeries=4):
    """Judge the step certificate on corrupted surgery children of seeded
    trees with 2-40 leaves, walked 1-5 surgery steps deep, each passed
    with the removal that made it beside its untouched siblings, and on
    the regrouped sides of each cut; returns the number of corrupted
    candidates.  Every uncorrupted result must be certified, and no
    candidate may be certified that the whole pass rejects or that
    differs from the trees surgery built."""
    candidates = 0
    for seed in seeds:
        rng = seeded_rng(seed)
        parent = random_tree([str(i) for i in range(rng.randint(2, 40))], rng)
        for _ in range(rng.randint(1, 5)):
            results = _surgery_children(parent, rng, surgeries)
            picks = [(removed, children, i) for removed, children in results for i in range(len(children))]
            if not picks:
                break
            for removed, children in results:
                assert parent._step_certified(removed, children)
            for removed, children, i in picks:
                child = children[i]
                # each corruption alone, then random pairs of them
                for corrupts in [(c,) for c in CORRUPTIONS] + [
                    tuple(rng.choices(CORRUPTIONS, k=2)) for _ in CORRUPTIONS
                ]:
                    adj, labels, vertex_of = dict(child.adj), dict(child.labels), dict(child.vertex_of)
                    if not all([c(rng, parent, adj, labels, vertex_of) for c in corrupts]):
                        continue
                    candidates += 1
                    tree = PhyloTree._trusted(adj, labels, vertex_of)
                    _judge(parent, removed, children, children[:i] + [tree] + children[i + 1:], corrupts)
            for removed, children in results:
                if isinstance(removed, tuple):
                    for _ in range(4):
                        candidates += 1
                        _judge(parent, removed, children, _regroup_sides(rng, children), "regrouped")
            removed, children, _ = rng.choice(picks)
            parent.check_surgery(removed, children)
            parent = rng.choice(children)
    return candidates


def test_certificate_accepts_only_what_the_whole_pass_accepts():
    assert _certificate_candidates(range(250)) >= 20_000


@pytest.mark.slow
def test_certificate_accepts_only_what_the_whole_pass_accepts_at_scale():
    assert _certificate_candidates(range(250, 1250)) >= 60_000


def _hand_made_child(parent_adj, parent_labels, lost, changed):
    """A parent tree and a child that keeps the parent's frozensets except
    at the `changed` vertices and drops the `lost` ones with their labels."""
    parent = PhyloTree(parent_adj, parent_labels)
    adj = {v: ns for v, ns in parent.adj.items() if v not in lost}
    adj.update((v, frozenset(ns)) for v, ns in changed.items())
    labels = {v: lab for v, lab in parent.labels.items() if v not in lost}
    vertex_of = {lab: v for v, lab in labels.items()}
    return parent, PhyloTree._trusted(adj, labels, vertex_of)


@pytest.mark.parametrize(
    "parent_adj, parent_labels, lost, changed, message, removed",
    [
        # dropping l1 suppresses 10; p (13) and q (11) still meet through
        # m (12): the one new edge (p, q) closes a cycle, and leaf 0 is
        # left alone
        (
            {0: [10], 1: [10], 2: [13], 3: [11], 4: [12], 5: [13],
             10: [0, 1, 11], 11: [10, 12, 3], 12: [11, 13, 4], 13: [12, 2, 5]},
            {i: "l%d" % i for i in range(6)},
            {1, 2, 10},
            {0: [], 13: [12, 5, 11], 11: [12, 3, 13]},
            "tree is disconnected",
            "l1",
        ),
        # dropping l0: a loop at 10 in place of its lost leaf, and leaf 1
        # left alone while 11 still lists it
        (
            {0: [10], 1: [11], 2: [10], 3: [11], 10: [0, 11, 2], 11: [10, 1, 3]},
            {i: "l%d" % i for i in range(4)},
            {0},
            {10: [10, 11, 2], 1: []},
            "loop at vertex 10",
            "l0",
        ),
    ],
)
def test_certificate_rejects_what_only_its_cycle_guards_catch(
    parent_adj, parent_labels, lost, changed, message, removed
):
    # every count and degree fits in both children; only a test that
    # sees the cycle tells them from a tree
    parent, child = _hand_made_child(parent_adj, parent_labels, lost, changed)
    assert not parent._step_certified(removed, [child])
    with pytest.raises(ValueError, match=message):
        parent.check_surgery(removed, [child])


def test_check_surgery_runs_the_whole_pass_below_an_unchecked_tree():
    # the certificate argues from a valid tree: the child of an unchecked
    # one equals what the drop leaves and still gets the whole pass
    adj = {0: [4], 1: [4], 2: [5], 3: [5], 4: [0, 1, 6], 5: [2, 3, 6], 6: [4, 5]}
    labels = {0: "1", 1: "2", 2: "3", 3: "4"}
    parent = PhyloTree._trusted(
        {v: frozenset(ns) for v, ns in adj.items()}, labels, {lab: v for v, lab in labels.items()}
    )
    child, _ = tree_remove_leaf(parent, "1")
    assert parent._step_certified("1", [child])
    with pytest.raises(ValueError, match="internal vertex 6 has degree 2"):
        parent.check_surgery("1", [child])
