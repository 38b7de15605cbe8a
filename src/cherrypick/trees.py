"""Unrooted binary trees and forests, plus their elementary surgery.

Vertices are opaque integers private to each tree; everything visible to
callers is identified by leaf label.  A tree or forest a caller holds is
never changed: every public operation returns new objects, so values can
be shared freely between threads.  The one thing that patches a tree is
surgery's core, ``_drop_leaf`` and ``_cut_edge``, and only on a private
copy its caller made (``_copy``): ``tree_remove_leaf`` and
``tree_remove_edge`` copy the parent and patch the copy, and the replay
(``reductions.replay_trace``) copies each input tree once and then
patches its own copies step by step.

``PhyloTree(adj, labels)``, the public constructor, validates every tree
it builds.  Surgery does not: dropping a leaf or cutting an edge of a
valid tree leaves valid trees, so surgery patches ``d.copy()`` clones of
the parent's dicts (``dict(d)`` would re-insert every entry) and builds
the smaller side of a cut with ``PhyloTree._trusted``, which skips the
whole-tree check.  So trees have one validation boundary: the public
constructor, for input.  The program's own surgery is judged by its
tests, which compare every child of a drop or a cut with ``restrict``,
built through the public constructor and sharing no code with surgery.
A forest keeps its components in the order given, so surgery splices new
components in place and passes the ground set on (``Forest._trusted``);
only the canonical form, which equality and serialization use, sorts
them.

Both surgeries remove one forest edge: a cut removes the edge, and
dropping leaf x removes x's pendant edge and then the isolated x.
``_close_end`` closes each end of the removed edge (a leaf end loses its
neighbour, an internal end is suppressed) and returns an
``EndpointEffect`` saying how that end was left.  The plain surgery
functions return the new forest; the ``*_traced`` ones also return a
record of those effects: an ``EdgeRemoval`` has both ends of the cut, a
``LeafRemoval`` the far end of x's pendant edge.  The records keep vertex
ids stable across a reduction replay, which is what the network builder
needs to track edge images.
"""

from collections import deque
from itertools import combinations
from typing import NamedTuple

from .errors import (
    DuplicateLabel,
    EmptyRestriction,
    InvalidEdgeRef,
    NotACherry,
    UnknownLabel,
)

# Characters that can never appear in a leaf label: the Newick punctuation,
# '#' (it starts a comment in the document formats), and the 29 characters
# for which str.isspace is true, since documents split lines and tokens at
# them.  They are written out, not found by a scan at import.
FORBIDDEN_LABEL_CHARS = frozenset(
    "(),;:#"
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def is_valid_label(name):
    return bool(name) and FORBIDDEN_LABEL_CHARS.isdisjoint(name)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def _reach(adj, root, avoid=None):
    """Vertices reachable from `root` without entering `avoid`, in
    breadth-first order."""
    order = [root]
    seen = {root, avoid}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


class PhyloTree:
    """Unrooted binary tree whose leaves carry unique labels.

    The single labeled vertex and the single edge between two labeled
    vertices are both valid trees; every unlabeled vertex has degree
    exactly three.
    """

    __slots__ = ("adj", "labels", "vertex_of")

    def __init__(self, adj, labels):
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}
        self.labels = dict(labels)
        self.vertex_of = self._validate()

    @classmethod
    def _trusted(cls, adj, labels, vertex_of):
        """A tree made by surgery on a valid tree, taking ownership of
        the given dicts (frozenset values, ``vertex_of`` the inverse of
        ``labels``) without copying or validating them."""
        tree = cls.__new__(cls)
        tree.adj = adj
        tree.labels = labels
        tree.vertex_of = vertex_of
        return tree

    def _validate(self):
        """Check the adjacency and labels; returns the leaf index they
        define (label -> vertex)."""
        adj, labels = self.adj, self.labels
        if not adj:
            raise ValueError("a tree has at least one vertex")
        vertex_of = {lab: v for v, lab in labels.items()}
        if not (
            len(vertex_of) == len(labels)
            and labels.keys() <= adj.keys()
            and all(labels.values())
            and FORBIDDEN_LABEL_CHARS.isdisjoint("".join(labels.values()))
        ):
            # some label check failed: walk the labels to name the first fault
            named = set()
            for v, lab in labels.items():
                if v not in adj:
                    raise ValueError("labeled vertex %r not in the tree" % (v,))
                if not is_valid_label(lab):
                    raise ValueError("invalid label %r" % (lab,))
                if lab in named:
                    raise DuplicateLabel("duplicate label %r" % (lab,))
                named.add(lab)
        if not labels:
            raise ValueError("a tree has at least one labeled vertex")
        for v, ns in adj.items():
            if v in ns:
                raise ValueError("loop at vertex %r" % (v,))
            for w in ns:
                if v not in adj.get(w, ()):
                    raise ValueError("asymmetric adjacency")
        n, m = len(adj), sum(map(len, adj.values())) // 2
        if m != n - 1:
            raise ValueError("not a tree: %d vertices, %d edges" % (n, m))
        if len(_reach(adj, next(iter(adj)))) != n:
            raise ValueError("tree is disconnected")
        for v, ns in adj.items():
            if len(ns) > 1 if v in labels else len(ns) != 3:
                if v in labels:
                    raise ValueError("labeled vertex %r has degree > 1" % (v,))
                raise ValueError("internal vertex %r has degree %d" % (v, len(ns)))
        return vertex_of

    # -- basic accessors ---------------------------------------------------

    @property
    def leaf_labels(self):
        return frozenset(self.vertex_of)

    @property
    def num_vertices(self):
        return len(self.adj)

    @property
    def num_edges(self):
        return len(self.adj) - 1

    def degree(self, v):
        return len(self.adj[v])

    def edges(self):
        """All edges as sorted vertex pairs, in sorted order."""
        out = []
        for v, ns in self.adj.items():
            for w in ns:
                if v < w:
                    out.append((v, w))
        out.sort()
        return out

    def has_edge(self, u, v):
        return v in self.adj.get(u, frozenset())

    def pendant_edge(self, label):
        """The edge incident with leaf `label`; for the two-leaf tree this
        is the component's only edge."""
        if label not in self.vertex_of:
            raise UnknownLabel("no leaf %r in this tree" % (label,))
        v = self.vertex_of[label]
        if not self.adj[v]:
            raise InvalidEdgeRef("single-vertex tree has no pendant edge")
        (u,) = self.adj[v]
        return _edge(u, v)

    def path(self, a, b):
        """Vertices on the unique path from vertex a to vertex b, inclusive."""
        if a == b:
            return [a]
        prev = {a: None}
        queue = deque([a])
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if w not in prev:
                    prev[w] = v
                    if w == b:
                        out = [b]
                        while out[-1] != a:
                            out.append(prev[out[-1]])
                        out.reverse()
                        return out
                    queue.append(w)
        raise ValueError("no path: vertices in different trees")

    def side_leaves(self, edge, endpoint):
        """Leaf labels of the component of `tree - edge` containing `endpoint`."""
        u, v = edge
        other = v if endpoint == u else u
        labels = self.labels
        return frozenset(labels[w] for w in _reach(self.adj, endpoint, other) if w in labels)

    # -- canonical form ----------------------------------------------------

    @property
    def canonical(self):
        """Canonical Newick string, identical for label-isomorphic trees.

        The tree is rooted on the pendant edge of its lexicographically
        smallest leaf and children are sorted recursively.  It is rendered
        afresh on every read.  On a ``_trusted`` tree whose adjacency has a
        cycle it raises ValueError.
        """
        if self.num_vertices == 1:
            return next(iter(self.labels.values())) + ";"
        adj, labels = self.adj, self.labels
        root_label = min(self.vertex_of)
        rv = self.vertex_of[root_label]
        (start,) = adj[rv]
        if start in labels:
            return "(" + ",".join(sorted((root_label, labels[start]))) + ");"
        # internal vertices in breadth-first order from `start`; rendering
        # them in reverse finishes every child before its parent, so deep
        # trees need no recursion.  Each vertex's neighbours are its parent
        # and the children the walk gives it; any other closes a cycle.
        parent = {rv: None, start: rv}
        order = [start]
        for v in order:
            up = parent[v]
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    if w not in labels:
                        order.append(w)
                elif w != up:
                    raise ValueError("cycle through the edge %r" % (_edge(v, w),))
        text = {}
        for v in reversed(order):
            kids = [labels[w] if w in labels else text.pop(w) for w in adj[v] if w != parent[v]]
            text[v] = "(" + ",".join(sorted(kids)) + ")"
        parts = sorted((root_label, text[start]))
        return "(" + ",".join(parts) + ");"

    def __repr__(self):
        return "PhyloTree(%s)" % self.canonical

    # -- cherries ------------------------------------------------------------

    def cherries(self):
        """All cherries as sorted label pairs, lexicographically ordered.

        A two-leaf tree is itself a cherry; in a three-leaf tree every leaf
        pair is one.
        """
        if self.num_vertices == 2:
            return [tuple(sorted(self.labels.values()))]
        # group the leaves by their neighbour; a group of k holds k choose 2
        by_parent = {}
        for v, lab in self.labels.items():
            for c in self.adj[v]:
                by_parent.setdefault(c, []).append(lab)
        return sorted(
            p for labs in by_parent.values() for p in combinations(sorted(labs), 2)
        )

    def cherry_partners(self, label):
        """Labels forming a cherry with `label`, sorted: the other leaf of
        a two-leaf tree, else the other leaves at its one neighbour."""
        v = self.vertex_of[label]
        if self.num_vertices <= 2:
            return [self.labels[w] for w in self.adj[v]]
        (c,) = self.adj[v]
        return sorted(self.labels[w] for w in self.adj[c] if w in self.labels and w != v)


# ---------------------------------------------------------------------------
# surgery on a single tree; its record says how each end of the removed
# edge was left


class EndpointEffect(NamedTuple):
    """How one end of a removed edge was left: a "leaf" end lost its only
    neighbour and is now an isolated vertex; a "suppressed" end was an
    internal vertex, deleted by joining its two other neighbours into
    ``merged_edge``."""

    vertex: int
    kind: str  # "leaf" or "suppressed"
    label: str = None
    merged_edge: tuple = None


class LeafRemoval(NamedTuple):
    """How leaf x left a tree: its pendant edge was removed, ``far`` is
    the EndpointEffect of that edge's other end (None when x was an
    isolated vertex), and the isolated x was deleted."""

    leaf_vertex: int
    far: EndpointEffect = None


class EdgeRemoval(NamedTuple):
    edge: tuple
    effects: tuple  # one EndpointEffect per endpoint, in edge order


def _close_end(adj, labels, z, gone):
    """Close end `z` of a removed edge whose other end is `gone`, in an
    adjacency dict of frozensets: a leaf loses that neighbour, an internal
    vertex is suppressed by joining its two other neighbours.  Returns the
    end's EndpointEffect."""
    if z in labels:
        adj[z] = adj[z] - {gone}
        return EndpointEffect(z, "leaf", label=labels[z])
    n1, n2 = sorted(adj.pop(z) - {gone})
    adj[n1] = adj[n1] - {z} | {n2}
    adj[n2] = adj[n2] - {z} | {n1}
    return EndpointEffect(z, "suppressed", merged_edge=(n1, n2))


def _copy(tree):
    """A copy of a tree whose dicts the caller owns and may patch:
    ``d.copy()`` clones (``dict(d)`` would re-insert every entry), whose
    untouched vertices share the tree's frozensets."""
    return PhyloTree._trusted(tree.adj.copy(), tree.labels.copy(), tree.vertex_of.copy())


def _drop_leaf(tree, label):
    """Drop a leaf in place, patching the dicts of a tree the caller owns:
    delete the leaf's pendant edge, close the far end and delete the
    isolated leaf; returns (the patched tree or None, record)."""
    xv = tree.vertex_of[label]
    if not tree.adj[xv]:
        return None, LeafRemoval(xv)
    (u,) = tree.adj.pop(xv)
    del tree.labels[xv], tree.vertex_of[label]
    return tree, LeafRemoval(xv, _close_end(tree.adj, tree.labels, u, xv))


def _cut_edge(tree, edge):
    """Cut an edge in place, patching the dicts of a tree the caller owns:
    close both ends and move the smaller side into a new tree; returns
    ((side_a, side_b), record) with sides ordered by the edge's
    endpoints, the larger side being the patched tree itself."""
    a, b = edge
    adj, labels, vertex_of = tree.adj, tree.labels, tree.vertex_of
    effects = (_close_end(adj, labels, a, b), _close_end(adj, labels, b, a))
    # walk the smaller side; the larger one is what is left of the tree
    roots = [eff.vertex if eff.kind == "leaf" else eff.merged_edge[0] for eff in effects]
    small, order = _smaller_side(adj, *roots)
    adj_s = {v: adj.pop(v) for v in order}
    labels_s, vertex_of_s = {}, {}
    for v in order:
        lab = labels.pop(v, None)
        if lab is not None:
            labels_s[v] = lab
            vertex_of_s[lab] = vertex_of.pop(lab)
    sides = [PhyloTree._trusted(adj_s, labels_s, vertex_of_s), tree]
    if small == 1:
        sides.reverse()
    return tuple(sides), EdgeRemoval(_edge(a, b), effects)


def tree_remove_leaf(tree, label):
    """Remove a leaf from a tree: delete its pendant edge, close the far
    end and delete the isolated leaf; returns (new tree or None, record)."""
    if label not in tree.vertex_of:
        raise UnknownLabel("no leaf %r" % (label,))
    return _drop_leaf(_copy(tree), label)


def tree_remove_edge(tree, edge):
    """Delete an edge, close both its ends and return ((side_a, side_b),
    record) with sides ordered by the edge's endpoints."""
    a, b = edge
    if not tree.has_edge(a, b):
        raise InvalidEdgeRef("edge %r not in tree" % (edge,))
    return _cut_edge(_copy(tree), edge)


def _smaller_side(adj, root_a, root_b):
    """Which of the two trees of `adj` holding `root_a` and `root_b` is
    the smaller (0 or 1; 0 on a tie) and its vertices in breadth-first
    order, by walking both in lockstep until one is exhausted."""
    orders = ([root_a], [root_b])
    seen = {root_a, root_b}
    i = 0
    while True:
        for side, order in enumerate(orders):
            if i == len(order):
                return side, order
            for w in adj[order[i]]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        i += 1


def restrict(tree, keep):
    """Restriction of a tree to a non-empty subset of its leaf labels:
    the minimal connecting subtree with degree-two vertices suppressed."""
    keep = frozenset(keep)
    if not keep:
        raise EmptyRestriction("cannot restrict to the empty label set")
    missing = keep - tree.leaf_labels
    if missing:
        raise UnknownLabel("labels not in tree: %s" % ", ".join(sorted(missing)))
    if keep == tree.leaf_labels:
        return tree
    keep_vs = {tree.vertex_of[l] for l in keep}
    adj = {v: set(ns) for v, ns in tree.adj.items()}
    # prune leaves outside the kept set until none remain
    queue = deque(v for v, ns in adj.items() if len(ns) <= 1 and v not in keep_vs)
    while queue:
        v = queue.popleft()
        ns = adj.pop(v)
        for w in ns:
            adj[w].discard(v)
            if len(adj[w]) <= 1 and w not in keep_vs:
                queue.append(w)
    # suppress internal degree-two vertices
    for v in [v for v, ns in adj.items() if len(ns) == 2 and v not in keep_vs]:
        n1, n2 = adj.pop(v)
        adj[n1].discard(v)
        adj[n2].discard(v)
        adj[n1].add(n2)
        adj[n2].add(n1)
    labels = {tree.vertex_of[l]: l for l in keep}
    return PhyloTree(adj, labels)


# ---------------------------------------------------------------------------
# pendant shapes around a cherry


class PendantShape(NamedTuple):
    """A pendant subtree ((x,y),p) or ((x,y),(p,q)) hanging off a cherry.

    Edges are concrete edges of the host tree.  ``cut_edge`` is the
    cut-edge giving rise to the shape and exists only when the shape is a
    proper pendant subtree.
    """

    kind: str  # "xyp" or "xypq"
    p: str
    q: str = None
    proper: bool = False
    e_p: tuple = None
    e_q: tuple = None
    e_pq: tuple = None
    cut_edge: tuple = None


def pendant_shapes(tree, cherry):
    """All ((x,y),p) / ((x,y),(p,q)) pendant subtrees for a cherry of a
    tree, including the non-proper whole-tree occurrences."""
    x, y = cherry
    if x not in tree.vertex_of or y not in tree.cherry_partners(x):
        raise NotACherry("%r is not a cherry of this tree" % (cherry,))
    if tree.num_vertices == 2:
        return []
    labels = tree.labels
    (c,) = tree.adj[tree.vertex_of[x]]
    (d,) = tree.adj[c] - {tree.vertex_of[x], tree.vertex_of[y]}
    if d in labels:
        # three-leaf star: ((x,y),z) is the whole tree
        return [PendantShape("xyp", labels[d], e_p=_edge(c, d))]
    a, b = sorted(tree.adj[d] - {c})
    shapes = []
    for w, other in ((a, b), (b, a)):
        # cutting (d, other) leaves the pendant subtree of d on the side of w
        if w in labels:
            shapes.append(
                PendantShape(
                    "xyp",
                    labels[w],
                    proper=True,
                    e_p=_edge(d, w),
                    cut_edge=_edge(d, other),
                )
            )
        elif all(g in labels for g in tree.adj[w] - {d}):
            p, q = sorted(labels[g] for g in tree.adj[w] - {d})
            shapes.append(
                PendantShape(
                    "xypq",
                    p,
                    q=q,
                    proper=True,
                    e_p=tree.pendant_edge(p),
                    e_q=tree.pendant_edge(q),
                    e_pq=_edge(d, w),
                    cut_edge=_edge(d, other),
                )
            )
    if a in labels and b in labels:
        # the component is the quartet ((x,y),(p,q)), which is not proper
        p, q = sorted((labels[a], labels[b]))
        shapes.append(
            PendantShape(
                "xypq",
                p,
                q=q,
                e_p=tree.pendant_edge(p),
                e_q=tree.pendant_edge(q),
                e_pq=_edge(c, d),
            )
        )
    shapes.sort(key=lambda s: (s.kind, s.p, s.q or ""))
    return shapes


# ---------------------------------------------------------------------------
# forests


class Forest:
    """A set of trees with pairwise disjoint leaf-label sets.

    Components are kept in the order given; the canonical form sorts
    them, so equal forests print identically whatever the order.  The
    trees are the only record of where a label lives: a lookup asks each
    component in turn.
    """

    __slots__ = ("components", "ground_set")

    def __init__(self, components):
        self.components = tuple(components)
        indexes = [t.vertex_of for t in self.components]
        self.ground_set = frozenset().union(*indexes)
        if len(self.ground_set) != sum(map(len, indexes)):
            # some label is shared: walk the components to name the first one
            seen = set()
            for t in self.components:
                for lab in t.vertex_of:
                    if lab in seen:
                        raise DuplicateLabel("label %r in two components" % (lab,))
                    seen.add(lab)

    @property
    def canonical(self):
        return "\n".join(sorted(t.canonical for t in self.components))

    def __repr__(self):
        return "Forest(%s)" % self.canonical.replace("\n", " | ")

    def __eq__(self, other):
        return isinstance(other, Forest) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def component_index(self, label):
        for i, t in enumerate(self.components):
            if label in t.vertex_of:
                return i
        raise UnknownLabel("no leaf %r in this forest" % (label,))

    def is_singleton(self, label):
        """True when `label` is an isolated vertex (its own component)."""
        return self.components[self.component_index(label)].num_vertices == 1

    def cherries(self):
        out = []
        for t in self.components:
            out.extend(t.cherries())
        out.sort()
        return out

    def has_cherry(self, pair):
        x, y = pair
        return y in self.cherry_partners(x)

    def cherry_partners(self, label):
        """Labels forming a cherry with `label`, sorted."""
        if label not in self.ground_set:
            return []
        return self.components[self.component_index(label)].cherry_partners(label)

    @classmethod
    def _trusted(cls, components, ground_set):
        """A forest made by surgery on a valid forest, taking the tuple of
        components and their label union as given, without checking them."""
        forest = cls.__new__(cls)
        forest.components = components
        forest.ground_set = ground_set
        return forest

    def replace_component(self, index, new_components, ground_set):
        """The forest with component `index` replaced, in place, by the
        given trees (None entries are skipped); `ground_set` is the label
        set of the result, which surgery knows (the same after a cut, one
        label fewer after a drop)."""
        comps = self.components
        kept = tuple(t for t in new_components if t is not None)
        return Forest._trusted(comps[:index] + kept + comps[index + 1:], ground_set)


def canonical_form(forest):
    """Text key equal for exactly the label-isomorphic forests."""
    return forest.canonical


# -- leaf and edge removal ---------------------------------------------------


def remove_leaf_traced(forest, label):
    idx = forest.component_index(label)
    new_tree, rec = tree_remove_leaf(forest.components[idx], label)
    return forest.replace_component(idx, [new_tree], forest.ground_set - {label}), rec


def remove_leaf(forest, label):
    """The forest with one leaf removed; singleton components are deleted,
    otherwise the pendant edge is pruned and the degree-two vertex
    suppressed."""
    return remove_leaf_traced(forest, label)[0]


def remove_edge_traced(forest, component_index, edge):
    comps, rec = tree_remove_edge(forest.components[component_index], edge)
    return forest.replace_component(component_index, comps, forest.ground_set), rec


# ---------------------------------------------------------------------------
# semantic edge references


class EdgeRef(NamedTuple):
    """A forest edge named semantically so references survive re-parsing:
    by the leaf whose pendant edge it is, or by the leaf set of the
    pendant subtree it cuts off."""

    kind: str  # "pendant" | "subtree"
    label: str = None
    subtree_leaves: frozenset = None


def pendant_of(label):
    return EdgeRef("pendant", label=label)


def subtree_edge(leaves):
    return EdgeRef("subtree", subtree_leaves=frozenset(leaves))


def resolve_edge_ref(forest, ref):
    """Resolve an EdgeRef to (component index, concrete edge)."""
    if ref.kind == "pendant":
        if ref.label not in forest.ground_set:
            raise InvalidEdgeRef("no leaf %r in forest" % (ref.label,))
        idx = forest.component_index(ref.label)
        tree = forest.components[idx]
        if tree.num_vertices == 1:
            raise InvalidEdgeRef("leaf %r is an isolated vertex" % (ref.label,))
        return idx, tree.pendant_edge(ref.label)
    if ref.kind == "subtree":
        leaves = ref.subtree_leaves
        if not leaves:
            raise InvalidEdgeRef("empty pendant-subtree selector")
        anchor = min(leaves)
        if anchor not in forest.ground_set:
            raise InvalidEdgeRef("no leaf %r in forest" % (anchor,))
        idx = forest.component_index(anchor)
        tree = forest.components[idx]
        if not leaves <= tree.leaf_labels or leaves == tree.leaf_labels:
            raise InvalidEdgeRef("no proper pendant subtree on %s" % sorted(leaves))
        for u, v in tree.edges():
            if tree.side_leaves((u, v), u) == leaves or tree.side_leaves((u, v), v) == leaves:
                return idx, (u, v)
        raise InvalidEdgeRef("no pendant subtree with leaves %s" % sorted(leaves))
    raise InvalidEdgeRef("unknown selector kind %r" % (ref.kind,))


def remove_edge(forest, ref):
    """The forest with one edge deleted (degree-two vertices suppressed);
    the ground set is unchanged and the component count grows by one."""
    idx, edge = resolve_edge_ref(forest, ref)
    return remove_edge_traced(forest, idx, edge)[0]
