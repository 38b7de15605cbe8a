"""Unrooted binary trees and forests, plus their elementary surgery.

Vertices are opaque integers private to each tree; everything visible to
callers is identified by leaf label.  All values are immutable after
construction and every operation is a pure function returning new objects,
so trees and forests can be shared freely between threads.  Every tree,
surgery results included, is validated when it is built.  A forest keeps
its components in the order given, so surgery splices new components in
place; only the canonical form, which equality and serialization use,
sorts them.

Surgery functions come in two flavours: the plain ones return the new
forest, the ``*_traced`` ones additionally return a record of which vertex
was suppressed and which edges got merged.  The records keep vertex ids
stable across a reduction replay, which is what the network builder needs
to track edge images.
"""

from collections import deque
from dataclasses import dataclass

from .errors import (
    DuplicateLabel,
    EmptyRestriction,
    InvalidEdgeRef,
    NotACherry,
    UnknownLabel,
)

# Characters that can never appear in a leaf label ('#' starts a comment in
# the document formats).
FORBIDDEN_LABEL_CHARS = frozenset(" \t\r\n\f\v(),;:#")


def is_valid_label(name):
    return bool(name) and FORBIDDEN_LABEL_CHARS.isdisjoint(name)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


class PhyloTree:
    """Unrooted binary tree whose leaves carry unique labels.

    The single labeled vertex and the single edge between two labeled
    vertices are both valid trees; every unlabeled vertex has degree
    exactly three.
    """

    __slots__ = ("adj", "labels", "vertex_of", "_canon")

    def __init__(self, adj, labels):
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}
        self.labels = dict(labels)
        self._canon = None
        self._validate()

    def _validate(self):
        adj, labels = self.adj, self.labels
        if not adj:
            raise ValueError("a tree has at least one vertex")
        self.vertex_of = {lab: v for v, lab in labels.items()}
        if not (
            len(self.vertex_of) == len(labels)
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
        order = [next(iter(adj))]
        seen = set(order)
        for v in order:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        if len(order) != n:
            raise ValueError("tree is disconnected")
        for v, ns in adj.items():
            if len(ns) > 1 if v in labels else len(ns) != 3:
                if v in labels:
                    raise ValueError("labeled vertex %r has degree > 1" % (v,))
                raise ValueError("internal vertex %r has degree %d" % (v, len(ns)))

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
        seen = {other, endpoint}
        queue = deque([endpoint])
        labs = set()
        if endpoint in self.labels:
            labs.add(self.labels[endpoint])
        while queue:
            a = queue.popleft()
            for w in self.adj[a]:
                if w in seen:
                    continue
                seen.add(w)
                if w in self.labels:
                    labs.add(self.labels[w])
                queue.append(w)
        return frozenset(labs)

    # -- canonical form ----------------------------------------------------

    @property
    def canonical(self):
        """Canonical Newick string, identical for label-isomorphic trees.

        The tree is rooted on the pendant edge of its lexicographically
        smallest leaf and children are sorted recursively.
        """
        if self._canon is None:
            self._canon = self._compute_canonical()
        return self._canon

    def _compute_canonical(self):
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
        # trees need no recursion
        parent = {start: rv}
        order = [start]
        for v in order:
            for w in adj[v]:
                if w != parent[v] and w not in labels:
                    parent[w] = v
                    order.append(w)
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
        out = set()
        for v, ns in self.adj.items():
            if v in self.labels:
                continue
            labs = sorted(self.labels[w] for w in ns if w in self.labels)
            for i in range(len(labs)):
                for j in range(i + 1, len(labs)):
                    out.add((labs[i], labs[j]))
        return sorted(out)

    def cherry_vertex(self, cherry):
        """The common neighbour of a cherry's leaves, or None for the
        two-leaf tree."""
        x, y = cherry
        if x not in self.vertex_of or y not in self.vertex_of:
            raise NotACherry("%r is not a cherry of this tree" % (cherry,))
        if self.num_vertices == 2:
            return None
        xv, yv = self.vertex_of[x], self.vertex_of[y]
        (cx,) = self.adj[xv]
        (cy,) = self.adj[yv]
        if cx != cy:
            raise NotACherry("%r is not a cherry of this tree" % (cherry,))
        return cx


# ---------------------------------------------------------------------------
# surgery on a single tree, with replay records


@dataclass(frozen=True)
class LeafRemoval:
    """How a leaf left a tree: its component vanished ("dropped"), a
    two-leaf component collapsed to the partner ("collapsed"), or an
    internal vertex was suppressed and two edges merged ("suppressed")."""

    label: str
    kind: str
    leaf_vertex: int
    partner_vertex: int = None
    partner_label: str = None
    suppressed_vertex: int = None
    merged_edge: tuple = None


@dataclass(frozen=True)
class EndpointEffect:
    vertex: int
    kind: str  # "leaf" (endpoint became a singleton) or "suppressed"
    label: str = None
    merged_edge: tuple = None


@dataclass(frozen=True)
class EdgeRemoval:
    edge: tuple
    effects: tuple  # one EndpointEffect per endpoint, in edge order


def _join(adj, n1, n2, z):
    """Replace the path n1 - z - n2 by the edge n1 - n2 in an adjacency
    dict of frozensets; z itself must already be gone from `adj`."""
    adj[n1] = adj[n1] - {z} | {n2}
    adj[n2] = adj[n2] - {z} | {n1}


def tree_remove_leaf(tree, label):
    """Remove a leaf from a tree; returns (new tree or None, record)."""
    if label not in tree.vertex_of:
        raise UnknownLabel("no leaf %r" % (label,))
    xv = tree.vertex_of[label]
    if tree.num_vertices == 1:
        return None, LeafRemoval(label, "dropped", xv)
    if tree.num_vertices == 2:
        (pv,) = tree.adj[xv]
        plab = tree.labels[pv]
        rec = LeafRemoval(label, "collapsed", xv, partner_vertex=pv, partner_label=plab)
        return PhyloTree({pv: frozenset()}, {pv: plab}), rec
    (u,) = tree.adj[xv]
    n1, n2 = sorted(tree.adj[u] - {xv})
    # untouched vertices share the parent's frozensets
    adj = dict(tree.adj)
    del adj[xv], adj[u]
    _join(adj, n1, n2, u)
    labels = {v: l for v, l in tree.labels.items() if v != xv}
    rec = LeafRemoval(label, "suppressed", xv, suppressed_vertex=u, merged_edge=(n1, n2))
    return PhyloTree(adj, labels), rec


def tree_remove_edge(tree, edge):
    """Delete an edge, suppress the resulting degree-two vertices and
    return ((side_a, side_b), record) with sides ordered by the edge's
    endpoints."""
    a, b = edge
    if not tree.has_edge(a, b):
        raise InvalidEdgeRef("edge %r not in tree" % (edge,))
    # untouched vertices share the parent's frozensets
    adj = dict(tree.adj)
    adj[a] = adj[a] - {b}
    adj[b] = adj[b] - {a}
    effects = []
    for z in (a, b):
        if z in tree.labels:
            effects.append(EndpointEffect(z, "leaf", label=tree.labels[z]))
        else:
            n1, n2 = sorted(adj.pop(z))
            _join(adj, n1, n2, z)
            effects.append(EndpointEffect(z, "suppressed", merged_edge=(n1, n2)))
    comps = []
    for z, eff in zip((a, b), effects):
        start = z if eff.kind == "leaf" else eff.merged_edge[0]
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sub_adj = {v: adj[v] for v in seen}
        sub_labels = {v: l for v, l in tree.labels.items() if v in seen}
        comps.append(PhyloTree(sub_adj, sub_labels))
    return tuple(comps), EdgeRemoval(_edge(a, b), tuple(effects))


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
        if v not in adj:
            continue
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


@dataclass(frozen=True)
class PendantShape:
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
    c = tree.cherry_vertex(cherry)
    if c is None:
        return []
    (d,) = tree.adj[c] - {tree.vertex_of[x], tree.vertex_of[y]}
    shapes = []
    if d in tree.labels:
        # three-leaf star: ((x,y),z) is the whole tree
        shapes.append(PendantShape("xyp", tree.labels[d], e_p=_edge(c, d)))
        return shapes
    others = sorted(tree.adj[d] - {c})
    other_leaves = [w for w in others if w in tree.labels]
    if len(other_leaves) == 2:
        # the component is the quartet ((x,y),(p,q)); the two ((x,y),p)
        # shapes are proper, the quartet itself is not
        pa, pb = others
        for leaf_v, cut_v in ((pa, pb), (pb, pa)):
            shapes.append(
                PendantShape(
                    "xyp",
                    tree.labels[leaf_v],
                    proper=True,
                    e_p=_edge(d, leaf_v),
                    cut_edge=_edge(d, cut_v),
                )
            )
        p, q = sorted(tree.labels[w] for w in others)
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
    else:
        for w in others:
            rest = [o for o in others if o != w]
            if w in tree.labels:
                shapes.append(
                    PendantShape(
                        "xyp",
                        tree.labels[w],
                        proper=True,
                        e_p=_edge(d, w),
                        cut_edge=_edge(d, rest[0]),
                    )
                )
            else:
                grand = sorted(tree.adj[w] - {d})
                if all(g in tree.labels for g in grand):
                    p, q = sorted(tree.labels[g] for g in grand)
                    shapes.append(
                        PendantShape(
                            "xypq",
                            p,
                            q=q,
                            proper=True,
                            e_p=tree.pendant_edge(p),
                            e_q=tree.pendant_edge(q),
                            e_pq=_edge(d, w),
                            cut_edge=_edge(d, rest[0]),
                        )
                    )
    shapes.sort(key=lambda s: (s.kind, s.p, s.q or ""))
    return shapes


# ---------------------------------------------------------------------------
# forests


class Forest:
    """A set of trees with pairwise disjoint leaf-label sets.

    Components are kept in the order given; the canonical form sorts
    them, so equal forests print identically whatever the order.
    """

    __slots__ = ("components", "ground_set", "_canon", "_home")

    def __init__(self, components):
        self.components = tuple(components)
        self._home = {}
        self._canon = None
        for i, t in enumerate(self.components):
            for lab in t.vertex_of:
                if lab in self._home:
                    raise DuplicateLabel("label %r in two components" % (lab,))
                self._home[lab] = i
        self.ground_set = frozenset(self._home)

    @property
    def canonical(self):
        if self._canon is None:
            self._canon = "\n".join(sorted(t.canonical for t in self.components))
        return self._canon

    def __repr__(self):
        return "Forest(%s)" % self.canonical.replace("\n", " | ")

    def __eq__(self, other):
        return isinstance(other, Forest) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def component_of(self, label):
        if label not in self._home:
            raise UnknownLabel("no leaf %r in this forest" % (label,))
        return self.components[self._home[label]]

    def component_index(self, label):
        if label not in self._home:
            raise UnknownLabel("no leaf %r in this forest" % (label,))
        return self._home[label]

    def is_singleton(self, label):
        """True when `label` is an isolated vertex (its own component)."""
        return self.component_of(label).num_vertices == 1

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
        if label not in self._home:
            return []
        t = self.component_of(label)
        if t.num_vertices == 1:
            return []
        if t.num_vertices == 2:
            (other,) = t.leaf_labels - {label}
            return [other]
        v = t.vertex_of[label]
        (c,) = t.adj[v]
        return sorted(t.labels[w] for w in t.adj[c] if w in t.labels and w != v)

    def replace_component(self, index, new_components):
        """The forest with component `index` replaced, in place, by the
        given trees (None entries are skipped)."""
        comps = list(self.components)
        comps[index:index + 1] = [t for t in new_components if t is not None]
        return Forest(comps)


def canonical_form(forest):
    """Text key equal for exactly the label-isomorphic forests."""
    return forest.canonical


# -- leaf and edge removal ---------------------------------------------------


def remove_leaf_traced(forest, label):
    idx = forest.component_index(label)
    new_tree, rec = tree_remove_leaf(forest.components[idx], label)
    return forest.replace_component(idx, [new_tree]), rec


def remove_leaf(forest, label):
    """The forest with one leaf removed; singleton components are deleted,
    otherwise the pendant edge is pruned and the degree-two vertex
    suppressed."""
    return remove_leaf_traced(forest, label)[0]


def remove_edge_traced(forest, component_index, edge):
    comps, rec = tree_remove_edge(forest.components[component_index], edge)
    return forest.replace_component(component_index, comps), rec


# ---------------------------------------------------------------------------
# semantic edge references


@dataclass(frozen=True)
class EdgeRef:
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


# ---------------------------------------------------------------------------
# the four-way cherry classification


@dataclass(frozen=True)
class CherryCase:
    """Which of the four mutually exclusive situations holds for a cherry
    (x,y) of one forest relative to another: "i" same cherry, "ii" x or y
    in another cherry (witnesses = (anchor, partner) pairs), "iii" same
    tree but no cherry, "iv" different trees and no cherry.

    Deprecated, with ``classify``: nothing in the package uses them, since
    ``reductions._pair_moves`` states the same cases; they stay exported
    for existing callers."""

    case: str
    witnesses: tuple = ()


def classify(forest, other, cherry):
    """The ``CherryCase`` of a cherry of ``forest`` relative to ``other``.
    Deprecated: see ``CherryCase``."""
    x, y = sorted(cherry)
    if not forest.has_cherry((x, y)):
        raise NotACherry("%r is not a cherry of the first forest" % (cherry,))
    for lab in (x, y):
        if lab not in other.ground_set:
            raise UnknownLabel("label %r missing from the second forest" % (lab,))
    if other.has_cherry((x, y)):
        return CherryCase("i")
    witnesses = []
    for anchor in (x, y):
        for z in other.cherry_partners(anchor):
            if z not in (x, y):
                witnesses.append((anchor, z))
    if witnesses:
        return CherryCase("ii", tuple(witnesses))
    if other.component_index(x) == other.component_index(y):
        return CherryCase("iii")
    return CherryCase("iv")
