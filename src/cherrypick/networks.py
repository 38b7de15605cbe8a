"""Pseudo-networks and phylogenetic networks.

A pseudo-network is a connected multigraph with at most double edges, no
loops, internal degree three and uniquely labeled leaves; a phylogenetic
network is a simple pseudo-network.  Values are immutable; every operation
returns a new network.
"""

from collections import Counter, deque
from typing import NamedTuple

from .errors import (
    Disconnected,
    NotABlobEdge,
    NotPendantBlob,
    TooManyLeaves,
    TooSmall,
    TripleEdge,
    UnknownLabel,
    UnsupportedConfiguration,
)
from .trees import PhyloTree, is_valid_label, _edge, _reach


class PseudoNetwork:
    """Connected multigraph with internal degree three, at most double
    edges and labeled degree-<=1 vertices."""

    __slots__ = ("edge_list", "labels", "vertex_of", "adj")

    def __init__(self, edges, labels):
        self.edge_list = tuple(sorted(_edge(u, v) for u, v in edges))
        self.labels = dict(labels)
        self.vertex_of = {}
        self.adj = {}
        for v in self.labels:
            self.adj.setdefault(v, [])
        for u, v in self.edge_list:
            if u == v:
                raise ValueError("loop at vertex %r" % (u,))
            self.adj.setdefault(u, []).append(v)
            self.adj.setdefault(v, []).append(u)
        self._validate()

    def _validate(self):
        if not self.labels:
            raise ValueError("a network has a non-empty leaf set")
        for v, lab in self.labels.items():
            if not is_valid_label(lab):
                raise ValueError("invalid label %r" % (lab,))
            if lab in self.vertex_of:
                raise ValueError("duplicate label %r" % (lab,))
            self.vertex_of[lab] = v
        for (u, v), k in Counter(self.edge_list).items():
            if k > 2:
                raise TripleEdge("more than two parallel edges between %r and %r" % (u, v))
        for v, ns in self.adj.items():
            if v in self.labels:
                if len(ns) > 1:
                    raise ValueError("labeled vertex %r has degree %d" % (v, len(ns)))
            elif len(ns) != 3:
                raise ValueError("internal vertex %r has degree %d" % (v, len(ns)))
        if len(_reach(self.adj, next(iter(self.adj)))) != len(self.adj):
            raise Disconnected("network is disconnected")

    # -- accessors -----------------------------------------------------------

    @property
    def leaf_labels(self):
        return frozenset(self.vertex_of)

    @property
    def num_vertices(self):
        return len(self.adj)

    @property
    def num_edges(self):
        return len(self.edge_list)

    def degree(self, v):
        return len(self.adj[v])

    def multiplicity(self, u, v):
        return self.adj[u].count(v)

    def simple_neighbors(self, v):
        return sorted(set(self.adj[v]))

    @property
    def is_simple(self):
        return len(set(self.edge_list)) == len(self.edge_list)

    def multi_edges(self):
        """Doubled vertex pairs, sorted."""
        return sorted(e for e, k in Counter(self.edge_list).items() if k == 2)

    def __repr__(self):
        return "PseudoNetwork(|V|=%d, |E|=%d, X=%s)" % (
            self.num_vertices,
            self.num_edges,
            sorted(self.vertex_of),
        )

    def name_map(self):
        """Deterministic printable names: leaves keep their labels,
        internal vertices become v1, v2, ... in BFS order from the
        smallest leaf."""
        names = dict(self.labels)
        taken = set(names.values())
        order = []
        start = self.vertex_of[min(self.vertex_of)]
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(set(self.adj[v]), key=lambda z: (z not in self.labels, self.labels.get(z, ""), z)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        counter = 1
        for v in order:
            if v in names:
                continue
            while "v%d" % counter in taken:
                counter += 1
            names[v] = "v%d" % counter
            taken.add(names[v])
            counter += 1
        return names


def network_from_tree(tree):
    """View a phylogenetic tree as a (simple) network."""
    return PseudoNetwork(tree.edges(), tree.labels)


def single_vertex_network(label):
    return PseudoNetwork((), {0: label})


def reticulation_number(graph):
    """|E| - |V| + 1 for a connected graph; zero exactly for trees."""
    if isinstance(graph, (PseudoNetwork, PhyloTree)):
        return graph.num_edges - graph.num_vertices + 1
    # a Forest is accepted only when it has a single component
    comps = getattr(graph, "components", None)
    if comps is not None:
        if len(comps) != 1:
            raise Disconnected("forest with %d components" % len(comps))
        return reticulation_number(comps[0])
    raise TypeError("expected a network, tree, or single-component forest")


# ---------------------------------------------------------------------------
# blobs


class Blob(NamedTuple):
    """A maximal 2-connected subgraph that is not a single edge.

    ``incident_edges`` are the cut-edges of the host network with exactly
    one endpoint in the blob; ``leaves`` the labels at their far ends;
    ``pendant`` is set when at most one incident edge is a non-trivial
    cut-edge.
    """

    vertices: frozenset
    edges: tuple
    incident_edges: tuple
    leaves: frozenset
    pendant: bool

    @property
    def reticulation(self):
        return len(self.edges) - len(self.vertices) + 1

    def __contains__(self, edge):
        return _edge(*edge) in set(self.edges)


def blobs(network):
    """All blobs of a network, with incidence data, sorted by vertex set.

    No vertex has degree above three, so two blobs never share a vertex
    (it would meet two edges of each).  Fix a BFS spanning tree.  Each
    fundamental cycle (a non-tree edge instance, such as the second copy
    of a double edge, plus the tree path between its ends) lies in one
    blob, and each blob edge lies on one: a non-tree edge on its own
    cycle, a tree edge that is no bridge on the cycle of some non-tree
    edge joining the two sides it separates.  So merging the vertices of
    every fundamental cycle gives exactly the blobs' vertex sets.
    """
    adj, labels = network.adj, network.labels
    root = next(iter(adj))
    parent, depth, order = {root: None}, {root: 0}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                order.append(w)
    top = {v: v for v in order}  # union-find; a class is led by its vertex nearest the root

    def find(v):
        while top[v] != v:
            top[v] = top[top[v]]
            v = top[v]
        return v

    tree = Counter(_edge(v, parent[v]) for v in order[1:])
    for u, v in (Counter(network.edge_list) - tree).elements():
        a, b = find(u), find(v)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            top[a] = find(parent[a])
            a = top[a]

    inner, incident = {}, {}
    for e in network.edge_list:
        a, b = find(e[0]), find(e[1])
        if a == b:
            inner.setdefault(a, []).append(e)
        else:
            incident.setdefault(a, []).append(e)
            incident.setdefault(b, []).append(e)
    out = []
    for c, bedges in inner.items():
        cut = incident.get(c, [])
        # a labelled vertex has degree <= 1, so it is never inside a blob
        leaves = frozenset(labels[v] for e in cut for v in e if v in labels)
        out.append(
            Blob(
                vertices=frozenset(v for e in bedges for v in e),
                edges=tuple(bedges),
                incident_edges=tuple(cut),
                leaves=leaves,
                pendant=len(cut) - len(leaves) <= 1,
            )
        )
    out.sort(key=lambda b: sorted(b.vertices))
    return out


# ---------------------------------------------------------------------------
# leaf removal and simplification


def remove_network_leaf(network, label):
    """Delete a leaf and its pendant edge, suppressing the degree-two
    vertex.  The result is simple exactly when the two remaining
    neighbours were non-adjacent; otherwise it contains one new
    double edge."""
    if not network.is_simple:
        raise UnsupportedConfiguration("leaf removal is defined on phylogenetic networks")
    if label not in network.vertex_of:
        raise UnknownLabel("no leaf %r" % (label,))
    if len(network.vertex_of) < 2:
        raise TooSmall("cannot remove the only leaf")
    x = network.vertex_of[label]
    labels = {v: l for v, l in network.labels.items() if v != x}
    edges = [e for e in network.edge_list if x not in e]
    return PseudoNetwork(_suppress_degree_two(edges, labels), labels)


class SimplificationResult(NamedTuple):
    result: "PseudoNetwork"
    suppressed_count: int


def _suppress_degree_two(edges, labels):
    """Suppress unlabeled degree-two vertices in an edge multiset until
    none remain.

    Suppressing a vertex joins its two neighbours and leaves every other
    degree unchanged.  So the vertices to suppress are the unlabeled
    degree-two vertices of the input, and one pass over them in vertex
    order, on an adjacency built once, suppresses them in the order that
    a fresh search for the smallest one before each step would.  Raises
    if a vertex's two edges go to one neighbour (a parallel pair), which
    cannot happen for inputs satisfying the simplification hypothesis."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in sorted(adj):
        if len(adj[v]) == 2 and v not in labels:
            n1, n2 = adj.pop(v)
            if n1 == n2:
                raise UnsupportedConfiguration(
                    "suppression chain left the supported configuration"
                )
            adj[n1][adj[n1].index(v)] = n2
            adj[n2][adj[n2].index(v)] = n1
    return [(u, w) for u, ns in adj.items() for w in ns if u < w]


def simplify(network):
    """Repeatedly suppress the multi-edge (and resulting degree-two
    vertices) until the network is simple.

    Requires at most one multi-edge whose blob is incident with at least
    two cut-edges; the count of suppressed multi-edges equals the drop in
    reticulation number.
    """
    count = 0
    current = network
    while True:
        doubles = current.multi_edges()
        if not doubles:
            return SimplificationResult(current, count)
        if len(doubles) > 1:
            raise UnsupportedConfiguration("more than one multi-edge")
        pair = doubles[0]
        blob = next(b for b in blobs(current) if pair in b)
        if len(blob.incident_edges) < 2:
            raise UnsupportedConfiguration(
                "multi-edge blob incident with fewer than two cut-edges"
            )
        edges = list(current.edge_list)
        edges.remove(pair)  # drop one copy of the doubled pair
        edges = _suppress_degree_two(edges, current.labels)
        current = PseudoNetwork(edges, current.labels)
        count += 1


def remove_blob_edge(network, edge):
    """Delete an edge of a pendant blob with at least two incident leaves,
    suppress the endpoints and re-simplify; the reticulation number
    strictly decreases."""
    if not network.is_simple:
        raise UnsupportedConfiguration("expected a phylogenetic network")
    e = _edge(*edge)
    host = next((b for b in blobs(network) if e in b), None)
    if host is None:
        raise NotABlobEdge("edge %r is not in any blob" % (edge,))
    if not host.pendant or len(host.leaves) < 2:
        raise NotABlobEdge("edge %r is not in a pendant blob with >= 2 leaves" % (edge,))
    edges = list(network.edge_list)
    edges.remove(e)
    edges = _suppress_degree_two(edges, network.labels)
    return simplify(PseudoNetwork(edges, network.labels)).result


def remove_pendant_blob(network, blob):
    """Excise a pendant blob with at most one incident leaf.

    With no incident leaf the blob's attachment vertex is suppressed,
    re-subdividing when that would create a double edge; with one leaf x
    the blob is replaced by x (or the whole network collapses to x).
    The reticulation number strictly decreases.
    """
    if not network.is_simple:
        raise UnsupportedConfiguration("expected a phylogenetic network")
    fresh = next((b for b in blobs(network) if b.vertices == blob.vertices), None)
    if fresh is None or not fresh.pendant:
        raise NotPendantBlob("not a pendant blob of this network")
    blob = fresh
    if len(blob.leaves) > 1:
        raise TooManyLeaves("pendant blob with %d incident leaves" % len(blob.leaves))
    nontrivial = [
        e
        for e in blob.incident_edges
        if not (e[0] in network.labels or e[1] in network.labels)
    ]
    if not nontrivial:
        # the network is the blob plus its one leaf
        (x_label,) = blob.leaves
        return single_vertex_network(x_label)
    # exactly one incident cut-edge {u, v} that is not a leaf's, v in the blob
    (cut,) = nontrivial
    u = cut[0] if cut[0] not in blob.vertices else cut[1]
    edges = [
        e
        for e in network.edge_list
        if e[0] not in blob.vertices and e[1] not in blob.vertices
    ]
    if blob.leaves:
        (x_label,) = blob.leaves
        edges.append(_edge(network.vertex_of[x_label], u))
        return PseudoNetwork(edges, network.labels)
    w, w2 = sorted(b if a == u else a for a, b in edges if u in (a, b))
    if _edge(w, w2) not in edges:
        # suppressing u keeps the graph simple
        return PseudoNetwork(_suppress_degree_two(edges, network.labels), network.labels)
    # suppression would double {w, w2}: subdivide it and re-attach u
    new_v = max(network.adj) + 1
    edges.remove(_edge(w, w2))
    edges.extend([_edge(w, new_v), _edge(w2, new_v), _edge(u, new_v)])
    return PseudoNetwork(edges, network.labels)
