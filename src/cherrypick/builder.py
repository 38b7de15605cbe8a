"""Reconstructing a network from a validated cherry picking sequence.

The trace is replayed backwards from the terminal single-leaf network.
Undoing a C1/C3 step inserts a pendant leaf (reticulation number
unchanged); undoing a C2 step inserts one new edge whose endpoints
subdivide tracked edge images (reticulation number +1).  Both undo steps
re-open the ends of a removed forest edge, each end with ``_host`` and
``_reopen``.  The builder therefore returns a phylogenetic network N with
r(N) <= w(trace) that displays both starting forests.

Throughout the reverse replay the builder maintains, for every edge of
both current forests, an explicit path of network vertices (its image).
These paths are what make the insertion points of the undo operations
well defined after arbitrarily many subdivisions.  Per forest, a network
edge lies on at most one image, so an index from network edge to the
image using it lets a subdivision patch just that path, and the network
keeps a running edge count, so each step costs what it touches.

With ``verify`` (the default) ``build_network`` checks the images once,
after the last undo step, on the input forests: every path of both
forests is a walk in the network between the images of its ends, every
leaf is mapped to its network leaf, and the components of each forest
have vertex-disjoint images.  That pass is what certifies the output:
vertex-disjoint subdivisions of a forest's components whose leaves sit
at their network leaves show that the network displays the forest.  The
forest pairs in between need no image check of their own.  Each is a
replay state, which the replay checked against the step that made it,
and whatever an undo step reads of the images it checks as it goes
(``subdivide``, ``_own``, ``pop_path``, ``peek_path``, and the
reticulation number each undo step must leave).  A fault still in the
images after the last step is found by the pass, which names the first
fault in its order; one that a later step wrote over does not reach the
output.
"""

from .errors import ImageTrackingError
from .networks import PseudoNetwork, reticulation_number
from .reductions import replay_trace
from .trees import Forest, PhyloTree, _edge


class BuildState:
    """Mutable network-under-construction plus the edge-image maps of both
    forests; single-threaded use only."""

    def __init__(self, terminal_label, terminal_vertices):
        # network vertex -> frozenset of neighbours
        self.adj = {0: frozenset()}
        self.labels = {0: terminal_label}
        self.vertex_of = {terminal_label: 0}
        self.next_id = 1
        self.edge_count = 0
        # per side: tree vertex id -> network vertex
        self.vmap = ({terminal_vertices[0]: 0}, {terminal_vertices[1]: 0})
        # per side: sorted tree-edge pair -> tuple of network vertices,
        # oriented from the image of the smaller tree vertex id
        self.epath = ({}, {})
        # per side: sorted network-edge pair -> key of the image using it
        self.owner = ({}, {})

    # -- network primitives --------------------------------------------------

    def _new_vertex(self):
        v = self.next_id
        self.next_id += 1
        self.adj[v] = frozenset()
        return v

    def _connect(self, u, v):
        adj = self.adj
        if v not in adj[u]:
            adj[u] = adj[u] | {v}
            adj[v] = adj[v] | {u}
            self.edge_count += 1

    def reticulation(self):
        return self.edge_count - len(self.adj) + 1

    def edges(self):
        return [(u, v) for u, ns in self.adj.items() for v in ns if u < v]

    def pendant_edge(self, label):
        v = self.vertex_of[label]
        (u,) = self.adj[v]
        return (v, u)

    def subdivide(self, u, v):
        """Split network edge {u, v} with a fresh vertex and patch the
        image path through it on each side, if there is one."""
        adj = self.adj
        if v not in adj[u]:
            raise ImageTrackingError("edge (%r, %r) is not in the network" % (u, v))
        w = self._new_vertex()
        adj[u] = adj[u] - {v} | {w}
        adj[v] = adj[v] - {u} | {w}
        adj[w] = frozenset((u, v))
        self.edge_count += 1
        for side in (0, 1):
            key = self.owner[side].pop(_edge(u, v), None)
            if key is None:
                continue
            path = self.epath[side][key]
            i = path.index(u)
            if i + 1 < len(path) and path[i + 1] == v:
                i += 1
            elif not (i > 0 and path[i - 1] == v):
                raise ImageTrackingError("indexed image misses edge (%r, %r)" % (u, v))
            self.epath[side][key] = path[:i] + (w,) + path[i:]
            self._own(side, key, ((u, w), (w, v)))
        return w

    def add_leaf(self, label, attach):
        leaf = self._new_vertex()
        self.labels[leaf] = label
        self.vertex_of[label] = leaf
        self._connect(attach, leaf)
        return leaf

    # -- image-path bookkeeping ----------------------------------------------

    def _own(self, side, key, network_edges):
        owner = self.owner[side]
        for u, v in network_edges:
            e = _edge(u, v)
            if owner.setdefault(e, key) != key:
                raise ImageTrackingError(
                    "network edge %r lies on two images of one forest" % (e,)
                )

    def set_path(self, side, a, b, path_from_a_to_b):
        key = _edge(a, b)
        if key in self.epath[side]:
            raise ImageTrackingError("forest edge %r already has an image" % (key,))
        path = tuple(path_from_a_to_b)
        if b < a:
            path = path[::-1]
        self.epath[side][key] = path
        self._own(side, key, zip(path, path[1:]))

    def pop_path(self, side, a, b):
        key = _edge(a, b)
        path = self.epath[side].pop(key, None)
        if path is None:
            raise ImageTrackingError("no tracked image for forest edge %r" % (key,))
        owner = self.owner[side]
        for u, v in zip(path, path[1:]):
            owner.pop(_edge(u, v), None)
        return path if a < b else path[::-1]

    def peek_path(self, side, a, b):
        key = _edge(a, b)
        path = self.epath[side].get(key)
        if path is None:
            raise ImageTrackingError("no tracked image for forest edge %r" % (key,))
        return path

    def _split_merged(self, side, merged, suppressed, w):
        """Replace the image of a merged edge by the images of the two
        edges it came from, meeting at the new vertex w."""
        n1, n2 = merged
        old = self.pop_path(side, n1, n2)
        if w not in old:
            raise ImageTrackingError("subdivision vertex missed the tracked path")
        i = old.index(w)
        self.vmap[side][suppressed] = w
        self.set_path(side, n1, suppressed, old[: i + 1])
        self.set_path(side, suppressed, n2, old[i:])

    def _host(self, side, end):
        """The network edge whose subdivision re-opens `end` of a removed
        edge: a leaf end's pendant edge, or the first edge of the image
        that a suppressed end's two edges were merged into."""
        if end.kind == "leaf":
            return self.pendant_edge(end.label)
        path = self.peek_path(side, *end.merged_edge)
        if len(path) < 2:
            raise ImageTrackingError("tracked image path is degenerate")
        return (path[0], path[1])

    def _reopen(self, side, end, w):
        """Re-open `end` of a removed edge at network vertex `w`, the
        subdivision of its host (None when the network is a single
        vertex); returns the image path from w out to the end."""
        if end.kind == "leaf":
            leaf = self.vertex_of[end.label]
            if self.vmap[side].get(end.vertex) != leaf:
                raise ImageTrackingError("singleton image out of sync")
            return [leaf] if w is None else [w, leaf]
        if w is None:
            raise ImageTrackingError("suppression undo needs a subdivision")
        self._split_merged(side, end.merged_edge, end.vertex, w)
        return [w]

    # -- undo operations -------------------------------------------------

    def attach_leaf(self, step, rec_l, rec_r):
        """Undo a C1 or C3 step by inserting a pendant leaf; the
        reticulation number is unchanged."""
        x = step.label
        recs = (rec_l, rec_r)
        before_r = self.reticulation()

        if len(self.adj) == 1:
            # the network is a single labeled vertex; grow it into an edge
            x_v = self.add_leaf(x, next(iter(self.adj)))
            w = None
        else:
            if step.rule == "C1":
                host = self.pendant_edge(step.y)
            else:
                ends = [(s, r.far) for s, r in enumerate(recs) if r.far is not None]
                if ends:
                    host = self._host(*ends[0])
                else:
                    # isolated in both forests: any edge works; use the
                    # pendant edge of the smallest leaf for determinism
                    host = self.pendant_edge(min(self.vertex_of))
            w = self.subdivide(*host)
            x_v = self.add_leaf(x, w)

        for side, rec in enumerate(recs):
            self.vmap[side][rec.leaf_vertex] = x_v
            if rec.far is not None:
                path = [x_v] + self._reopen(side, rec.far, w)
                self.set_path(side, rec.leaf_vertex, rec.far.vertex, path)

        if self.reticulation() != before_r:
            raise ImageTrackingError("pendant insertion changed the reticulation number")

    def add_display_edge(self, side, removal):
        """Undo a C2 step by inserting one new edge whose endpoints
        subdivide the hosts of the cut's two ends; the reticulation
        number grows by exactly one."""
        before_r = self.reticulation()
        eff_a, eff_b = removal.effects
        hosts = [self._host(side, eff) for eff in removal.effects]
        if eff_a.kind == "suppressed" and eff_b.kind == "suppressed":
            pa = set(self.peek_path(side, *eff_a.merged_edge))
            pb = set(self.peek_path(side, *eff_b.merged_edge))
            if pa & pb:
                raise ImageTrackingError("images of the split components overlap")

        va, vb = [self.subdivide(*host) for host in hosts]
        self._connect(va, vb)
        part_a = self._reopen(side, eff_a, va)
        part_b = self._reopen(side, eff_b, vb)
        self.set_path(side, *removal.edge, part_a[::-1] + part_b)

        if self.reticulation() != before_r + 1:
            raise ImageTrackingError("display edge did not add exactly one cycle")

    # -- verification ------------------------------------------------------

    def verify_images(self, state):
        """The whole image check of both forests of `state`: every path,
        endpoint and leaf of every component, in component order, and
        vertex-disjoint images for the components of each forest."""
        adj = self.adj
        for side, forest in enumerate(state):
            vmap, epath = self.vmap[side], self.epath[side]
            claimed = set()
            for tree in forest.components:
                comp_vertices = set()
                for a in tree.adj:
                    if a not in vmap:
                        raise ImageTrackingError("unmapped tree vertex %r" % (a,))
                    comp_vertices.add(vmap[a])
                for a, ns in tree.adj.items():
                    for b in ns:
                        if b < a:
                            continue
                        path = epath.get((a, b))
                        if path is None:
                            raise ImageTrackingError(
                                "no tracked image for forest edge %r" % ((a, b),)
                            )
                        if path[0] != vmap[a] or path[-1] != vmap[b]:
                            raise ImageTrackingError("path endpoints out of sync")
                        u = path[0]
                        for v in path[1:]:
                            if v not in adj[u]:
                                raise ImageTrackingError("tracked path leaves the network")
                            u = v
                        comp_vertices.update(path)
                if not claimed.isdisjoint(comp_vertices):
                    raise ImageTrackingError(
                        "component images share vertices %s"
                        % sorted(claimed & comp_vertices)
                    )
                claimed |= comp_vertices
                for lab, tv in tree.vertex_of.items():
                    if vmap[tv] != self.vertex_of[lab]:
                        raise ImageTrackingError("leaf %r mapped to the wrong vertex" % lab)


def _ids_apart(forest):
    """The forest itself when no two components share a vertex id, else
    the forest with its components renumbered apart: vertex ids are
    private to each tree, but the image maps key them per forest."""
    ids = [v for tree in forest.components for v in tree.adj]
    if len(set(ids)) == len(ids):
        return forest
    comps, base = [], 0
    for tree in forest.components:
        new = {v: base + i for i, v in enumerate(tree.adj)}
        base += len(new)
        adj = {new[v]: [new[w] for w in ns] for v, ns in tree.adj.items()}
        comps.append(PhyloTree(adj, {new[v]: lab for v, lab in tree.labels.items()}))
    return Forest(comps)


def build_network(F, F2, trace, verify=True):
    """A phylogenetic network on the shared label set displaying both
    forests, with reticulation number at most the trace weight.  The
    replay holds one state at a time; the undo steps read only its final
    state and its records.  With `verify` the images of both forests are
    checked once, after the last undo step, on the forests replayed (see
    the module doc); the multi-edge and weight checks run either way."""
    F, F2 = _ids_apart(F), _ids_apart(F2)
    replay = replay_trace(F, F2, trace)

    last_F, last_F2 = replay.final
    state = BuildState(
        replay.terminal,
        (
            last_F.components[0].vertex_of[replay.terminal],
            last_F2.components[0].vertex_of[replay.terminal],
        ),
    )
    for i in range(len(trace.steps) - 1, -1, -1):
        rec = replay.records[i]
        if rec[0] == "drop":
            state.attach_leaf(trace.steps[i], rec[1], rec[2])
        else:
            state.add_display_edge(rec[1], rec[2])
    if verify:
        state.verify_images((F, F2))

    network = PseudoNetwork(state.edges(), state.labels)
    if not network.is_simple:
        raise ImageTrackingError("reverse replay produced a multi-edge")
    if reticulation_number(network) > replay.weight:
        raise ImageTrackingError("reticulation number exceeds the trace weight")
    return network
