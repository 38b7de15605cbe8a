"""Brute-force verifiers.

Two oracles cross-check the picking calculus at desk scale: exact TBR
distance by breadth-first search over the move graph of unrooted binary
trees, and display checking by exhaustive backtracking over subdivision
embeddings with the leaf map fixed.  The display search prunes only
branches that cannot complete: it places an internal tree vertex only at
a network vertex with two free neighbours, and at each step of the path
walk toward that vertex it enters a vertex only while every leaf on the
tree vertex's far side stays reachable from it through unused unlabelled
vertices, since the image of that side is connected, avoids every used
vertex and passes through no leaf.  Its verdicts and witnesses are those
of the plain backtracking.  Both oracles are deliberately simple and
share no code with the search, the reduction rules or the network
builder they judge, nor with the surgery and the parser.  They share
only the tree values: trees are ``PhyloTree`` values compared by their
canonical Newick form, and a TBR move splits a tree into the
restrictions to the two leaf sets of the cut edge.  The ``cherrypick
tbr`` command runs the exact solver, not this BFS.
"""

from collections import deque
from typing import NamedTuple

from .errors import GroundSetMismatch, ScaleGuard, TooSmall
from .trees import PhyloTree, restrict, _edge


# ---------------------------------------------------------------------------
# TBR moves


def _attach_points(tree):
    if tree.num_vertices == 1:
        return [("vertex", next(iter(tree.adj)))]
    return [("edge", e) for e in tree.edges()]


def _reconnect(part_a, point_a, part_b, point_b):
    adj = {v: set(ns) for v, ns in part_a.adj.items()}
    adj.update({v: set(ns) for v, ns in part_b.adj.items()})
    labels = dict(part_a.labels)
    labels.update(part_b.labels)
    fresh = max(adj) + 1
    ends = []
    for kind, what in (point_a, point_b):
        if kind == "vertex":
            ends.append(what)
        else:
            u, v = what
            w = fresh
            fresh += 1
            adj[u].discard(v)
            adj[v].discard(u)
            adj[w] = {u, v}
            adj[u].add(w)
            adj[v].add(w)
            ends.append(w)
    adj[ends[0]].add(ends[1])
    adj[ends[1]].add(ends[0])
    return PhyloTree(adj, labels)


def _tbr_trees(tree):
    """Every tree one TBR move away, keyed by canonical form: cut any
    edge, suppress, reconnect the parts by one new edge attached at an
    edge subdivision point (or directly to a single-vertex part).  The
    tree itself is among them."""
    out = {}
    for edge in tree.edges():
        side = tree.side_leaves(edge, edge[0])
        part_a = restrict(tree, side)
        part_b = restrict(tree, tree.leaf_labels - side)
        for point_a in _attach_points(part_a):
            for point_b in _attach_points(part_b):
                candidate = _reconnect(part_a, point_a, part_b, point_b)
                out[candidate.canonical] = candidate
    return out


def tbr_neighbors(tree):
    """Canonical forms of every tree one TBR move away; the tree itself
    is excluded."""
    if len(tree.leaf_labels) < 4:
        raise TooSmall("TBR moves need at least four leaves")
    return set(_tbr_trees(tree)) - {tree.canonical}


def tbr_distance_bfs(tree, tree2):
    """Exact BFS distance in the TBR move graph; zero exactly for
    label-isomorphic trees.  Raises GroundSetMismatch when the trees are
    on different label sets; the search has no cap, so keep the trees at
    desk scale."""
    if tree.leaf_labels != tree2.leaf_labels:
        raise GroundSetMismatch("trees are on different label sets")
    target = tree2.canonical
    if tree.canonical == target:
        return 0
    frontier = {tree.canonical: tree}
    visited = set(frontier)
    dist = 0
    while frontier:
        dist += 1
        nxt = {}
        # sorted order, so the work done (never the answer: the search is
        # level by level) does not depend on the string hash seed
        for canon in sorted(frontier):
            for nb, nb_tree in _tbr_trees(frontier[canon]).items():
                if nb == target:
                    return dist
                if nb not in visited:
                    visited.add(nb)
                    nxt[nb] = nb_tree
        frontier = nxt
    raise GroundSetMismatch("move graph exhausted without reaching the target")


# ---------------------------------------------------------------------------
# display checking

DISPLAY_MAX_VERTICES = 40


class ComponentImage(NamedTuple):
    """The subdivision image of one tree: an injective vertex map plus a
    network path for every tree edge (endpoints included)."""

    vertex_map: dict
    edge_paths: dict

    @property
    def vertices(self):
        used = set(self.vertex_map.values())
        for path in self.edge_paths.values():
            used.update(path)
        return frozenset(used)

    def network_edges(self):
        out = set()
        for path in self.edge_paths.values():
            for a, b in zip(path, path[1:]):
                out.add(_edge(a, b))
        return sorted(out)


class EmbeddingImage(NamedTuple):
    """Vertex-disjoint subdivision images of a forest's components,
    aligned with the forest's component order."""

    images: tuple


def _embed_tree(network, neighbors, tree, used):
    """Yield ComponentImages of `tree` inside `network` avoiding `used`
    vertices; `used` is extended while a candidate is yielded and restored
    on backtracking.  `neighbors` maps each network vertex to its sorted
    distinct neighbours."""
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

    # order edges so each one extends an already-placed endpoint
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

    # the network leaves of each tree vertex's far side from the anchor,
    # gathered in one reverse pass over the edge order
    far = {v: [] for v in tree.adj}
    for v, label in tree.labels.items():
        far[v].append(network.vertex_of[label])
    for a, b in reversed(order):
        far[a].extend(far[b])

    phi = {anchor_v: net_anchor}
    paths = {}
    used.add(net_anchor)

    def reaches_all(start, leaves):
        """Whether every network leaf in `leaves` is reachable from
        `start` through unlabelled network vertices that are not used."""
        pending = set(leaves)
        seen = {start}
        stack = [start]
        while stack:
            for w in neighbors[stack.pop()]:
                if w in seen or w in used:
                    continue
                seen.add(w)
                if w in network.labels:
                    pending.discard(w)
                    if not pending:
                        return True
                else:
                    stack.append(w)
        return not pending

    def candidate_paths(start, target, leaves):
        """Simple paths from `start` (a used vertex) through unused
        vertices, in depth-first order on one stack of neighbour
        iterators.  The path's vertices are in `used` while it is
        yielded, and the yielded list is valid until the walk resumes.
        With `target` None the path ends at an unlabelled vertex, and the
        walk enters one only while every network leaf in `leaves` stays
        reachable from it; ``displays`` states why that loses nothing."""
        path = [start]
        stack = [iter(neighbors[start])]
        while stack:
            for w in stack[-1]:
                if w in used:
                    continue
                if w == target:
                    path.append(w)
                    used.add(w)
                    yield path
                    used.discard(w)
                    path.pop()
                    continue
                if w in network.labels or target is None and not reaches_all(w, leaves):
                    continue
                path.append(w)
                used.add(w)
                # an internal tree vertex ending here still has two edges
                # to place from w, each through its own unused neighbour;
                # with fewer, no embedding ends this way
                if target is None and sum(x not in used for x in neighbors[w]) >= 2:
                    yield path
                stack.append(iter(neighbors[w]))
                break
            else:
                stack.pop()
                if len(path) > 1:
                    used.discard(path.pop())

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
        for path in candidate_paths(phi[a], target, far[b]):
            phi[b] = path[-1]
            paths[_edge(a, b)] = list(path) if a < b else path[::-1]
            # no far-leaf test here: the walk made it at each step, and a
            # path whose end cuts off a far leaf of b is never yielded
            yield from place(idx + 1)
            del paths[_edge(a, b)]
            del phi[b]

    yield from place(0)
    used.discard(net_anchor)


def displays(network, forest):
    """A witness embedding if the network displays the forest (vertex
    disjoint subdivision images, leaf x mapped to leaf x), else None.

    Exhaustive backtracking that skips only branches which would fail.
    An internal tree vertex b ends only at a network vertex with two free
    neighbours.  Its far subtree (seen from the anchor leaf) has a
    connected image that holds b's end, avoids every used vertex and
    passes through no leaf, so the end must reach every far leaf through
    unused unlabelled vertices.  The path walk toward b tests that at
    each step: it enters a vertex w only if every far leaf is reachable
    from w avoiding the used vertices and the walk's own path.  Skipping
    w loses nothing, by a prefix argument: if a path continuing through
    w ended at a vertex that reaches every far leaf, then w would reach
    them too, by following that path and then the route from its end.
    The surviving paths come in the same order, so the first witness
    found, or None, is the one the plain backtracking gives.

    Guarded to desk scale: a network above ``DISPLAY_MAX_VERTICES`` (40)
    vertices raises ScaleGuard, and forest labels missing from the
    network raise GroundSetMismatch.
    """
    if network.num_vertices > DISPLAY_MAX_VERTICES:
        raise ScaleGuard(
            "display check limited to %d vertices (got %d)"
            % (DISPLAY_MAX_VERTICES, network.num_vertices)
        )
    missing = forest.ground_set - network.leaf_labels
    if missing:
        raise GroundSetMismatch("forest labels not in network: %s" % sorted(missing))

    comps = sorted(
        range(len(forest.components)),
        key=lambda i: -forest.components[i].num_vertices,
    )
    neighbors = {v: network.simple_neighbors(v) for v in network.adj}
    used = set()
    found = {}

    def place(k):
        if k == len(comps):
            return True
        idx = comps[k]
        for image in _embed_tree(network, neighbors, forest.components[idx], used):
            found[idx] = image
            if place(k + 1):
                return True
        found.pop(comps[k], None)
        return False

    if place(0):
        return EmbeddingImage(tuple(found[i] for i in range(len(forest.components))))
    return None
