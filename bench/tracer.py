"""Span tracing for the benchmark's traced run.

The tracer wraps the program's public functions at the names their
callers look up (``cherrypick.search.apply_step`` is the binding the
search calls; ``cherrypick.apply_step`` would miss it), records one span
per call as (name, parent, start, end) in flat arrays, and derives call
counts, inclusive time and self time per function.  Self time is a span's
duration minus the time covered by its child spans.  Nothing under
``src/`` changes, and every wrapper is removed when the traced pass ends.
"""

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def _greedy_weight(counts, args, result):
    counts["search.greedy_weight"] += result.weight


def _steps_undone(counts, args, result):
    counts["builder.steps_undone"] += len(args[2].steps)


# (module, attribute, span name, optional counting hook); a span name is
# "<layer>.<function>" with the layer named after its module.
TARGETS = [
    ("cherrypick", "min_weight_cps", "search.min_weight_cps", None),
    ("cherrypick.search", "greedy_cps", "search.greedy_cps", _greedy_weight),
    ("cherrypick.search", "applicable_steps", "reductions.applicable_steps", None),
    ("cherrypick.search", "apply_step", "reductions.apply_step", None),
    ("cherrypick.reductions", "check_step", "reductions.check_step", None),
    ("cherrypick", "validate_trace", "reductions.validate_trace", None),
    ("cherrypick.reductions", "replay_trace", "reductions.replay_trace", None),
    ("cherrypick.builder", "replay_trace", "reductions.replay_trace", None),
    ("cherrypick.reductions", "remove_leaf_traced", "trees.remove_leaf_traced", None),
    ("cherrypick.reductions", "remove_edge_traced", "trees.remove_edge_traced", None),
    ("cherrypick", "build_network", "builder.build_network", _steps_undone),
    ("cherrypick", "parse_forest", "newick.parse_forest", None),
    ("cherrypick", "parse_trace", "newick.parse_trace", None),
    ("cherrypick", "parse_network", "newick.parse_network", None),
    ("cherrypick", "serialize_trace", "newick.serialize_trace", None),
    ("cherrypick", "serialize_network", "newick.serialize_network", None),
    ("cherrypick", "reticulation_number", "networks.reticulation_number", None),
    ("cherrypick.builder", "reticulation_number", "networks.reticulation_number", None),
    ("cherrypick", "blobs", "networks.blobs", None),
    ("cherrypick", "simplify", "networks.simplify", None),
    ("cherrypick", "displays", "oracles.displays", None),
]

ROOT_SPAN = "bench.instance"


class Tracer:
    """Spans of one traced pass, held in memory until ``table``/``dump``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts = dict.fromkeys(
            ("trees.tree_builds", "search.greedy_weight", "builder.steps_undone"), 0
        )

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name):
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.current = i
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self.current = self.parent[i]

    def wrap(self, name, fn, hook):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(self.current)
            ends.append(0.0)
            self.current = i
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                self.current = parents[i]
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def table(self):
        """Per function: [calls, inclusive s, self s], overall and per
        pipeline stage (the call directly under an instance span)."""
        n = len(self.start)
        root = self._ids.get(ROOT_SPAN)
        inner = [0.0] * n
        stage = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += self.end[i] - self.start[i]
                stage[i] = i if self.name[p] == root else stage[p]
        overall, by_stage = {}, {}
        for i in range(n):
            if self.name[i] == root:
                continue
            name = self.names[self.name[i]]
            took = self.end[i] - self.start[i]
            where = self.names[self.name[stage[i]]] if stage[i] >= 0 else "-"
            for rows in (overall, by_stage.setdefault(where, {})):
                row = rows.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += took
                row[2] += took - inner[i]
        return overall, by_stage

    def dump(self, path):
        """Write every span as JSON lines [id, name, parent, start_s, end_s],
        times relative to the first span, gzip-compressed."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"fields": ["id", "name", "parent", "start_s", "end_s"]}) + "\n")
            for i in range(len(self.start)):
                out.write(
                    "[%d,%s,%d,%.7f,%.7f]\n"
                    % (i, json.dumps(self.names[self.name[i]]), self.parent[i],
                       self.start[i] - t0, self.end[i] - t0)
                )


@contextmanager
def installed(tracer):
    """Route the traced names through ``tracer`` and count PhyloTree
    constructions; restore every original on exit."""
    saved = []
    try:
        for module, attr, span, hook in TARGETS:
            owner = sys.modules[module]
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, hook))
        tree_cls = sys.modules["cherrypick.trees"].PhyloTree
        init = tree_cls.__init__
        counts = tracer.counts

        def counted_init(self, adj, labels):
            counts["trees.tree_builds"] += 1
            init(self, adj, labels)

        saved.append((tree_cls, "__init__", init))
        tree_cls.__init__ = counted_init
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
