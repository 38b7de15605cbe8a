"""The value records (surgery records, steps, traces, blobs, images and
search results) are named tuples: immutable, compared and hashed by
their fields, with the field names, defaults and repr they always had."""

import subprocess
import sys

import pytest

from cherrypick.builder import build_network
from cherrypick.networks import Blob, SimplificationResult, blobs, simplify
from cherrypick.newick import parse_forest
from cherrypick.oracles import ComponentImage, EmbeddingImage
from cherrypick.reductions import ReductionStep, ReductionTrace, ReplayResult
from cherrypick.search import SearchResult, SearchStats, greedy_cps, min_weight_cps
from cherrypick.trees import (
    EdgeRef,
    EdgeRemoval,
    EndpointEffect,
    LeafRemoval,
    PendantShape,
    _edge,
    pendant_of,
    subtree_edge,
)

from util import child_env

F = parse_forest("(1,3);\n((2,4),(5,6));")
F2 = parse_forest("((1,2),((3,4),(5,6)));")
STEP = ReductionStep("a", "C2a_i", "reversed", y="b", cut="e_x")
TRACE = ReductionTrace((ReductionStep("a", "C1", y="b"),), terminal="b")
IMAGE = ComponentImage({0: 5}, {(0, 1): (5, 6)})

# (type, its fields in order, the defaults of the trailing ones, the
# arguments of one value); each value is built twice to compare
VALUES = [
    (EndpointEffect, ("vertex", "kind", "label", "merged_edge"),
     {"label": None, "merged_edge": None}, ((3, "suppressed"), {"merged_edge": (1, 2)})),
    (LeafRemoval, ("leaf_vertex", "far"), {"far": None},
     ((4,), {"far": EndpointEffect(3, "leaf", label="a")})),
    (EdgeRemoval, ("edge", "effects"), {},
     (((1, 2), (EndpointEffect(1, "leaf", "a"), EndpointEffect(2, "suppressed"))), {})),
    (PendantShape, ("kind", "p", "q", "proper", "e_p", "e_q", "e_pq", "cut_edge"),
     {"q": None, "proper": False, "e_p": None, "e_q": None, "e_pq": None, "cut_edge": None},
     (("xyp", "p"), {"e_p": (2, 5)})),
    (EdgeRef, ("kind", "label", "subtree_leaves"), {"label": None, "subtree_leaves": None},
     (("subtree",), {"subtree_leaves": frozenset("ab")})),
    (ReductionStep, ("label", "rule", "orientation", "y", "p", "q", "cut"),
     {"orientation": "forward", "y": None, "p": None, "q": None, "cut": None},
     (("a", "C2a_i", "reversed"), {"y": "b", "cut": "e_x"})),
    (ReductionTrace, ("steps", "terminal"), {"terminal": None}, (((STEP,),), {})),
    (ReplayResult, ("weight", "terminal", "final", "records"), {},
     ((0, "b", (F, F2), ()), {})),
    (Blob, ("vertices", "edges", "incident_edges", "leaves", "pendant"), {},
     ((frozenset({0, 1}), ((0, 1), (0, 1)), ((0, 2),), frozenset("a"), True), {})),
    (SimplificationResult, ("result", "suppressed_count"), {}, ((F, 0), {})),
    (ComponentImage, ("vertex_map", "edge_paths"), {}, (({0: 5}, {(0, 1): (5, 6)}), {})),
    (EmbeddingImage, ("images",), {}, (((IMAGE,),), {})),
    (SearchResult, ("status", "lower", "upper", "witness", "stats"), {},
     (("exact", 0, 0, TRACE, SearchStats()), {})),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.mark.parametrize("cls, fields, defaults, args", VALUES, ids=IDS)
def test_value_records_keep_their_fields_defaults_and_value_semantics(cls, fields, defaults, args):
    positional, keywords = args
    x, y = cls(*positional, **keywords), cls(*positional, **keywords)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert x == y and x is not y
    if cls in (ComponentImage, EmbeddingImage):
        with pytest.raises(TypeError):  # their maps are dicts, as before
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    # the new tuple behaviour: unpacking, and equality with the bare fields
    assert tuple(x) == tuple(getattr(x, name) for name in fields) == x
    changed = x._replace(**{fields[0]: "other"})
    assert changed != x and getattr(changed, fields[0]) == "other"
    assert changed[1:] == x[1:]


def test_value_records_keep_their_repr():
    assert repr(ReductionStep("a", "C1", y="b")) == (
        "ReductionStep(label='a', rule='C1', orientation='forward', y='b', p=None, q=None, cut=None)"
    )
    assert repr(pendant_of("x")) == "EdgeRef(kind='pendant', label='x', subtree_leaves=None)"
    assert repr(subtree_edge(["p"])) == (
        "EdgeRef(kind='subtree', label=None, subtree_leaves=frozenset({'p'}))"
    )
    two = ReductionTrace((ReductionStep("a", "C1", y="b"), STEP), terminal="b")
    assert repr(two) == (
        "ReductionTrace(steps=(ReductionStep(label='a', rule='C1', orientation='forward', y='b',"
        " p=None, q=None, cut=None), ReductionStep(label='a', rule='C2a_i', orientation='reversed',"
        " y='b', p=None, q=None, cut='e_x')), terminal='b')"
    )


def test_trace_length_is_its_step_count_and_replace_keeps_the_steps():
    g = parse_forest("((1,2),((3,4),(5,6)));")
    trace = greedy_cps(g, g)
    assert len(trace.steps) == 5 and len(trace) == 5 and trace
    assert not ReductionTrace(())
    # _replace and _make count fields, not steps
    renamed = trace._replace(terminal="z")
    assert renamed.steps == trace.steps and renamed.terminal == "z" and len(renamed) == 5
    assert ReductionTrace._make((trace.steps, "z")) == renamed
    with pytest.raises(TypeError):
        ReductionTrace._make((trace.steps, "z", "extra"))


def test_step_replace_gives_a_new_step():
    step = ReductionStep("a", "C1", y="b")
    moved = step._replace(y="c")
    assert moved == ReductionStep("a", "C1", y="c") and step.y == "b"
    assert moved.cost == 0 and moved.describe() == "C1 a y=c"


def test_edge_in_blob_tests_the_blob_edges():
    result = min_weight_cps(F, F2)
    network = build_network(F, F2, result.witness)
    (blob,) = blobs(network)
    inside = 0
    for u, v in network.edge_list:
        want = _edge(u, v) in blob.edges
        assert ((u, v) in blob) == ((v, u) in blob) == want
        inside += want
    assert inside == len(set(blob.edges)) > 0
    assert simplify(network).suppressed_count == 0


def test_search_stats_is_a_slots_record_in_field_order():
    fields = [
        "nodes", "memo_hits", "elapsed", "applied", "forced", "level_nodes", "memo_size",
        "stop_reason",
    ]
    stats = SearchStats()
    assert list(stats._asdict()) == fields
    assert repr(stats) == (
        "SearchStats(nodes=0, memo_hits=0, elapsed=0.0, applied=0, forced=0, level_nodes=[],"
        " memo_size=0, stop_reason=None)"
    )
    assert stats.level_nodes is not SearchStats().level_nodes
    with pytest.raises(AttributeError):
        stats.extra = 1
    result = min_weight_cps(F, F2)
    assert list(result.stats._asdict()) == fields
    assert result.stats.stop_reason == "exact" and result.stats.nodes > 0


def test_importing_the_cli_loads_no_dataclasses():
    # -S: no site hooks, so only the package's own imports are seen
    code = "import sys, cherrypick.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
