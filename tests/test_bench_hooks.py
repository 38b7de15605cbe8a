"""The benchmark's traced run wraps program functions by the names their
callers look up (``bench/tracer.py``); a refactor that drops or stops
using one of those names breaks the traced run, so check them here."""

import importlib.util
import inspect
import sys
from pathlib import Path

import cherrypick
from cherrypick.trees import PhyloTree

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, attr, span, _ in load_tracer().TARGETS:
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr, span)


def test_tree_constructor_takes_adj_and_labels():
    assert list(inspect.signature(PhyloTree.__init__).parameters) == ["self", "adj", "labels"]


def traced_calls(tracer_module, first, second):
    """Span call counts and tree builds of a traced exact search and
    network rebuild on one forest pair."""
    F, F2 = cherrypick.parse_forest(first), cherrypick.parse_forest(second)
    with tracer_module.installed(tracer_module.Tracer()) as tracer:
        result = cherrypick.min_weight_cps(F, F2)
        cherrypick.build_network(F, F2, result.witness)
    return {name: row[0] for name, row in tracer.table()[0].items()}, tracer.counts["trees.tree_builds"]


def test_traced_search_and_replay_reach_the_wrapped_names():
    tracer_module = load_tracer()
    # the quartet's walk settles on a C2a_i step, so it lists no other step
    calls, tree_builds = traced_calls(tracer_module, "((1,2),(3,4));", "((1,3),(2,4));")
    for span in (
        "reductions.apply_step",
        "reductions.check_step",
        "reductions.replay_trace",
        "trees.remove_leaf_traced",
        "trees.remove_edge_traced",
    ):
        assert calls.get(span, 0) > 0, span
    assert tree_builds > 0
    # this pair's witness starts with a C2a_ii step, so the walk reads
    # past every C2a_i move before it applies a step
    first, second = "((((4,6),3),(2,5)),1);", "(((((3,6),4),5),2),1);"
    calls, _ = traced_calls(tracer_module, first, second)
    assert calls.get("reductions.apply_step", 0) > 0
    F, F2 = cherrypick.parse_forest(first), cherrypick.parse_forest(second)
    assert cherrypick.min_weight_cps(F, F2).witness.steps[0].rule == "C2a_ii"
