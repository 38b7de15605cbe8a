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


def test_traced_search_and_replay_reach_the_wrapped_names():
    tracer_module = load_tracer()
    F = cherrypick.parse_forest("((1,2),(3,4));")
    F2 = cherrypick.parse_forest("((1,3),(2,4));")
    with tracer_module.installed(tracer_module.Tracer()) as tracer:
        result = cherrypick.min_weight_cps(F, F2)
        cherrypick.build_network(F, F2, result.witness)
    calls = {name: row[0] for name, row in tracer.table()[0].items()}
    for span in (
        "reductions.applicable_steps",
        "reductions.apply_step",
        "reductions.check_step",
        "reductions.replay_trace",
        "trees.remove_leaf_traced",
        "trees.remove_edge_traced",
    ):
        assert calls.get(span, 0) > 0, span
    assert tracer.counts["trees.tree_builds"] > 0
