"""The search output digest in tools/search_digest.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_digest.py"
spec = importlib.util.spec_from_file_location("search_digest", TOOL)
search_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(search_digest)


def test_inputs_are_the_seeded_forest_pairs_and_one_transposition_tree_pairs():
    forests = list(search_digest.forest_pairs())
    assert len(forests) == 360
    assert all(F.ground_set == F2.ground_set for F, F2 in forests)
    trees = list(search_digest.transposition_pairs())
    assert [len(F.ground_set) for F, _ in trees] == [n for n in range(10, 15) for _ in range(6)]
    for F, F2 in trees:
        (T,), (T2,) = F.components, F2.components
        assert T.adj == T2.adj
        assert sum(T.labels[v] != T2.labels[v] for v in T.labels) == 2

