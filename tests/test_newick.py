"""Document parsing and serialization."""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cherrypick.cli import main
from cherrypick.errors import (
    DegreeViolation,
    Disconnected,
    DuplicateLabel,
    NonBinary,
    ParseError,
    SchemaError,
    TripleEdge,
)
from cherrypick.generate import random_forest, random_tree, seeded_rng
from cherrypick.networks import network_from_tree
from cherrypick.newick import (
    _parse_newick_line,
    parse_forest,
    parse_network,
    parse_trace,
    serialize_forest,
    serialize_network,
    serialize_trace,
)
from cherrypick.reductions import RULES, ReductionStep, ReductionTrace
from cherrypick.trees import canonical_form

from util import networks_isomorphic


# ---------------------------------------------------------------------------
# forests


def test_parse_two_component_forest():
    f = parse_forest("(1,3);\n((2,4),(5,6));")
    assert len(f.components) == 2
    assert f.ground_set == {"1", "2", "3", "4", "5", "6"}
    assert f.cherries() == [("1", "3"), ("2", "4"), ("5", "6")]


def test_parse_singleton():
    f = parse_forest("x;")
    assert len(f.components) == 1
    assert f.components[0].num_vertices == 1


def test_parse_isolated_edge():
    f = parse_forest("(x,y);")
    assert f.components[0].num_vertices == 2


def test_parse_three_child_root_unroots_validly():
    f = parse_forest("((1,2),(3,4),(5,6));")
    t = f.components[0]
    assert t.leaf_labels == {"1", "2", "3", "4", "5", "6"}
    assert all(t.degree(t.vertex_of[l]) == 1 for l in t.leaf_labels)


def test_parse_four_child_root_errors():
    with pytest.raises(NonBinary) as exc:
        parse_forest("(1,2,3,4);")
    assert exc.value.line == 1 and exc.value.column == 1


def test_parse_nonbinary_internal_node():
    with pytest.raises(NonBinary) as exc:
        parse_forest("((1,2,3),(4,5));")
    assert exc.value.line == 1


def test_parse_comments_and_blank_lines():
    f = parse_forest("# a comment\n\n(1,2); # trailing\n\n3;\n")
    assert canonical_form(f) == canonical_form(parse_forest("(1,2);\n3;"))


def test_parse_duplicate_label_positions():
    with pytest.raises(DuplicateLabel) as exc:
        parse_forest("(1,2);\n(2,3);")
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_parse_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_forest("((1,2),(3,4);")
    assert exc.value.line == 1 and exc.value.column is not None


def test_parse_branch_lengths_rejected():
    with pytest.raises(ParseError):
        parse_forest("(1:0.5,2:0.5);")


def test_parse_missing_semicolon():
    with pytest.raises(ParseError):
        parse_forest("(1,2)")


# Each fault of the line reader, with the column it is reported at; a
# fault at the end of a line is reported one past its last character.
LINE_FAULTS = [
    ("(1,);", ParseError, "expected a leaf label", 4),
    ("(1,", ParseError, "expected a leaf label", 4),
    ("( \t", ParseError, "expected a leaf label", 4),
    ("(1,2:0.5);", ParseError, "branch lengths are not supported", 5),
    ("(1,a\fb);", ParseError, "invalid character in label 'a\\x0cb'", 4),
    ("(1, 1);", DuplicateLabel, "duplicate label '1'", 5),
    ("(1 2);", ParseError, "expected ',' or ')'", 4),
    ("((1,2)", ParseError, "expected ',' or ')'", 7),
    ("((1,2,3),4);", NonBinary, "internal node with 3 children (need 2)", 2),
    ("(1,2,3,4);", NonBinary, "root with 4 children (need 2 or 3)", 1),
    (" (1);", NonBinary, "root with 1 children (need 2 or 3)", 2),
    ("(1,2)x;", ParseError, "expected ';'", 6),
    ("(1,2) ", ParseError, "expected ';'", 7),
    ("(1,2); x", ParseError, "unexpected text after ';'", 8),
    ("1;;", ParseError, "unexpected text after ';'", 3),
]


@pytest.mark.parametrize("content, cls, message, column", LINE_FAULTS)
def test_line_reader_faults(content, cls, message, column):
    # the line reader itself, since '\f' ends a line of a whole document
    with pytest.raises(ParseError) as exc:
        _parse_newick_line(content, 3, itertools.count(), {})
    assert type(exc.value) is cls
    assert (exc.value.line, exc.value.column) == (3, column)
    assert str(exc.value) == "%s (line 3, column %d)" % (message, column)


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_forest("# only a comment\n")


def test_serialize_is_canonical_and_deterministic():
    a = parse_forest("((1,2),(3,4));")
    b = parse_forest("((4,3),(2,1));")
    assert serialize_forest(a) == serialize_forest(b)
    assert serialize_forest(parse_forest("x;")) == "x;\n"


def test_parse_orders_components_canonically():
    lines = ["(5,6);", "((1,2),(3,4));", "7;"]
    want = sorted(parse_forest(line).canonical for line in lines)
    for perm in itertools.permutations(lines):
        f = parse_forest("\n".join(perm))
        assert [t.canonical for t in f.components] == want


def test_forest_round_trip_random():
    rng = seeded_rng(2024)
    for _ in range(200):
        f = random_forest([str(i) for i in range(1, rng.randint(2, 10))] or ["1"],
                          1, rng)
        again = parse_forest(serialize_forest(f))
        assert canonical_form(again) == canonical_form(f)


def test_deep_caterpillar_round_trip():
    # nesting deeper than the recursion limit parses and canonicalises
    text = "t0"
    for i in range(1, 1500):
        text = "(%s,t%d)" % (text, i)
    f = parse_forest(text + ";")
    assert len(f.ground_set) == 1500
    assert canonical_form(parse_forest(serialize_forest(f))) == canonical_form(f)


# ---------------------------------------------------------------------------
# networks

FOUR_CYCLE = "1 -- a\n2 -- b\n3 -- c\n4 -- d\na -- b\nb -- c\nc -- d\nd -- a\n"


def test_parse_network_four_cycle():
    n = parse_network(FOUR_CYCLE)
    assert n.num_vertices == 8 and n.num_edges == 8
    assert n.num_edges - n.num_vertices + 1 == 1
    assert n.leaf_labels == {"1", "2", "3", "4"}


def test_parse_network_double_edge():
    doc = "x -- u\ny -- v\nu -- v\nu -- v\n"
    n = parse_network(doc)
    assert not n.is_simple
    assert n.multi_edges() != []


def test_parse_network_triple_edge():
    doc = "x -- u\ny -- v\nu -- v\nu -- v\nu -- v\n"
    with pytest.raises(TripleEdge) as exc:
        parse_network(doc)
    assert exc.value.line == 5


def test_parse_network_degree_violation():
    with pytest.raises(DegreeViolation):
        parse_network("a -- b\nb -- c\nc -- a\na -- x\nb -- y\nc -- z\nc -- w\n")


def test_parse_network_disconnected():
    with pytest.raises(Disconnected):
        parse_network("a -- x\na -- y\na -- z\nb -- p\nb -- q\nb -- r\n")


def test_parse_network_loop_rejected():
    with pytest.raises(ParseError) as exc:
        parse_network("u -- u\n")
    assert exc.value.line == 1


def test_parse_network_bad_line():
    with pytest.raises(ParseError) as exc:
        parse_network("a - b\n")
    assert exc.value.line == 1


def test_single_vertex_network_round_trip():
    n = parse_network("x\n")
    assert n.num_vertices == 1
    assert serialize_network(n) == "x\n"


def test_network_round_trip_four_cycle():
    n = parse_network(FOUR_CYCLE)
    again = parse_network(serialize_network(n))
    assert networks_isomorphic(n, again)


def test_network_serialization_idempotent():
    n = parse_network(FOUR_CYCLE)
    once = serialize_network(n)
    twice = serialize_network(parse_network(once))
    assert once == twice


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip():
    trace = ReductionTrace(
        (
            ReductionStep("1", "C2a_i", "forward", y="2", cut="e_x"),
            ReductionStep("1", "C3", "forward"),
            ReductionStep("2", "C1", "forward", y="3"),
        )
    )
    text = serialize_trace(trace)
    again = parse_trace(text)
    assert again.steps == trace.steps


def test_trace_unknown_rule():
    with pytest.raises(SchemaError):
        parse_trace('[{"label": "1", "rule": "C9", "orientation": "forward", "params": {}}]')


def test_trace_missing_partner():
    with pytest.raises(SchemaError):
        parse_trace('[{"label": "1", "rule": "C1", "orientation": "forward", "params": {}}]')


def test_trace_bad_cut_token():
    with pytest.raises(SchemaError):
        parse_trace(
            '[{"label": "1", "rule": "C2a_i", "orientation": "forward",'
            ' "params": {"y": "2", "cut": "e_q"}}]'
        )


def test_trace_not_json():
    with pytest.raises(SchemaError) as exc:
        parse_trace("[{]")
    assert exc.value.line is not None


def test_trace_extra_params_rejected():
    with pytest.raises(SchemaError):
        parse_trace(
            '[{"label": "1", "rule": "C3", "orientation": "forward",'
            ' "params": {"y": "2"}}]'
        )


def test_parse_accepts_crlf():
    f = parse_forest("(1,2);\r\n(3,4);\r\n")
    assert f.ground_set == {"1", "2", "3", "4"}
    n = parse_network("x -- u\r\ny -- v\r\nu -- v\r\nu -- v\r\n")
    assert n.num_edges == 4


# ---------------------------------------------------------------------------
# fuzzing: any document either parses or raises ParseError, and the CLI
# reports a document that does not parse with exit 2 and one error line


def caterpillar(depth):
    return "(" * depth + "x0," + ",".join("x%d)" % i for i in range(1, depth + 1)) + ";"


def big_network(n):
    tree = random_tree([str(i) for i in range(n)], seeded_rng(n))
    return serialize_network(network_from_tree(tree))


def truncated(docs):
    """A prefix of each generated document, down to the empty one."""
    return st.tuples(docs, st.integers(0, 10**6)).map(lambda d: d[0][: d[1] % (len(d[0]) + 1)])


# "\r" is left out, as the CLI reads documents with universal newlines,
# and so are surrogates, which a UTF-8 file cannot hold
TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=40
)
FOREST_DOCS = st.one_of(
    TEXT,
    st.text("(),;:# \tab12\n", max_size=60),
    truncated(st.integers(1, 3000).map(caterpillar)),
    st.integers(1, 5000).map(lambda d: "(" * d + "a" + ")" * d + ";"),
)
NAMES = st.sampled_from(["a", "b", "c", "v1", "v2", "--", "#", "a#b"])
NETWORK_LINES = st.one_of(
    st.builds("{} -- {}".format, NAMES, NAMES),
    st.builds("{} {} {}".format, NAMES, NAMES, NAMES),
    NAMES,
    st.text("ab -#\t1", max_size=12),
)
NETWORK_DOCS = st.one_of(
    TEXT,
    st.lists(NETWORK_LINES, max_size=12).map("\n".join),
    truncated(st.integers(4, 400).map(big_network)),
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.sampled_from(list(RULES) + ["e_x", "e_y", "e_p", "forward", "reversed", "1", "2"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["label", "rule", "orientation", "params", "y", "p", "q", "cut", "z"]),
        inner,
        max_size=5,
    ),
    max_leaves=20,
)
TRACE_DOCS = st.one_of(
    TEXT,
    JSON_VALUES.map(json.dumps),
    truncated(JSON_VALUES.map(json.dumps)),
    st.integers(1, 100_000).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 20_000).map(lambda d: '{"a":' * d + "1" + "}" * d),
)
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_parses_or_fails_cleanly(parse, doc, argv):
    """``parse(doc)`` returns or raises ParseError; when it raises, ``main``
    run on ``argv(path of doc, path of a valid forest)`` exits 2 with one
    ``error:`` line on stderr."""
    try:
        parse(doc)
        return
    except ParseError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = os.path.join(tmp, "bad"), os.path.join(tmp, "good.nwk")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(doc)
        with open(good, "w", encoding="utf-8") as fh:
            fh.write("((1,2),(3,4));\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv(bad, good))
    assert code == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@FUZZ
@given(FOREST_DOCS)
def test_fuzz_parse_forest(doc):
    assert_parses_or_fails_cleanly(
        parse_forest, doc, lambda bad, good: ["hybrid", "--forest1", bad, "--forest2", good]
    )


@FUZZ
@given(NETWORK_DOCS)
def test_fuzz_parse_network(doc):
    assert_parses_or_fails_cleanly(
        parse_network, doc, lambda bad, good: ["displays", "--network", bad, "--forest", good]
    )


@FUZZ
@given(TRACE_DOCS)
@example("[" * 100_000 + "]" * 100_000)  # deeper than the JSON decoder recurses
@example("[" + "1" * 5000 + "]")  # an integer past the int-from-text digit limit
@example('[{"rule": []}]')  # an unhashable rule
def test_fuzz_parse_trace(doc):
    assert_parses_or_fails_cleanly(
        parse_trace,
        doc,
        lambda bad, good: ["validate-trace", "--forest1", good, "--forest2", good, "--trace", bad],
    )
