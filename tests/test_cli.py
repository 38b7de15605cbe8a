"""Command-line behaviour and exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cherrypick.builder import build_network
from cherrypick.cli import PAIR_SEPARATOR, main
from cherrypick.generate import random_forest, random_forest_pair, seeded_rng
from cherrypick.newick import (
    parse_forest,
    parse_network,
    serialize_forest,
    serialize_network,
    serialize_trace,
)
from cherrypick.oracles import displays, tbr_distance_bfs
from cherrypick.networks import network_from_tree, reticulation_number
from cherrypick.search import min_weight_cps
from cherrypick.trees import Forest

from util import child_env

QUARTET_A = "((1,2),(3,4));\n"
QUARTET_B = "((1,3),(2,4));\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hybrid_identical_prints_zero(files, capsys):
    _, write = files
    f = write("f.nwk", QUARTET_A)
    code, out, _ = run_main(["hybrid", "--forest1", f, "--forest2", f], capsys)
    assert code == 0 and out.strip() == "0"


def test_hybrid_quartets_prints_one_and_pipes_to_displays(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    trace_out = str(tmp / "trace.json")
    net_out = str(tmp / "net.txt")
    code, out, _ = run_main(
        [
            "hybrid",
            "--forest1",
            f1,
            "--forest2",
            f2,
            "--trace-out",
            trace_out,
            "--network-out",
            net_out,
        ],
        capsys,
    )
    assert code == 0 and out.strip() == "1"
    network = parse_network(open(net_out).read())
    assert reticulation_number(network) <= 1
    for forest_text in (QUARTET_A, QUARTET_B):
        assert displays(network, parse_forest(forest_text)) is not None
    code, out, _ = run_main(["displays", "--network", net_out, "--forest", f1], capsys)
    assert code == 0 and out.strip() == "yes"


def test_hybrid_json_report(files, capsys):
    _, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    code, out, _ = run_main(["--json", "hybrid", "--forest1", f1, "--forest2", f2], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "hybrid"
    assert report["outcome"]["hybrid_number"] == 1
    assert "timing_sec" in report
    stats = report["outcome"]["stats"]
    assert stats["nodes"] == report["outcome"]["nodes"]
    assert {"memo_hits", "elapsed", "applied", "forced", "level_nodes"} <= set(stats)
    assert sum(stats["level_nodes"]) <= stats["nodes"]


def test_hybrid_deep_caterpillar_against_itself(files, capsys):
    _, write = files
    text = "t0"
    for i in range(1, 1500):
        text = "(%s,t%d)" % (text, i)
    f = write("cat.nwk", text + ";\n")
    code, out, _ = run_main(["hybrid", "--forest1", f, "--forest2", f], capsys)
    assert code == 0 and out.strip() == "0"


def test_hybrid_parse_error_exit_2(files, capsys):
    _, write = files
    bad = write("bad.nwk", "((1,2)\n")
    ok = write("ok.nwk", QUARTET_A)
    code, _, err = run_main(["hybrid", "--forest1", bad, "--forest2", ok], capsys)
    assert code == 2 and "line" in err


def test_hybrid_ground_mismatch_exit_3(files, capsys):
    _, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", "((1,2),(3,5));\n")
    code, _, err = run_main(["hybrid", "--forest1", f1, "--forest2", f2], capsys)
    assert code == 3


def test_hybrid_budget_exhaustion_exit_4(files, capsys):
    _, write = files
    f1 = write("f1.nwk", "((1,2),((3,4),(5,6)));\n")
    f2 = write("f2.nwk", "((3,6),((1,4),(2,5)));\n")
    code, _, err = run_main(
        ["hybrid", "--forest1", f1, "--forest2", f2, "--budget", "1"], capsys
    )
    assert code == 4
    assert "[" in err and "]" in err  # prints the bounds


@pytest.mark.parametrize(
    "argv",
    [
        ["hybrid", "--forest1", "F", "--forest2", "F", "--budget", "-1"],
        ["tbr", "--tree1", "F", "--tree2", "F", "--cap", "-5"],
    ],
)
def test_negative_budget_or_cap_rejected_exit_2(files, capsys, argv):
    _, write = files
    f = write("f.nwk", QUARTET_A)
    with pytest.raises(SystemExit) as exc:
        main([f if arg == "F" else arg for arg in argv])
    assert exc.value.code == 2
    assert "expected an integer >= 0, got '-" in capsys.readouterr().err


def test_hybrid_json_memo_size_and_stop_reason(files, capsys):
    _, write = files
    f1 = write("f1.nwk", "((1,2),((3,4),(5,6)));\n")
    f2 = write("f2.nwk", "((3,6),((1,4),(2,5)));\n")
    argv = ["--json", "hybrid", "--forest1", f1, "--forest2", f2]
    code, out, _ = run_main(argv, capsys)
    stats = json.loads(out)["outcome"]["stats"]
    assert code == 0 and stats["stop_reason"] == "exact"
    assert 0 < stats["memo_size"] <= stats["nodes"]
    code, out, _ = run_main(argv + ["--budget", "1"], capsys)
    stats = json.loads(out)["outcome"]["stats"]
    assert code == 4 and stats["stop_reason"] == "budget"
    assert 0 < stats["memo_size"] < stats["nodes"]  # the state that overran is not stored


def test_unexpected_exception_exit_1_without_traceback(files, capsys, monkeypatch):
    _, write = files
    f = write("f.nwk", QUARTET_A)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("cherrypick.cli._solve", broken)
    code, out, err = run_main(["hybrid", "--forest1", f, "--forest2", f], capsys)
    assert code == 1 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


# a weight-2 pair whose witness walk expands nodes of its own
WALK_A = "((1,2),((3,4),(5,6)));\n"
WALK_B = "((3,6),((1,4),(2,5)));\n"


def test_hybrid_without_output_files_skips_the_witness_walk(files, capsys, monkeypatch):
    _, write = files
    f1, f2 = write("f1.nwk", WALK_A), write("f2.nwk", WALK_B)

    def broken(*args, **kwargs):
        raise AssertionError("walked the witness")

    monkeypatch.setattr("cherrypick.search._Searcher.witness", broken)
    code, out, _ = run_main(["hybrid", "--forest1", f1, "--forest2", f2], capsys)
    assert code == 0 and out == "2\n"
    code, out, _ = run_main(["--json", "hybrid", "--forest1", f1, "--forest2", f2], capsys)
    outcome = json.loads(out)["outcome"]
    assert code == 0 and outcome["hybrid_number"] == 2
    # the counters are those of the search levels alone
    assert outcome["nodes"] == sum(outcome["stats"]["level_nodes"])


def test_hybrid_trace_out_writes_the_walked_witness(files, capsys):
    tmp, write = files
    f1, f2 = write("f1.nwk", WALK_A), write("f2.nwk", WALK_B)
    trace_out = tmp / "trace.json"
    code, out, _ = run_main(
        ["hybrid", "--forest1", f1, "--forest2", f2, "--trace-out", str(trace_out)], capsys
    )
    assert code == 0 and out == "2\n"
    # the bytes cherrypick 0.1.0 writes for this pair
    digest = "00f7b2c3e2c11c75dc59d4474ae18350a81d19dd7a04b6c37992b6b211343d94"
    assert hashlib.sha256(trace_out.read_bytes()).hexdigest() == digest


def test_tbr_identical_zero(files, capsys):
    _, write = files
    t = write("t.nwk", QUARTET_A)
    code, out, _ = run_main(["tbr", "--tree1", t, "--tree2", t], capsys)
    assert code == 0 and out.strip() == "0"


def test_tbr_cap_exit_4(files, capsys):
    _, write = files
    t1 = write("t1.nwk", QUARTET_A)
    t2 = write("t2.nwk", QUARTET_B)
    code, _, _ = run_main(["tbr", "--tree1", t1, "--tree2", t2, "--cap", "0"], capsys)
    assert code == 4


def test_tbr_rejects_forest_exit_5(files, capsys):
    _, write = files
    t1 = write("t1.nwk", "1;\n(2,3);\n")
    t2 = write("t2.nwk", "(1,(2,3));\n")
    code, _, _ = run_main(["tbr", "--tree1", t1, "--tree2", t2], capsys)
    assert code == 5


def _seeded_tree_pair(write, n, i):
    """Files for the i-th seeded tree pair on n leaves, and the pair."""
    labels = [str(k) for k in range(1, n + 1)]
    rng = seeded_rng(12345 + 1000 * n + i)
    F, F2 = random_forest(labels, 1, rng), random_forest(labels, 1, rng)
    paths = [write("s%d_%d_%d.nwk" % (n, i, j), serialize_forest(f)) for j, f in enumerate((F, F2))]
    return paths, F, F2


@pytest.mark.parametrize("n, i", [(6, 0), (6, 1), (7, 0), (7, 1)])
def test_tbr_cap_at_and_below_the_distance(files, capsys, n, i):
    _, write = files
    (t1, t2), F, F2 = _seeded_tree_pair(write, n, i)
    d = tbr_distance_bfs(F.components[0], F2.components[0])
    assert d >= 1
    base = ["tbr", "--tree1", t1, "--tree2", t2]
    assert run_main(base + ["--cap", str(d)], capsys) == (0, "%d\n" % d, "")
    code, out, err = run_main(base + ["--cap", str(d - 1)], capsys)
    assert (code, out) == (4, "")
    assert err == "error: TBR distance exceeds cap %d\n" % (d - 1)


def test_tbr_trees_on_other_labels_exit_3(files, capsys):
    _, write = files
    t1 = write("t1.nwk", QUARTET_A)
    t2 = write("t2.nwk", "((1,2),(3,5));\n")
    code, out, err = run_main(["tbr", "--tree1", t1, "--tree2", t2, "--cap", "0"], capsys)
    assert (code, out, err) == (3, "", "error: trees are on different label sets\n")


def test_tbr_forest_on_other_labels_exit_5(files, capsys):
    # the single-tree check comes before the label check
    _, write = files
    t1 = write("t1.nwk", "1;\n(2,3);\n")
    t2 = write("t2.nwk", "((1,2),(3,5));\n")
    code, out, err = run_main(["tbr", "--tree1", t1, "--tree2", t2], capsys)
    assert (code, out, err) == (5, "", "error: tbr needs single-tree inputs\n")


def test_tbr_json_outcome_is_the_distance_only(files, capsys):
    _, write = files
    (t1, t2), _, _ = _seeded_tree_pair(write, 6, 1)
    code, out, _ = run_main(["--json", "tbr", "--tree1", t1, "--tree2", t2], capsys)
    report = json.loads(out)
    assert code == 0 and report["command"] == "tbr"
    assert report["outcome"] == {"distance": 2}


def test_tbr_answers_without_the_bfs_oracle(files, capsys, monkeypatch):
    def broken(tree):
        raise RuntimeError("the TBR move graph is not needed")

    monkeypatch.setattr("cherrypick.oracles.tbr_neighbors", broken)
    _, write = files
    t1 = write("t1.nwk", QUARTET_A)
    t2 = write("t2.nwk", QUARTET_B)
    assert run_main(["tbr", "--tree1", t1, "--tree2", t2], capsys) == (0, "1\n", "")


def test_tbr_equals_hybrid_on_a_ten_leaf_pair(files, capsys):
    # out of the move graph's reach: the BFS did not finish in minutes
    _, write = files
    (t1, t2), _, _ = _seeded_tree_pair(write, 10, 0)
    code, tbr_out, _ = run_main(["tbr", "--tree1", t1, "--tree2", t2], capsys)
    assert code == 0
    code, hybrid_out, _ = run_main(["hybrid", "--forest1", t1, "--forest2", t2], capsys)
    assert code == 0
    assert tbr_out == hybrid_out == "4\n"


def test_validate_trace_roundtrip_and_corruption(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    trace_out = str(tmp / "trace.json")
    run_main(
        ["hybrid", "--forest1", f1, "--forest2", f2, "--trace-out", trace_out], capsys
    )
    code, out, _ = run_main(
        ["validate-trace", "--forest1", f1, "--forest2", f2, "--trace", trace_out],
        capsys,
    )
    assert code == 0 and out.strip() == "1"
    # corrupt one step: replaying must fail with the step index
    data = json.loads(open(trace_out).read())
    data[0]["params"]["y"] = "3"
    corrupted = str(tmp / "bad.json")
    open(corrupted, "w").write(json.dumps(data))
    code, _, err = run_main(
        ["validate-trace", "--forest1", f1, "--forest2", f2, "--trace", corrupted],
        capsys,
    )
    assert code == 5 and "step 0" in err


def test_build_network_command(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    trace_out = str(tmp / "trace.json")
    run_main(
        ["hybrid", "--forest1", f1, "--forest2", f2, "--trace-out", trace_out], capsys
    )
    net_out = str(tmp / "net.txt")
    code, out, _ = run_main(
        [
            "build-network",
            "--forest1",
            f1,
            "--forest2",
            f2,
            "--trace",
            trace_out,
            "--out",
            net_out,
        ],
        capsys,
    )
    assert code == 0 and "r=1" in out
    parse_network(open(net_out).read())


def test_build_network_ground_mismatch_exit_3(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", "((1,2),(3,5));\n")
    trace = write("trace.json", "[]")
    net_out = str(tmp / "net.txt")
    argv = ["--forest1", f1, "--forest2", f2, "--trace", trace]
    code, _, err = run_main(["build-network", *argv, "--out", net_out], capsys)
    assert code == 3 and "label sets" in err


def test_unwritable_output_path_exit_2(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    trace = str(tmp / "trace.json")
    run_main(["hybrid", "--forest1", f1, "--forest2", f2, "--trace-out", trace], capsys)
    missing = str(tmp / "missing" / "out.txt")
    pair = ["--forest1", f1, "--forest2", f2]
    for argv in (
        ["hybrid", *pair, "--trace-out", missing],
        ["hybrid", *pair, "--network-out", missing],
        ["build-network", *pair, "--trace", trace, "--out", missing],
    ):
        code, _, err = run_main(argv, capsys)
        assert code == 2 and "cannot write %s" % missing in err


def test_hybrid_failed_write_leaves_no_partial_output(files, capsys):
    tmp, write = files
    f1 = write("f1.nwk", QUARTET_A)
    f2 = write("f2.nwk", QUARTET_B)
    trace = tmp / "trace.json"
    missing = str(tmp / "missing" / "n.txt")
    code, _, err = run_main(
        ["hybrid", "--forest1", f1, "--forest2", f2,
         "--trace-out", str(trace), "--network-out", missing],
        capsys,
    )
    assert code == 2 and "cannot write %s" % missing in err
    assert not trace.exists()


def test_displays_no(files, capsys):
    tmp, write = files
    net = write(
        "net.txt",
        "1 -- a\n2 -- b\n3 -- c\n4 -- d\na -- b\nb -- c\nc -- d\nd -- a\n",
    )
    f = write("f.nwk", "((1,3),(2,4));\n")
    code, out, _ = run_main(["displays", "--network", net, "--forest", f], capsys)
    assert code == 0 and out.strip() == "no"


def test_displays_json_witness(files, capsys):
    tmp, write = files
    net = write(
        "net.txt",
        "1 -- a\n2 -- b\n3 -- c\n4 -- d\na -- b\nb -- c\nc -- d\nd -- a\n",
    )
    f = write("f.nwk", QUARTET_A)
    code, out, _ = run_main(["--json", "displays", "--network", net, "--forest", f], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["displays"] is True
    assert report["outcome"]["witness"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_displays_past_the_size_guard_exit_4(files, capsys, json_flag):
    _, write = files
    tree = random_forest([str(i) for i in range(1, 26)], 1, seeded_rng(3)).components[0]
    net = write("net.txt", serialize_network(network_from_tree(tree)))
    f = write("f.nwk", serialize_forest(Forest([tree])))
    code, out, err = run_main(json_flag + ["displays", "--network", net, "--forest", f], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "48" in err


def test_gen_deterministic_bytes():
    cmd = [sys.executable, "-m", "cherrypick.cli", "gen", "--leaves", "5", "--seed", "7", "--pair"]
    a = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
    b = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    docs = a.stdout.split(PAIR_SEPARATOR + "\n")
    assert len(docs) == 2
    for doc in docs:
        f = parse_forest(doc)
        assert f.ground_set == {"1", "2", "3", "4", "5"}


def test_gen_components(files, capsys):
    code, out, _ = run_main(["gen", "--leaves", "6", "--seed", "3", "--components", "3"], capsys)
    assert code == 0
    f = parse_forest(out)
    assert len(f.components) == 3


def test_gen_pair_hybrid_equals_tbr_on_trees(files, capsys):
    # the scripted cross-check: for generated single-tree pairs the hybrid
    # number printed by `hybrid` equals the BFS distance printed by `tbr`
    tmp, write = files
    for seed in (1, 2, 3, 4, 5):
        code, out, _ = run_main(
            ["gen", "--leaves", "6", "--seed", str(seed), "--pair"], capsys
        )
        assert code == 0
        doc1, doc2 = out.split(PAIR_SEPARATOR + "\n")
        f1 = write("g1_%d.nwk" % seed, doc1)
        f2 = write("g2_%d.nwk" % seed, doc2)
        code, hybrid_out, _ = run_main(["hybrid", "--forest1", f1, "--forest2", f2], capsys)
        assert code == 0
        code, tbr_out, _ = run_main(["tbr", "--tree1", f1, "--tree2", f2], capsys)
        assert code == 0
        assert hybrid_out.strip() == tbr_out.strip()


def test_tbr_cap_zero_expands_only_level_zero(files, capsys, monkeypatch):
    # level k of the deepening asks for weight <= k with cutoff k + 1;
    # recursive calls only lower the cutoff
    from cherrypick.search import _Searcher

    cutoffs = []
    residual = _Searcher.residual

    def spy(self, F, F2, cutoff):
        cutoffs.append(cutoff)
        return residual(self, F, F2, cutoff)

    monkeypatch.setattr(_Searcher, "residual", spy)
    _, write = files
    a = write("a.nwk", "((1,2),((3,4),(5,6)));\n")
    b = write("b.nwk", "((3,6),((1,4),(2,5)));\n")  # distance 2
    code, out, err = run_main(["tbr", "--tree1", a, "--tree2", b, "--cap", "0"], capsys)
    assert (code, out, err) == (4, "", "error: TBR distance exceeds cap 0\n")
    assert cutoffs and max(cutoffs) == 1


# ---------------------------------------------------------------------------
# whole command lines


def _printed(argv):
    """What a command that succeeds prints on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue()


@functools.cache
def _documents(seed, n, components):
    """A seeded forest pair, its witness trace and network, and a forest
    on other labels, as the text the commands read; and the command line's
    own outputs: ``gen`` documents, the files ``hybrid`` writes and
    ``--json`` reports.  Cached, since a report carries its run time and
    hypothesis must draw the same text when it replays an example."""
    rng = seeded_rng(seed)
    labels = [str(i) for i in range(1, n + 1)]
    F, F2 = random_forest_pair(labels, components, rng)
    witness = min_weight_cps(F, F2).witness
    docs = {
        "forest1": serialize_forest(F),
        "forest2": serialize_forest(F2),
        "trace": serialize_trace(witness),
        "network": serialize_network(build_network(F, F2, witness)),
        "other": serialize_forest(random_forest(labels[1:] + ["x"], 1, rng)),
    }
    gen = ["gen", "--leaves", str(n), "--seed", str(seed), "--components", str(components)]
    docs["gen"] = _printed(gen)
    docs["gen --pair"] = _printed(gen + ["--pair"])
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)
        for name in ("forest1", "forest2", "network"):
            (path / name).write_text(docs[name])
        inputs = ["--forest1", str(path / "forest1"), "--forest2", str(path / "forest2")]
        written = ["--trace-out", str(path / "trace-out"), "--network-out", str(path / "network-out")]
        docs["hybrid --json"] = _printed(["--json", "hybrid"] + inputs + written)
        docs["hybrid --trace-out"] = (path / "trace-out").read_text()
        docs["hybrid --network-out"] = (path / "network-out").read_text()
        docs["displays --json"] = _printed(
            ["--json", "displays", "--network", str(path / "network"), "--forest", str(path / "forest1")]
        )
    return docs


# the document each slot of each command reads, as named by _documents
SLOTS = {
    "hybrid": {"--forest1": "forest1", "--forest2": "forest2"},
    "tbr": {"--tree1": "forest1", "--tree2": "forest2"},
    "validate-trace": {"--forest1": "forest1", "--forest2": "forest2", "--trace": "trace"},
    "build-network": {"--forest1": "forest1", "--forest2": "forest2", "--trace": "trace"},
    "displays": {"--network": "network", "--forest": "forest1"},
}
OUTPUTS = ["gen", "gen --pair", "hybrid --json", "hybrid --trace-out", "hybrid --network-out", "displays --json"]


def test_command_outputs_fed_to_every_document_slot(tmp_path):
    # each document the command line writes, read back in every slot of
    # every command, the other slots holding their proper documents
    docs = _documents(4242, 6, 2)
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    for command, slots in SLOTS.items():
        for slot in slots:
            for output in OUTPUTS:
                argv = [command]
                for flag, proper in slots.items():
                    argv += [flag, str(tmp_path / (output if flag == slot else proper))]
                if command == "build-network":
                    argv += ["--out", str(tmp_path / "out")]
                for json_flag in ([], ["--json"]):
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                        code = main(json_flag + argv)
                    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
                    assert "internal error" not in err.getvalue(), argv
                    assert "Traceback" not in err.getvalue(), argv


@st.composite
def _corrupted(draw, text):
    """The text, or the text with one fault: cut, a character changed or
    dropped, a line dropped, emptied, or not UTF-8."""
    fault = draw(st.sampled_from([None, "cut", "change", "drop", "line", "empty", "bytes"]))
    at = draw(st.integers(0, max(len(text) - 1, 0)))
    if fault == "cut":
        return text[:at]
    if fault == "change":
        return text[:at] + draw(st.sampled_from("();,:#-x1 \n{}[]\"")) + text[at + 1:]
    if fault == "drop":
        return text[:at] + text[at + 1:]
    if fault == "line":
        lines = text.splitlines(keepends=True)
        del lines[at % len(lines)]
        return "".join(lines)
    if fault == "empty":
        return ""
    if fault == "bytes":
        return b"\xff\xfe" + text.encode()
    return text


@st.composite
def _command_lines(draw):
    """(argv with {name} placeholders for paths, the input file names,
    the documents by input file name; an input without one is missing)."""
    n = draw(st.integers(1, 6))
    docs = _documents(draw(st.integers(0, 10_000)), n, draw(st.integers(1, min(n, 3))))
    files = {}
    inputs = []
    faulty = draw(st.booleans())  # else every input is the document it should be

    def doc(kind):
        inputs.append("in%d" % len(inputs))
        if faulty:
            kind = draw(st.sampled_from([kind, "missing"] + sorted(docs)))
        if kind != "missing":
            files[inputs[-1]] = draw(_corrupted(docs[kind])) if faulty else docs[kind]
        return "{%s}" % inputs[-1]

    def out():
        return draw(st.sampled_from(["{out}", "{out2}", "{dir}", "{nodir}"]))

    def count():
        return str(draw(st.integers(-1, 6)))

    commands = ["hybrid", "tbr", "validate-trace", "build-network", "displays", "gen"]
    command = draw(st.sampled_from(commands))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    if command in ("hybrid", "validate-trace", "build-network"):
        argv += ["--forest1", doc("forest1"), "--forest2", doc("forest2")]
    if command in ("validate-trace", "build-network"):
        argv += ["--trace", doc("trace")]
    if command == "build-network":
        argv += ["--out", out()]
    if command == "hybrid":
        for flag in ("--budget", "--trace-out", "--network-out"):
            if draw(st.booleans()):
                argv += [flag, count() if flag == "--budget" else out()]
    if command == "tbr":
        argv += ["--tree1", doc("forest1"), "--tree2", doc("forest2")]
        if draw(st.booleans()):
            argv += ["--cap", count()]
    if command == "displays":
        argv += ["--network", doc("network"), "--forest", doc("forest1")]
    if command == "gen":
        argv += ["--leaves", count(), "--seed", count()]
        if draw(st.booleans()):
            argv += ["--components", count()]
        if draw(st.booleans()):
            argv.append("--pair")
    return argv, inputs, files


# every example rewrites the files it reads, so sharing tmp_path is safe
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_command_lines())
def test_whole_command_lines_end_in_a_documented_exit_code(tmp_path, case):
    argv, inputs, files = case
    paths = {
        "out": str(tmp_path / "out"),
        "out2": str(tmp_path / "out2"),
        "dir": str(tmp_path),
        "nodir": str(tmp_path / "no such dir" / "out"),
    }
    for name in inputs:
        path = tmp_path / name
        paths[name] = str(path)
        text = files.get(name)
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [arg.format(**paths) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()
