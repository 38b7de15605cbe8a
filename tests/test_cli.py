"""Command-line behaviour and exit codes."""

import json
import subprocess
import sys

import pytest

from cherrypick.cli import PAIR_SEPARATOR, main
from cherrypick.newick import parse_forest, parse_network
from cherrypick.oracles import displays
from cherrypick.networks import reticulation_number

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

    monkeypatch.setattr("cherrypick.cli.min_weight_cps", broken)
    code, out, err = run_main(["hybrid", "--forest1", f, "--forest2", f], capsys)
    assert code == 1 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


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


def test_gen_deterministic_bytes():
    cmd = [sys.executable, "-m", "cherrypick.cli", "gen", "--leaves", "5", "--seed", "7", "--pair"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
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
