"""The replay scale report in tools/replay_scale.py."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_scale.py"
spec = importlib.util.spec_from_file_location("replay_scale", TOOL)
replay_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_scale)


def test_prints_one_line_per_size_with_steps_peaks_and_times(monkeypatch, capsys):
    monkeypatch.setattr(replay_scale, "SIZES", (12, 20))
    replay_scale.main()
    lines = capsys.readouterr().out.splitlines()
    cell = r"%s peak \d+\.\d MB \d+\.\d{3} s \d+\.\d us/step"
    pattern = r"n (\d+), steps (\d+), %s, %s" % (cell % "validate_trace", cell % "build_network")
    assert [re.fullmatch(pattern, line).group(1) for line in lines] == ["12", "20"]
    # a one-tree greedy trace on n labels has at least n - 1 steps
    assert all(int(re.fullmatch(pattern, line).group(2)) >= 11 for line in lines)
