"""The source line counter in tools/src_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# 11 lines; code lines are 4, 7, 9, 10 and 11: a string that is not a
# docstring is code, a trailing comment leaves its line code
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line
def f(x):
    """One line."""
    s = """a string
that is code"""
    return x
'''


def test_counts_lines_and_code_lines(tmp_path, capsys):
    assert src_lines.count_lines(FIXTURE) == (11, 5)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    src_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")])
    assert capsys.readouterr().out == "src lines 13, code lines 6\n"
