"""Count the lines of Python source, and how many of them are code.

    python3 tools/src_lines.py [PATH ...]    # default: src

Each PATH is a file or a directory searched for ``*.py`` files.  A code
line holds a token other than a comment and is not part of a docstring
(the leading string of a module, class or function), so blank, comment
and docstring lines are not code.  Prints one line:
``src lines N, code lines M``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count_lines(source):
    """(lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv):
    paths = [Path(p) for p in argv or ["src"]]
    files = [f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    lines = code = 0
    for f in files:
        n, c = count_lines(f.read_text(encoding="utf-8"))
        lines += n
        code += c
    print("src lines %d, code lines %d" % (lines, code))


if __name__ == "__main__":
    main(sys.argv[1:])
