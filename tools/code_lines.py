"""Count code lines: the physical lines of Python source that hold code.

    python tools/code_lines.py PATH...

A PATH is a .py file or a directory, searched recursively for .py files.
Docstrings (the first statement of a module, class or function, when it is
a string literal) are found with ast; comments and blank lines with
tokenize. Every other line that a token touches counts, so each line of a
multi-line expression or string counts. Prints each file's count and then
the total; exits 2 on a path that does not exist or a file that does not
parse.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(path: Path) -> list:
    if path.is_dir():
        return sorted(path.rglob("*.py"))
    if path.is_file():
        return [path]
    raise FileNotFoundError(f"no such file or directory: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    total = 0
    try:
        for path in args.paths:
            for file in python_files(path):
                count = code_lines(file.read_text(encoding="utf-8"))
                total += count
                print(f"{count:7d} {file}")
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
