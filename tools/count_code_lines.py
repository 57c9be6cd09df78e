"""Count the code lines of a Python package, one rule for every count.

A line counts when it holds a token other than a comment, whitespace
(newlines, indents and dedents) or a module, class or function docstring.
A token that spans several lines (a multi-line string that is not a
docstring) makes each of its lines count.  Only the standard library's
``tokenize`` and ``ast`` are used.

Usage, from the root of the repository:

    python tools/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/qchar``.  The script prints the count of each
module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring
    starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    skip = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or tok.start in skip:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/qchar")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
