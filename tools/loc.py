"""Count the lines of the package and its tests.

Prints, for `src/` and `tests/`, the raw line count of every `.py` file and
the code lines among them: lines that hold a token other than a comment,
with blank lines and docstrings (module, class and function) left out.

    python3 tools/loc.py [ROOT]

ROOT defaults to the repository this script lives in.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(raw lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    for part in ("src", "tests"):
        raw = code = 0
        for path in sorted((root / part).rglob("*.py")):
            r, c = count(path.read_text())
            raw += r
            code += c
        print(f"{part + '/':7} raw {raw:6,}  code {code:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
