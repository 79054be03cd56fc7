"""Print the size of each module of ``src/screencurve/``: raw lines and code lines.

Code lines leave out docstrings, comments and blank lines.  A docstring is the
string that opens a module, class or function body (found with ``ast``);
comments and blank lines are the lines that hold no other token (found with
``tokenize``).

Usage: ``python tools/loc.py [PACKAGE_DIR]``
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "screencurve"

#: Tokens that hold no code: a line with only these is a comment or blank line.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code outside a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_raw = total_code = 0
    print(f"{'module':<12} {'raw':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raw, code = len(source.splitlines()), code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{path.stem:<12} {raw:>6} {code:>6}")
    print(f"{'total':<12} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
