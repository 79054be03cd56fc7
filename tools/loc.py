"""Print the size of each module of ``src/screencurve/``: raw lines and code lines.

Code lines leave out docstrings, comments and blank lines.  A docstring is the
string that opens a module, class or function body (found with ``ast``);
comments and blank lines are the lines that hold no other token (found with
``tokenize``).

With ``--functions N`` it prints instead the N largest functions and classes
of the package (nested ones included, each counted with its body), by code
lines under the same rules.

Usage: ``python tools/loc.py [--functions N] [PACKAGE_DIR]``
"""

from __future__ import annotations

import argparse
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

_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(source: str, tree: ast.AST) -> set[int]:
    """The numbers of the lines of ``source`` that hold code outside a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code outside a docstring."""
    return len(code_line_numbers(source, ast.parse(source)))


def definition_sizes(source: str, prefix: str = "") -> list[tuple[str, int]]:
    """``(qualified name, code lines)`` of each class and function in ``source``.

    A definition spans its decorators, its header and its body.
    """
    tree = ast.parse(source)
    code = code_line_numbers(source, tree)
    sizes: list[tuple[str, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, _DEFINITIONS):
                name = f"{scope}.{child.name}" if scope else child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = range(first, child.end_lineno + 1)
                sizes.append((name, len(code.intersection(span))))
            visit(child, name)

    visit(tree, prefix)
    return sizes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--functions", type=int, metavar="N",
                        help="print the N largest functions and classes instead")
    args = parser.parse_args(argv)
    paths = sorted(args.package.glob("*.py"))
    if args.functions is not None:
        if args.functions < 1:
            parser.error("--functions needs N >= 1")
        sizes = sorted(
            (size for path in paths
             for size in definition_sizes(path.read_text(encoding="utf-8"), path.stem)),
            key=lambda size: (-size[1], size[0]),
        )[:args.functions]
        width = max([len("definition")] + [len(name) for name, _ in sizes])
        print(f"{'definition':<{width}} {'code':>6}")
        for name, code in sizes:
            print(f"{name:<{width}} {code:>6}")
        return 0
    total_raw = total_code = 0
    print(f"{'module':<12} {'raw':>6} {'code':>6}")
    for path in paths:
        source = path.read_text(encoding="utf-8")
        raw, code = len(source.splitlines()), code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{path.stem:<12} {raw:>6} {code:>6}")
    print(f"{'total':<12} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
