"""Code lines of the package: lines that are not blank, not a comment and not a docstring.

    python tests/code_lines.py [DIR]

Prints one ``<count> <module>`` line per ``*.py`` file of DIR (default
``src/traversale``) and then ``<total> total``.  A line counts when a
token other than a comment, an indent or a line break starts, ends or
continues on it; the lines of a docstring (the first statement of a module,
class or function, when it is a string) do not count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/traversale")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
