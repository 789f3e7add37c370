"""Code lines of the package: lines that hold a token other than a comment,
and that are not part of a module, class or function docstring.

    python tests/_code_lines.py [ROOT]

prints one ``count path`` line per ``*.py`` file under ``ROOT`` (default:
the ``src`` directory of the checkout that holds this file), then the
total. A blank line or one that holds only a comment is not counted; a
statement spread over several lines counts each of them. pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _NOT_CODE
        for line in range(token.start[0], token.end[0] + 1)
    }
    docstrings = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and ast.get_docstring(node, clean=False) is not None
        for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)
    }
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.relative_to(root)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
