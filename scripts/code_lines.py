#!/usr/bin/env python3
"""Code lines of each module of ``src/dkoopman``, as the simplicity review counts them.

A line counts when it holds code: blank lines, comment lines and the lines
of docstrings (the string that opens a module, class or function body) do
not.  A line that holds code and a comment counts once.  Prints one
``<lines>  <module>`` line per module, largest first, then the total:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dkoopman"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(_PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
