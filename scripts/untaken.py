#!/usr/bin/env python3
"""The statements of ``src/dkoopman`` that no ``output_digests.py`` run executes.

Runs the CLI runs of ``scripts/output_digests.py`` in one process, under
a line trace limited to the package of this checkout, with BLAS on one
thread and the outputs in a temporary directory.  A statement
counts when it compiles to code (a function's docstring, a ``global`` line
and the like do not) and is untaken when its first line never runs, the
package's imports included.  Prints one ``<module>:<line>  <source>`` line
per untaken statement, by module and line, then one ``<count>  <module>``
line per module and the total:

    python3 scripts/untaken.py
"""

import ast
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "dkoopman"


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(source: str) -> list[int]:
    """The first lines of the statements of ``source`` that compile to code."""
    compiled = _code_lines(compile(source, "<module>", "exec"))
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt)} & compiled)


def traced(files: set[str], call) -> dict[str, set[int]]:
    """The lines of each of ``files`` that ``call()`` executes."""
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


def _run_digests() -> None:
    """The ``output_digests.py`` runs, each into its own temporary directory."""
    from output_digests import runs

    from dkoopman.cli import main

    with tempfile.TemporaryDirectory(prefix="untaken.") as tmp:
        tmp = Path(tmp)
        for run, argv in runs(_ROOT / "configs", tmp, tmp / "runs"):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = main(argv + ["--out", str(tmp / "runs" / run)])
            if rc != 0:
                raise SystemExit(f"{run}: exit {rc}\n{log.getvalue()}")


def main() -> None:
    sys.path.insert(0, str(_ROOT / "scripts"))
    from output_digests import prepare

    prepare(_ROOT)
    paths = {str(path): path for path in sorted(_PACKAGE.glob("*.py"))}
    seen = traced(set(paths), _run_digests)
    counts = {}
    for name, path in paths.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        untaken = [line for line in statements(source) if line not in seen[name]]
        for line in untaken:
            print(f"{path.name}:{line}  {text[line - 1].strip()}")
        counts[path.name] = len(untaken)
    print()
    for module, count in counts.items():
        print(f"{count:6d}  {module}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
