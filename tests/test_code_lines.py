"""``scripts/code_lines.py``: code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parents[1] / "scripts" / "code_lines.py"

_MODULE = '''"""Module docstring
over two lines."""

import os  # a comment on a code line


# a comment line
class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Method
        docstring."""
        text = """a string
that is not a docstring"""
        return (self.size
                * self.size)


async def wait():
    "one-line docstring"
    pass
'''


def test_counts_a_small_module():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions only: no run
    # import, class, size, def, the two lines of text, return and its
    # continuation, async def, pass
    assert module.code_lines(_MODULE) == 10
