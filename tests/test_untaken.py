"""``scripts/untaken.py``: the statements a traced call leaves unexecuted."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parents[1] / "scripts" / "untaken.py"

_MODULE = '''"""Module docstring."""

import math


def sign(x):
    """Function docstring: no code."""
    if x > 0:
        return 1
    elif x < 0:
        return -1
    return (0
            + 0)


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        global LAST
        LAST = self.size
        return math.prod((self.size,
                          self.size))
'''


def _script():
    spec = importlib.util.spec_from_file_location("untaken", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions only: no run
    return module


def test_statements_that_compile_to_code():
    # every statement but the function's docstring and the global line
    assert _script().statements(_MODULE) == [1, 3, 6, 8, 9, 10, 11, 12, 16, 17, 19, 21,
                                             23, 24]


def test_untaken_statements_of_a_traced_call():
    untaken = _script()
    name = "<synthetic>"

    def call():
        namespace = {}
        exec(compile(_MODULE, name, "exec"), namespace)
        namespace["sign"](1)

    seen = untaken.traced({name}, call)
    # the import, the definitions and sign's first branch run; the rest of
    # sign and the body of area do not
    assert [line for line in untaken.statements(_MODULE) if line not in seen[name]] == [
        10, 11, 12, 23, 24]
