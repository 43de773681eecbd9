"""``scripts/paired_wall.py``: the summary of alternating parent and change runs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "paired_wall.py"


def _script():
    spec = importlib.util.spec_from_file_location("paired_wall", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions only: no run
    return module


def test_summary_of_hand_made_timings():
    parent = [0.20, 0.25, 0.30, 0.40, 0.50]
    change = [0.18, 0.25, 0.33, 0.30, 0.45]  # a tie, a loss and three wins
    s = _script().summary(parent, change)
    assert s["pairs"] == 5
    assert s["parent_median"] == 0.30 and s["change_median"] == 0.30
    assert s["parent_quartiles"] == pytest.approx((0.225, 0.30, 0.45))
    # ratios 0.9, 1.0, 1.1, 0.75, 0.9
    assert s["ratio_median"] == pytest.approx(0.9)
    assert s["wins"] == 3


def test_summary_refuses_unpaired_timings():
    with pytest.raises(ValueError):
        _script().summary([1.0, 2.0], [1.0])
