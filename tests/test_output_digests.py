"""``scripts/output_digests.py --against``: how two runs' outputs differ."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "output_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions only: no run, no argument parsing
    return module


def _write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_deviations_of_two_hand_made_runs(digests, tmp_path):
    here, other = tmp_path / "here", tmp_path / "other"
    same = {"run/same.csv": "a,b\n1.0,2.0\n"}
    _write(here, {**same, "run/m.csv": "x,y\n1.0,2.5\n-3.0,4.0\n",
                  "run/r.json": json.dumps({"a": 1, "b": {"c": 2, "new": 3}}),
                  "run/extra.csv": "1\n"})
    _write(other, {**same, "run/m.csv": "x,y\n1.0,2.0\n-3.0,4.0\n",
                   "run/r.json": json.dumps({"a": 1, "b": {"c": 2}}),
                   "run/gone.txt": "x"})
    names = [f"run/{name}" for name in ("extra.csv", "m.csv", "r.json", "same.csv")]
    assert digests.deviations(here, other, names) == [
        "run/extra.csv: only here",
        "run/m.csv: max abs deviation 0.5 (largest |value| 4)",
        "  2,2: 2.0 -> 2.5",
        "run/r.json: keys differ: +b.new",
        f"run/gone.txt: only in {other}",
    ]


def test_identical_runs_have_no_deviations(digests, tmp_path):
    files = {"run/m.csv": "1.0,nan\n", "run/r.json": "{}"}
    _write(tmp_path / "a", files)
    _write(tmp_path / "b", files)
    assert digests.deviations(tmp_path / "a", tmp_path / "b", sorted(files)) == []


def test_cells_of_a_small_csv_listed(digests, tmp_path):
    # each differing cell of a CSV of at most 20 rows is listed with its old
    # (other) and new (here) text; an empty cell reads ''; a larger CSV
    # keeps its one line
    here, other = tmp_path / "here", tmp_path / "other"
    small = "theta,contraction\n0.3,0.99831\n0.5,\n0.9,0.95\n"
    _write(here, {"run/a.csv": small, "run/big.csv": "1.0\n" * 21 + "2.0\n"})
    _write(other, {"run/a.csv": "theta,contraction\n0.3,0.99672\n0.5,0.9956\n0.9,0.95\n",
                   "run/big.csv": "1.0\n" * 22})
    names = ["run/a.csv", "run/big.csv"]
    assert digests.deviations(here, other, names) == [
        "run/a.csv: max abs deviation 0.00159 (largest |value| 0.998), 1 text cells differ",
        "  2,2: 0.99672 -> 0.99831",
        "  3,2: 0.9956 -> ''",
        "run/big.csv: max abs deviation 1 (largest |value| 2)",
    ]
