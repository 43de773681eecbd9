#!/usr/bin/env python3
"""sha256 of every output file of a fixed set of CLI runs.

Runs, each into its own directory under one temporary directory (or under
``--keep DIR``, where the outputs are left for comparing files):

* ``experiment`` on desk, seeds 5 and 3;
* ``experiment`` on paper, seeds 7 and 3;
* ``experiment`` on paper with a random start and ``t_max`` 30;
* ``alpha-sweep`` on sweep, seeds 5 and 3;
* ``alpha-sweep --scale paper``;
* ``alpha-sweep`` on paper with a random start and ``t_max`` 30 (its state
  carries the start's rows outside range(X), which the mean's steps leave
  out);
* ``alpha-sweep`` on sweep, seed 5, with ``stop_tol`` 0 and ``t_max`` 8,000
  (the override of the benchmark's ``sweep`` workload);
* ``alpha-sweep`` on sweep with ``--thetas 0.5,3.0`` (the flag's thetas
  replace the config's);
* ``gen --scale desk --seed 5`` (the frames alone);
* ``experiment`` on desk with the path graph read from an edge file;
* ``experiment`` on desk with the dictionary ``radial:20:0.5`` and ``t_max``
  300;
* ``experiment`` on desk with 4 agents of 6 snapshots on the complete graph
  (Laplacian eigenvalues 0, 4, 4, 4: a repeated eigenvalue, and degree-3
  vertices);
* ``experiment`` on desk with drift (0.5, 0.25), diffusion 0.1, the star
  graph, the rollout from the first training frame and ``t_max`` 300 (all
  four bilinear advection terms, the diffusion step, and the star preset);
* ``solve-central`` on the desk seed-5 ``X.csv`` and ``Y.csv``, written into
  the run's own directory, so they are digested too;
* ``experiment`` on desk with ``rank_tol`` 0.698 (the README's example: rank
  15);
* ``experiment`` on desk with ``gains.alpha`` 0.01 on the path preset and
  ``t_max`` 500;
* ``experiment`` on desk with the dictionary ``monomial:2`` and ``t_max`` 300;
* ``experiment`` on desk with ``blob_count`` 0.

Prints one line per output file, ``<sha256>  <run>/<file>``, in the run
order above and by file name within a run.  BLAS is pinned to one thread
before numpy loads, so the digests do not depend on the thread count.  The
package and the configs are read from CHECKOUT (default: the checkout that
holds this script), and nothing is written inside it.  To compare two
revisions, run this one script against each checkout and diff the output:

    python3 scripts/output_digests.py ../parent > before.txt
    python3 scripts/output_digests.py > after.txt

With ``--keep DIR`` each run's outputs stay in ``DIR/<run>/`` (DIR must be
empty or absent), so the files behind two differing listings can be read
side by side.  With ``--against OTHER``, a directory an earlier ``--keep``
run left (of another checkout, say), the listing is followed by one line
per output whose bytes differ from ``OTHER/<run>/<file>``: the largest
absolute deviation of a CSV's numeric cells, the differing keys of a JSON
file, or that the file exists on one side only.  Under the line of a CSV of
at most 20 rows, each differing cell follows on a line of its own,
``row,col: old -> new`` (1-based row and column, the header as row 1; old
is OTHER's cell, and an empty cell reads ''):

    python3 scripts/output_digests.py ../parent --keep before > before.txt
    python3 scripts/output_digests.py --against before > after.txt
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

RANDOM_PAPER = {"scale": "paper", "init": {"mode": "random"}, "t_max": 30}
SWEEP_BENCH = {"stop_tol": 0.0, "t_max": 8000}
RADIAL_DESK = {"scale": "desk", "dictionary": "radial:20:0.5", "t_max": 300}
COMPLETE4_DESK = {"scale": "desk", "scenario": {"num_agents": 4, "snapshots_per_agent": 6},
                  "graph": {"preset": "complete"}}
DRIFT_DIFFUSE_DESK = {"scale": "desk", "scenario": {"drift": [0.5, 0.25], "diffusion": 0.1},
                      "graph": {"preset": "star"}, "rollout": {"start": "first_train"},
                      "t_max": 300}
# one documented config value each that the runs above leave at its default
DOCUMENTED_DESK = {
    "desk-rank-tol": {"scale": "desk", "rank_tol": 0.698},
    "desk-alpha-path": {"scale": "desk", "gains": {"alpha": 0.01}, "graph": {"preset": "path"},
                        "t_max": 500},
    "desk-monomial": {"scale": "desk", "dictionary": "monomial:2", "t_max": 300},
    "desk-no-blobs": {"scale": "desk", "scenario": {"blob_count": 0}},
}


def runs(configs: Path, tmp: Path, out_root: Path) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments without ``--out``) in the order listed above,
    from the checkout's ``configs``; the generated configs go in ``tmp``, the
    ``solve-central`` inputs in its run directory under ``out_root``."""
    from dkoopman import dataio
    from dkoopman.config import load_config
    from dkoopman.scenario import build_instance

    random_cfg = tmp / "paper_random.json"
    random_cfg.write_text(json.dumps(RANDOM_PAPER), encoding="utf-8")
    bench_cfg = tmp / "sweep_bench.json"
    sweep = json.loads((configs / "sweep.json").read_text(encoding="utf-8"))
    bench_cfg.write_text(json.dumps({**sweep, **SWEEP_BENCH}), encoding="utf-8")
    path3 = tmp / "path3.txt"
    path3.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    edge_cfg = tmp / "desk_edge_file.json"
    edge_cfg.write_text(json.dumps({"scale": "desk", "graph": {"edge_file": str(path3)}}),
                        encoding="utf-8")
    radial_cfg = tmp / "desk_radial.json"
    radial_cfg.write_text(json.dumps(RADIAL_DESK), encoding="utf-8")
    complete4_cfg = tmp / "desk_complete4.json"
    complete4_cfg.write_text(json.dumps(COMPLETE4_DESK), encoding="utf-8")
    drift_cfg = tmp / "desk_drift_diffuse.json"
    drift_cfg.write_text(json.dumps(DRIFT_DIFFUSE_DESK), encoding="utf-8")
    for name, config in DOCUMENTED_DESK.items():
        (tmp / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    central = out_root / "solve-central-desk-seed5"
    cfg = load_config(configs / "desk.json", seed=5)
    data = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary).data
    dataio.write_matrix_csv(central / "X.csv", data.X)
    dataio.write_matrix_csv(central / "Y.csv", data.Y)

    def seeded(name, command, seeds):
        config = str(configs / f"{name}.json")
        return [(f"{name}-seed{seed}", [command, "--config", config, "--seed", str(seed)])
                for seed in seeds]

    return [*seeded("desk", "experiment", (5, 3)), *seeded("paper", "experiment", (7, 3)),
            ("paper-random-t30", ["experiment", "--config", str(random_cfg)]),
            *seeded("sweep", "alpha-sweep", (5, 3)),
            ("paper-sweep", ["alpha-sweep", "--scale", "paper"]),
            ("paper-random-sweep-t30", ["alpha-sweep", "--config", str(random_cfg)]),
            ("sweep-bench-seed5", ["alpha-sweep", "--config", str(bench_cfg), "--seed", "5"]),
            ("sweep-thetas", ["alpha-sweep", "--config", str(configs / "sweep.json"),
                              "--thetas", "0.5,3.0"]),
            ("gen-desk-seed5", ["gen", "--scale", "desk", "--seed", "5"]),
            ("desk-edge-file", ["experiment", "--config", str(edge_cfg)]),
            ("desk-radial", ["experiment", "--config", str(radial_cfg)]),
            ("desk-complete4", ["experiment", "--config", str(complete4_cfg)]),
            ("desk-drift-diffuse", ["experiment", "--config", str(drift_cfg)]),
            (central.name, ["solve-central", str(central / "X.csv"), str(central / "Y.csv")]),
            *((name, ["experiment", "--config", str(tmp / f"{name}.json")])
              for name in DOCUMENTED_DESK)]


def _cells(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _csv_deviation(here: Path, there: Path) -> str:
    """The largest absolute deviation between two CSVs' numeric cells, next
    to their largest magnitude; the other cells (headers, flags, empty
    cells) are compared as text."""
    a, b = _cells(here), _cells(there)
    if [len(row) for row in a] != [len(row) for row in b]:
        return "shape differs"
    worst, size, text = 0.0, 0.0, 0
    for x, y in zip((c for row in a for c in row), (c for row in b for c in row)):
        try:
            u, v = float(x), float(y)
        except ValueError:
            text += x != y
            continue
        size = max(size, abs(u), abs(v))
        if u != v and not (math.isnan(u) and math.isnan(v)):
            gap = abs(u - v)
            worst = max(worst, math.inf if math.isnan(gap) else gap)  # nan on one side: inf
    return (f"max abs deviation {worst:.3g} (largest |value| {size:.3g})"
            + (f", {text} text cells differ" if text else ""))


def _cell_changes(here: Path, there: Path, max_rows: int = 20) -> list[str]:
    """``row,col: old -> new`` for each cell of ``here`` that differs from
    the same cell of ``there`` (old), both of the same shape and at most
    ``max_rows`` rows; nothing for larger or differently shaped files."""
    a, b = _cells(here), _cells(there)
    if len(a) > max_rows or [len(row) for row in a] != [len(row) for row in b]:
        return []
    return [f"{i},{j}: {old or repr('')} -> {new or repr('')}"
            for i, (new_row, old_row) in enumerate(zip(a, b), 1)
            for j, (new, old) in enumerate(zip(new_row, old_row), 1) if new != old]


def _json_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ; ``+`` marks a key found
    here only, ``-`` one found in the other file only."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix or "(top level)"]
    out = []
    for key in sorted(a.keys() | b.keys()):
        path = f"{prefix}.{key}" if prefix else key
        if key not in b:
            out.append("+" + path)
        elif key not in a:
            out.append("-" + path)
        else:
            out += _json_keys(a[key], b[key], path)
    return out


def deviations(out_root: Path, other: Path, names: list[str]) -> list[str]:
    """One line per output file of ``names`` (``<run>/<file>``, plus the
    files of those runs under ``other``) whose bytes differ; a small CSV's
    line is followed by its :func:`_cell_changes`, indented."""
    lines = []
    runs = sorted({name.split("/")[0] for name in names})
    theirs = [f"{run}/{p.name}" for run in runs if (other / run).is_dir()
              for p in sorted((other / run).iterdir())]
    for name in names + [n for n in theirs if n not in names]:
        here, there = out_root / name, other / name
        if not there.exists():
            lines.append(f"{name}: only here")
        elif not here.exists():
            lines.append(f"{name}: only in {other}")
        elif here.read_bytes() == there.read_bytes():
            continue
        elif here.suffix == ".csv":
            lines.append(f"{name}: {_csv_deviation(here, there)}")
            lines += ["  " + change for change in _cell_changes(here, there)]
        elif here.suffix == ".json":
            keys = _json_keys(json.loads(here.read_text(encoding="utf-8")),
                              json.loads(there.read_text(encoding="utf-8")))
            lines.append(f"{name}: keys differ: {', '.join(keys) or '(formatting only)'}")
        else:
            lines.append(f"{name}: bytes differ")
    return lines


def main_digests(root: Path, keep: Path | None, against: Path | None) -> int:
    from dkoopman.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="output_digests.") as tmp:
        tmp = Path(tmp)
        out_root = tmp / "runs" if keep is None else keep.resolve()
        lines, names = [], []
        for run, argv in runs(root / "configs", tmp, out_root):
            out = out_root / run
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli_main(argv + ["--out", str(out)])
            if rc != 0:
                print(f"{run}: exit {rc}", file=sys.stderr)
                return 1
            paths = sorted(out.iterdir())
            names += [f"{run}/{path.name}" for path in paths]
            lines += [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {run}/{path.name}"
                      for path in paths]
        if against is not None:
            moved = deviations(out_root, against.resolve(), names)
            count = sum(not line.startswith(" ") for line in moved)
            lines += ["", f"{count} outputs differ from {against}:", *moved]
    print("\n".join(lines))
    return 0


def prepare(root: Path) -> None:
    """Set up the process to run the package of the checkout ``root``; call
    before the package, and so numpy, loads.  The outputs must not depend
    on the thread count, and nothing is written inside the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1],
                        help="checkout whose src and configs are run (default: this one)")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write the runs under DIR/<run>/ and leave them there")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="list how each output differs from OTHER/<run>/<file>")
    args = parser.parse_args(argv)
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        parser.error(f"--keep directory {args.keep} is not empty")
    root = args.checkout.resolve()
    prepare(root)
    return main_digests(root, args.keep, args.against)


if __name__ == "__main__":
    sys.exit(main())
