"""File exchange formats: CSV matrices, complex spectra, traces, frames, JSON.

Matrices are plain CSV, one row per line, 17 significant digits.  Spectra
are two-column CSV with a "re,im" header.  Frame dumps come as one CSV per
frame or as a flat binary file (two little-endian uint64 for grid side and
frame count, then frame-major float64 little-endian data).  Every writer
is atomic: content goes to a temp file in the target directory first and
is moved into place with os.replace.  JSON files hold no NaN or infinity:
such values are written as null.

The text writers format each distinct value once.  The paper-scale outputs
repeat a few dozen values thousands of times, so matrices and spectra are
formatted per distinct bit pattern, and ``write_json`` reuses the text of
each repeated list of floats.  The bytes are those of formatting every
entry on its own.  A matrix whose distinct rows hold mostly distinct values
takes one %-template per row instead, the faster path for such data; the
choice is made from the data alone.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from array import array
from pathlib import Path

import numpy as np


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# The per-value path formats each distinct value once but then gathers the
# texts of every line, at 0.2 (100 x 100) to 0.6 (1500 x 1500) of a template's
# cost per value: it paid below a distinct share of 0.45 on small matrices and
# of 0.15 at 1500 x 1500, and one in eight keeps it ahead at every size measured.
_DEDUPE_SHARE = 1 / 8


def _csv_rows(matrix) -> list[bytes]:
    """The ``%.17g`` line of each row of ``matrix``, each distinct value formatted once.

    Rows are keyed by their bytes and values by their bits, so -0.0 and 0.0
    (and NaN payloads) stay apart and every line has the text it would have
    on its own.  Operators fitted to the paper-scale data repeat rows and
    values: every pixel runs the same logistic cycle in one of a few phases,
    so K*, K_ave and their difference inherit bit-identical rows built from
    a few dozen values, and a spectrum repeats its exact zeros.  Unless
    the share of distinct values in the distinct rows is below
    ``_DEDUPE_SHARE``, one %-template per row is the cheaper way to the same
    text, and that path is taken instead.  Each line
    ends in a newline and is encoded once per distinct row, so a file's text
    is copied only once, into its bytes.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    index: dict[bytes, int] = {}
    which = [index.setdefault(row.tobytes(), len(index)) for row in arr]
    rows = np.frombuffer(b"".join(index), dtype=float).reshape(len(index), arr.shape[1])
    bits = rows.view(np.uint64)
    values = np.sort(bits, axis=None)  # numpy 2's np.unique hashes: 30 times slower here
    repeated = values[1:] == values[:-1]
    if values.size - np.count_nonzero(repeated) >= _DEDUPE_SHARE * values.size:
        template = ",".join(["%.17g"] * arr.shape[1]) + "\n"
        texts = [(template % tuple(row)).encode() for row in rows]
    else:
        values = values[np.concatenate(([True], ~repeated))]
        value_texts = np.array(["%.17g" % v for v in values.view(np.float64).tolist()],
                               dtype=object)
        codes = np.searchsorted(values, bits)
        texts = [(",".join(line) + "\n").encode() for line in value_texts[codes].tolist()]
    return [texts[k] for k in which]


def write_matrix_csv(path, matrix) -> None:
    atomic_write_bytes(path, b"".join(_csv_rows(matrix)) or b"\n")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_spectrum_csv(path, eigs) -> None:
    vals = np.atleast_1d(np.asarray(eigs, dtype=complex))
    rows = _csv_rows(np.column_stack((vals.real, vals.imag)))
    atomic_write_bytes(path, b"".join([b"re,im\n", *rows]))


TRACE_COLUMNS = ("iteration", "consensus_error", "objective_mean", "fit_metric",
                 "kkt_residual", "integral_sum_norm")


def write_trace_csv(path, trace) -> None:
    """The header line, then one %-template line per round.

    One %-template per row formats about 1.6 times as fast as one f-string
    per value, with the same text: numpy float64 scalars format exactly like
    Python floats.  The rows are read one at a time and the list of lines
    lives only inside the join, which keeps the peak memory of a long trace
    below that of a list of all values or all lines held to the end.
    """
    series = [getattr(trace, name) for name in TRACE_COLUMNS[1:]]
    template = "%d" + ",%.17g" * len(series)
    rows = zip(range(1, trace.iterations + 1), *series)
    atomic_write_text(path, "\n".join([",".join(TRACE_COLUMNS),
                                       *(template % row for row in rows)]) + "\n")


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with NaN and infinities as null.

    One walk renders the text; keys must be str.  Scalars go through
    ``json.dumps``.  The text of a list of plain floats is cached under its
    depth and its items' bit patterns: a report repeats a few distinct
    eigenvalue pairs thousands of times, and keying on bits rather than float
    equality keeps ``[x, -0.0]`` apart from ``[x, 0.0]``.
    """
    cache: dict[tuple[int, bytes], str] = {}

    def block(opener, items, closer, depth):
        inner = "\n" + "  " * (depth + 1)
        return opener + inner + ("," + inner).join(items) + "\n" + "  " * depth + closer

    def render_list(value, depth):
        return block("[", [render(item, depth + 1) for item in value], "]", depth)

    def render(value, depth):
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            if {*map(type, value)} != {float}:
                return render_list(value, depth)
            key = (depth, array("d", value).tobytes())
            if key not in cache:
                cache[key] = render_list(value, depth)
            return cache[key]
        if isinstance(value, dict):
            if not value:
                return "{}"
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            return block("{", [json.dumps(key) + ": " + render(value[key], depth + 1)
                               for key in sorted(value)], "}", depth)
        if isinstance(value, float) and not math.isfinite(value):
            return "null"
        return json.dumps(value)

    return render(obj, 0)


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys; NaN and infinities are written as null.

    JSON (RFC 8259) has no tokens for them, and Python's ``NaN`` and
    ``Infinity`` would make the file unreadable to strict parsers.
    """
    atomic_write_text(path, _json_text(obj) + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_frames_csv(outdir, frames) -> list[Path]:
    """One g x g CSV per frame: frame_0000.csv, frame_0001.csv, ..."""
    frames = np.asarray(frames, dtype=float)
    outdir = Path(outdir)
    paths = []
    for k, frame in enumerate(frames):
        p = outdir / f"frame_{k:04d}.csv"
        write_matrix_csv(p, frame)
        paths.append(p)
    return paths


def write_frames_binary(path, frames) -> None:
    frames = np.ascontiguousarray(np.asarray(frames, dtype="<f8"))
    if frames.ndim != 3 or frames.shape[1] != frames.shape[2]:
        raise ValueError(f"expected (count, g, g) frames, got shape {frames.shape}")
    header = np.array([frames.shape[1], frames.shape[0]], dtype="<u8").tobytes()
    atomic_write_bytes(path, header + frames.tobytes())


def read_frames_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError("frame dump too short for its header")
    g, count = (int(v) for v in np.frombuffer(raw[:16], dtype="<u8"))
    expected = 16 + count * g * g * 8
    if len(raw) != expected:
        raise ValueError(f"frame dump has {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw[16:], dtype="<f8")
    return data.reshape(count, g, g).copy()
