"""File exchange formats: CSV matrices, complex spectra, traces, frames, JSON.

Matrices are plain CSV, one row per line, 17 significant digits.  Spectra
are two-column CSV with a "re,im" header.  Frame dumps come as one CSV per
frame or as a flat binary file (two little-endian uint64 for grid side and
frame count, then frame-major float64 little-endian data).  Every writer
is atomic: content goes to a temp file in the target directory first and
is moved into place with os.replace.  JSON files hold no NaN or infinity:
such values are written as null.
"""

from __future__ import annotations

import json
import os
import tempfile
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


def _csv_text(template: str, rows, header: tuple[str, ...] = ()) -> str:
    """The header lines, then ``template % tuple(row)`` for each row.

    One %-template per row formats about 1.6 times as fast as one f-string
    per value, with the same text: numpy float64 scalars format exactly like
    Python floats.  The rows are read one at a time and the list of lines
    lives only inside the join, which keeps the peak memory of a long trace
    below that of a list of all values or all lines held to the end.
    """
    return "\n".join([*header, *(template % tuple(row) for row in rows)]) + "\n"


def write_matrix_csv(path, matrix) -> None:
    """One ``%.17g`` line per row, each distinct row formatted once.

    Rows are keyed by their bytes, so -0.0 and 0.0 (and NaN payloads) stay
    apart and every line has the text it would have on its own.  Operators
    fitted to the paper-scale data repeat rows: every pixel runs the same
    logistic cycle in one of a few phases, so K*, K_ave and their difference
    inherit bit-identical rows.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    template = ",".join(["%.17g"] * arr.shape[1])
    lines: dict[bytes, str] = {}

    def line(row) -> str:
        key = row.tobytes()
        text = lines.get(key)
        if text is None:
            text = lines[key] = template % tuple(row)
        return text

    atomic_write_text(path, "\n".join([line(row) for row in arr]) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_spectrum_csv(path, eigs) -> None:
    vals = np.atleast_1d(np.asarray(eigs, dtype=complex))
    atomic_write_text(path, _csv_text("%.17g,%.17g", zip(vals.real, vals.imag), ("re,im",)))


def read_spectrum_csv(path) -> np.ndarray:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0] + 1j * raw[:, 1]


TRACE_COLUMNS = ("iteration", "consensus_error", "objective_mean", "fit_metric",
                 "kkt_residual", "integral_sum_norm")


def write_trace_csv(path, trace) -> None:
    series = (trace.consensus_error, trace.objective_mean, trace.fit_metric,
              trace.kkt_residual, trace.integral_sum_norm)
    atomic_write_text(path, _csv_text("%d" + ",%.17g" * len(series),
                                      zip(range(1, trace.iterations + 1), *series),
                                      (",".join(TRACE_COLUMNS),)))


def _finite_or_null(obj):
    """``obj`` with every NaN and infinite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys; NaN and infinities are written as null.

    JSON (RFC 8259) has no tokens for them, and Python's ``NaN`` and
    ``Infinity`` would make the file unreadable to strict parsers.
    """
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_lifted_data(outdir, data) -> tuple[Path, Path]:
    """Paired X.csv / Y.csv export of lifted data matrices."""
    outdir = Path(outdir)
    x_path, y_path = outdir / "X.csv", outdir / "Y.csv"
    write_matrix_csv(x_path, data.X)
    write_matrix_csv(y_path, data.Y)
    return x_path, y_path


def read_lifted_data(outdir):
    """Inverse of :func:`write_lifted_data`; validates the pairing."""
    from .edmd import LiftedData

    outdir = Path(outdir)
    return LiftedData(X=read_matrix_csv(outdir / "X.csv"),
                      Y=read_matrix_csv(outdir / "Y.csv"))


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
