"""Multivariate time series file formats and the finite-value rule.

A series is a p x n float64 array: rows are components, columns are time
points. check_series holds the rule every series that is estimated or
written meets; the readers only parse. Two on-disk formats are supported:
a plain CSV with a time column, and a compact binary layout (16-byte
header followed by row-major little-endian float64 data). Result
documents are pretty-printed JSON.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

BINARY_MAGIC = b"MVS1"
_HEADER = struct.Struct("<4sIQ")  # magic, p (u32), n (u64); 16 bytes


def check_series(values) -> np.ndarray:
    """The values as a float64 array, checked once where a series is used:
    in estimate_series, which every read series goes to, and on a drawn
    series before it is written."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"series must be a 2-d array, got shape {values.shape}")
    if values.shape[0] < 1 or values.shape[1] < 1:
        raise ValueError(f"series must be non-empty, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite entries")
    return values


def write_csv(path, header, rows) -> None:
    """Write a table as ASCII CSV with a header row and LF line ends: str
    and int cells as they are, any other number as repr(float(x))."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def _csv_cell(x) -> str:
    return str(x) if isinstance(x, (str, int)) else repr(float(x))


def write_series_csv(series: np.ndarray, path) -> None:
    """Write a p x n series as CSV with columns t, y_1, ..., y_p."""
    header = ["t", *(f"y_{i + 1}" for i in range(series.shape[0]))]
    write_csv(path, header, ((t, *col) for t, col in enumerate(series.T.tolist())))


def read_series_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValueError(f"{path}: not a series CSV (first column must be 't')")
        p = len(header) - 1
        cols = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != p + 1:
                raise ValueError(f"{path}: row has {len(parts)} fields, expected {p + 1}")
            cols.append([float(x) for x in parts[1:]])
    if not cols:
        raise ValueError(f"{path}: no data rows")
    return np.array(cols).T


def write_series_binary(series: np.ndarray, path) -> None:
    """Write the compact binary layout: 16-byte header, then row-major f64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, *series.shape))
        fh.write(np.ascontiguousarray(series, dtype="<f8").tobytes())


def read_series_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, p, n = _HEADER.unpack(head)
        if magic != BINARY_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        size = os.fstat(fh.fileno()).st_size
        if size != _HEADER.size + 8 * p * n:
            raise ValueError(f"{path}: header claims {p} x {n} values, "
                             f"file holds {size - _HEADER.size} data bytes")
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(p, n).copy()


def write_json(doc, path) -> None:
    """Write a result document as sorted, indented ASCII JSON with a final
    newline; numpy scalars are written as floats."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
