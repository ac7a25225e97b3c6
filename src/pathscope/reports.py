"""Report writers: diff-able CSV (stable column order, LF endings, '.'
decimals), JSON sidecars with sorted keys, and 8-bit PGM for saliency maps."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import ArgumentError


def _bool_text(v) -> str:
    return "true" if v else "false"


def _int_text(v) -> str:
    return str(int(v))


def _float_text(v) -> str:
    return "%.12g" % float(v)


def _formatter(v):
    """The function that writes values of v's type."""
    if isinstance(v, (bool, np.bool_)):
        return _bool_text
    if isinstance(v, (int, np.integer)):
        return _int_text
    if isinstance(v, (float, np.floating)):
        return _float_text
    return str


def format_value(v) -> str:
    return _formatter(v)(v)


def _column_text(column) -> list[str]:
    """Each value's format_value. A numpy array of bools, integers, floats or
    strings takes its dtype's formatter, picked once; any other column
    formats each value by its own type."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biufU":
        return list(map(_formatter(column.dtype.type()), column.tolist()))
    return [format_value(v) for v in column]


def csv_text(header: list[str], rows: list = (), *, columns: list | None = None) -> str:
    """The table given as `rows`, or as `columns`, one sequence per header name."""
    if columns is None:
        for row in rows:
            if len(row) != len(header):
                raise ArgumentError(f"row {row!r} does not match header {header}")
        columns = list(zip(*rows)) or [()] * len(header)
    elif len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ArgumentError(f"columns of lengths {[len(c) for c in columns]} do not match "
                            f"header {header}")
    lines = [",".join(header), *map(",".join, zip(*map(_column_text, columns)))]
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows: list = (), *, columns: list | None = None) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(csv_text(header, rows, columns=columns))


def _encode(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Pretty JSON with sorted keys and a final newline. Beyond json's own
    types, `obj` may hold numpy arrays and scalars, written as their Python
    values, and dataclass instances, written as their fields."""
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=2, default=_encode)
        f.write("\n")


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5) from a [H,W] array with values in [0,1]."""
    if image.ndim != 2:
        raise ArgumentError(f"PGM wants a 2-d map, got {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
