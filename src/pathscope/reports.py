"""Report writers: diff-able CSV (stable column order, LF endings, '.'
decimals), JSON sidecars with sorted keys, and 8-bit PGM for saliency maps."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import ArgumentError


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    return str(v)


def csv_text(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ArgumentError(f"row {row!r} does not match header {header}")
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(csv_text(header, rows))


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
