"""Report writers: the exact text of JSON sidecars and CSV tables."""

from __future__ import annotations

import numpy as np
import pytest

from pathscope import reports
from pathscope.correlation import TauReport, TauRow
from pathscope.errors import ArgumentError


def json_text(tmp_path, obj) -> str:
    path = tmp_path / "out.json"
    reports.write_json(path, obj)
    return path.read_bytes().decode()


def test_write_json_numpy_values_and_sorted_keys(tmp_path):
    obj = {
        "z": {"b": np.float32(0.1), "a": np.int64(7)},
        "flag": np.bool_(True),
        "f64": np.float64(1 / 3),
        "nan": float("nan"),
        "pair": (1, 2),
        "array": np.arange(3, dtype=np.int32),
    }
    assert json_text(tmp_path, obj) == (
        '{\n'
        '  "array": [\n    0,\n    1,\n    2\n  ],\n'
        '  "f64": 0.3333333333333333,\n'
        '  "flag": true,\n'
        '  "nan": NaN,\n'
        '  "pair": [\n    1,\n    2\n  ],\n'
        '  "z": {\n    "a": 7,\n    "b": 0.10000000149011612\n  }\n'
        '}\n'
    )


def test_write_json_report_dataclass_as_its_fields(tmp_path):
    report = TauReport([TauRow("conv1", 0.5, 0.25, 0.75, 0.125, 1)], {"samples": np.int64(2)})
    assert json_text(tmp_path, report) == (
        '{\n'
        '  "metadata": {\n    "samples": 2\n  },\n'
        '  "rows": [\n'
        '    {\n'
        '      "layer": "conv1",\n'
        '      "skipped_images": 1,\n'
        '      "tau_abs_mean": 0.75,\n'
        '      "tau_abs_std": 0.125,\n'
        '      "tau_raw_mean": 0.5,\n'
        '      "tau_raw_std": 0.25\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def test_write_json_rejects_other_types(tmp_path):
    with pytest.raises(TypeError, match="set"):
        reports.write_json(tmp_path / "out.json", {"s": {1, 2}})


def test_csv_text_formats_each_value():
    text = reports.csv_text(["a", "b", "c", "d", "e"],
                            [[1 / 3, 1e20, float("nan"), np.int64(4), True],
                             ["x", 2, np.float32(0.5), 0, np.bool_(False)]])
    assert text == ("a,b,c,d,e\n"
                    "0.333333333333,1e+20,nan,4,true\n"
                    "x,2,0.5,0,false\n")


def test_csv_text_rejects_a_short_row():
    with pytest.raises(ArgumentError, match="does not match header"):
        reports.csv_text(["a", "b"], [[1]])
