"""Deterministic JSON/CSV serialization and SVG plotting."""

import json
import math

import numpy as np
import pytest

from triplex.evolution import EvolveConfig, evolve, energy_margins, seeded_state
from triplex.models import gallery
from triplex.quantize import FourierGrid
from triplex.reporting import (
    Series,
    csv_text,
    emit_plot,
    energy_csv_text,
    json_text,
    line_plot,
    operator_csv_text,
    write_csv,
    write_json,
)


def test_json_text_is_sorted_and_newline_terminated():
    payload = {"b": 1, "a": {"z": True, "y": None}}
    text = json_text(payload)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == payload


def test_json_handles_numpy_and_nonfinite():
    payload = {
        "i": np.int64(3),
        "f": np.float64(0.5),
        "arr": np.array([1.0, 2.0]),
        "nan": float("nan"),
        "inf": float("inf"),
        "ninf": -float("inf"),
        "z": 1 + 2j,
        "flag": np.bool_(True),
    }
    loaded = json.loads(json_text(payload))
    assert loaded["i"] == 3 and loaded["f"] == 0.5
    assert loaded["arr"] == [1.0, 2.0]
    assert loaded["nan"] == "nan"
    assert loaded["inf"] == "inf" and loaded["ninf"] == "-inf"
    assert loaded["z"] == {"re": 1.0, "im": 2.0}
    assert loaded["flag"] is True


def test_json_identical_across_calls():
    payload = {"x": [math.pi, 1e-17, 123456789.123456789]}
    assert json_text(payload) == json_text(payload)


def test_csv_text_round_trips_floats_exactly():
    rows = [(0.1, 1e-300, math.pi), (2.0, -0.0, 1.0 / 3.0)]
    text = csv_text(("a", "b", "c"), rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    for got, want in zip(parsed, rows):
        for g, w in zip(got, want):
            assert g == w or (math.isnan(g) and math.isnan(w))


def test_csv_text_rejects_ragged_rows():
    with pytest.raises(ValueError):
        csv_text(("a", "b"), [(1.0, 2.0, 3.0)])


def test_file_writers(tmp_path):
    jpath = tmp_path / "out.json"
    cpath = tmp_path / "out.csv"
    write_json(str(jpath), {"k": 1})
    write_csv(str(cpath), ("a",), [(1.0,)])
    assert json.loads(jpath.read_text()) == {"k": 1}
    assert cpath.read_text().startswith("a\n")


def test_operator_csv_is_row_major():
    mat = np.array([[1.0 + 2.0j, 0.0], [3.0, 4.0 - 1.0j]])
    lines = operator_csv_text(mat).strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert lines[1].startswith("0,0,1.0,2.0")
    assert lines[4].startswith("1,1,4.0,-1.0")


def test_line_plot_produces_self_contained_svg():
    s = Series(x=[1.0, 2.0, 3.0], y=[1.0, 4.0, 9.0], label="sq")
    svg = line_plot([s], title="demo", xlabel="x", ylabel="y")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "demo" in svg and "sq" in svg
    assert line_plot([s]) == line_plot([s])


def test_line_plot_rejects_bad_input():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError):
        line_plot([Series(x=[], y=[], label="empty")])
    with pytest.raises(ValueError):
        line_plot([Series(x=[1.0], y=[float("nan")], label="bad")])
    with pytest.raises(ValueError):
        line_plot([Series(x=[0.0, 1.0], y=[1.0, 2.0], label="s")], logx=True)


def test_emit_plot_dispatches_and_writes(tmp_path):
    grid = FourierGrid(4)
    trace, _ = evolve(gallery("g_strict"), None, seeded_state(grid, 0),
                      EvolveConfig(eps_start=0.1, T=0.5), grid)
    path = tmp_path / "energy.svg"
    svg = emit_plot(trace, str(path))
    assert path.read_text() == svg
    margins_svg = emit_plot(energy_margins(trace), str(tmp_path / "m.svg"))
    assert "min =" in margins_svg
    pair_svg = emit_plot(([1.0, 2.0], [3.0, 4.0]), str(tmp_path / "p.svg"))
    assert pair_svg.startswith("<svg")
    with pytest.raises(TypeError):
        emit_plot(object(), str(tmp_path / "x.svg"))


def test_emit_plot_bytes_are_stable(tmp_path):
    xy = ([1.0, 2.0, 4.0], [2.0, 3.0, 5.0])
    a = emit_plot(xy, str(tmp_path / "a.svg"))
    b = emit_plot(xy, str(tmp_path / "b.svg"))
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
