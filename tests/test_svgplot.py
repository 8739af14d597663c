"""The dependency-free SVG line plots, and what each command's ``--svg`` draws."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from clinewave.cli import main
from clinewave.svgplot import line_plot, plot_tables


def test_single_x_value_is_plotted_mid_axis(tmp_path):
    # one r-point of a speed comparison: every series has the same x
    path = tmp_path / "plot.svg"
    line_plot(path, [("measured", [0.5], [0.031]), ("predicted", [0.5], [0.033])],
              "speed_plot_data", "r")
    text = path.read_text()
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(points) == 2
    # the x range widens to [0, 1], putting 0.5 at the middle of the axes box
    assert {float(p.split(",")[0]) for p in points} == {72 + 0.5 * (720 - 72 - 24)}


@pytest.mark.parametrize("x, y", [([1e17], [1e17]), ([0.0, 1.0], [-1e308, 1e308])],
                         ids=["widening-rounds-away", "span-past-float-range"])
def test_every_finite_series_is_plotted_inside_the_axes(tmp_path, x, y):
    path = tmp_path / "plot.svg"
    line_plot(path, [("a", x, y)], "plot", "x")
    points = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}polyline").get("points")
    assert len(points.split()) == len(x)
    for point in points.split():
        px, py = map(float, point.split(","))
        assert 72 <= px <= 720 - 24 and 40 <= py <= 460 - 56


def _predicted_svgs(outdir):
    """The SVG files the ``--svg`` rules call for, read off every CSV under ``outdir``."""
    expected = set()
    for path in outdir.rglob("*.csv"):
        header, *rows = path.read_text().splitlines()
        if not rows:  # no rows, nothing to draw
            continue
        try:
            values = np.array([row.split(",") for row in rows], dtype=float)
        except ValueError:  # a text column: a record, not a series
            continue
        names = header.split(",")
        finite = np.isfinite(values).any(axis=0)
        if names[:2] == ["t", "x"]:  # a trajectory: one file per field
            expected |= {path.with_name(f"{path.stem}_{name}.svg")
                         for name, ok in zip(names[2:], finite[2:]) if ok}
        elif finite[0] and finite[1:].any():
            expected.add(path.with_suffix(".svg"))
    return expected


@pytest.mark.parametrize("argv", [
    ["standing"],
    ["standing", "--preset", "fig2", "--dx", "0.05"],
    ["simulate", "--t-end", "4", "--dt", "0.5", "--record-every", "2"],
    ["simulate", "--preset", "fig1", "--t-end", "4"],
    ["speed", "--r-grid", "0.15:0.5:0.05", "--s", "0.01"],
    ["compare", "--r-grid", "0.5:0.5:0.1", "--t-end", "20"],
    ["stability"],
    ["sweep", "standing", "--vary", "S=0.1,0.2", "--threads", "1"],  # --svg forwarded
], ids=["standing", "fig2", "simulate", "fig1", "speed", "compare", "stability", "sweep"])
def test_svg_draws_every_table_a_run_writes(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--svg", "--out", str(out)]) == 0
    expected = _predicted_svgs(out)
    assert expected
    assert set(out.rglob("*.svg")) == expected
    for path in expected:
        assert ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}polyline")


def test_plot_tables_leaves_out_what_it_cannot_draw(tmp_path):
    (tmp_path / "empty.csv").write_text("r,c1_exact\n")
    (tmp_path / "record.csv").write_text("r,frame\n0.1,original\n")
    (tmp_path / "lost.csv").write_text("t,separation\n0,nan\n1,nan\n")
    (tmp_path / "part.csv").write_text("t,lost,kept\n0,nan,1\n1,nan,2\n")
    plot_tables(tmp_path)
    assert [path.name for path in tmp_path.glob("*.svg")] == ["part.svg"]
    assert (tmp_path / "part.svg").read_text().count("<polyline") == 1
