"""Unit tests for the dependency-free SVG line plots."""

import re

from clinewave.svgplot import line_plot


def test_single_x_value_is_plotted_mid_axis(tmp_path):
    # one r-point of a speed comparison: every series has the same x
    path = tmp_path / "plot.svg"
    line_plot(path, [("measured", [0.5], [0.031]), ("predicted", [0.5], [0.033])],
              xlabel="r")
    text = path.read_text()
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(points) == 2
    # the x range widens to [0, 1], putting 0.5 at the middle of the axes box
    assert {float(p.split(",")[0]) for p in points} == {72 + 0.5 * (720 - 72 - 24)}
