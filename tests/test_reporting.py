"""Unit tests for the deterministic CSV writer."""

import numpy as np

from clinewave.reporting import write_csv

EDGE_VALUES = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               1.0 / 3.0, 2.0**60, 2**60, 7, np.int64(-3), np.float64(0.1)]


def fmt_float(value) -> str:
    """The byte oracle: every number at 17 significant digits, as a float."""
    return "%.17g" % float(value)


def test_lines_match_fmt_float_byte_for_byte(tmp_path):
    # the first row fixes the formats: a string column, the rest floats
    rows = [EDGE_VALUES + ["frame"], EDGE_VALUES[::-1] + ["lab"]]
    header = [f"c{i}" for i in range(len(rows[0]))]
    write_csv(tmp_path / "edge.csv", header, rows)
    expected = [",".join(header)] + [
        ",".join(v if isinstance(v, str) else fmt_float(v) for v in row) for row in rows]
    assert (tmp_path / "edge.csv").read_text() == "\n".join(expected) + "\n"


def test_array_rows_and_no_rows(tmp_path):
    arr = np.array([[0.1, -0.0], [np.nan, 1e300]])
    write_csv(tmp_path / "arr.csv", ["a", "b"], arr)
    assert (tmp_path / "arr.csv").read_text() == \
        "a,b\n0.10000000000000001,-0\nnan,1.0000000000000001e+300\n"
    write_csv(tmp_path / "empty.csv", ["a"], [])
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def test_rows_across_blocks(tmp_path):
    arr = np.arange(2 * 2500, dtype=float).reshape(2500, 2) / 7.0
    write_csv(tmp_path / "long.csv", ["a", "b"], arr)
    assert (tmp_path / "long.csv").read_text() == "a,b\n" + "".join(
        f"{fmt_float(a)},{fmt_float(b)}\n" for a, b in arr)
