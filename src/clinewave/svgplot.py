"""Minimal self-contained SVG line plots (no external renderer).

`plot_tables` draws each CSV table of a run directory with `line_plot`: one axes box,
linear ticks, a polyline per series, and a text legend. Deliberately spartan: these
files exist so a run directory can be eyeballed without any plotting stack installed.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56
_COLORS = ["#1f6fb2", "#d1495b", "#3a7d44", "#8e6c8a", "#c77d2c", "#3d3d3d"]
_MAX = sys.float_info.max


def _span(values) -> tuple[float, float]:
    """The range of ``values``, made drawable: a single value widens by 0.5
    each way, or by half its size where 0.5 rounds away, within float range."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < sys.float_info.min:  # one value, or two a subnormal apart
        half = 0.5 if lo - 0.5 < hi + 0.5 else abs(lo) / 2
        lo, hi = lo - half, hi + half
    return max(lo, -_MAX), min(hi, _MAX)


def _ticks(lo: float, hi: float):
    raw = (hi / 2 - lo / 2) / 2.5  # a fifth of the span: six ticks at most
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = [first + i * step for i in range(6)]
    return [0.0 if abs(t) < 1e-15 * step else t for t in ticks if t <= hi + 1e-12 * step]


def line_plot(path, series, title: str, xlabel: str) -> None:
    """Write an SVG with one polyline per (label, x, y) triple in ``series``,
    leaving out a series with no finite point; with none left, write nothing."""
    series = [(label, np.asarray(x, float), np.asarray(y, float)) for label, x, y in series]
    series = [(label, x, y) for label, x, y in series if np.any(np.isfinite(x) & np.isfinite(y))]
    if not series:
        return
    xs = np.concatenate([x for _, x, _ in series])
    ys = np.concatenate([y for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = _span(xs[finite])
    y_lo, y_hi = _span(ys[finite])
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = max(y_lo - pad, -_MAX), min(y_hi + pad, _MAX)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):  # spans in halves, as a span of the whole float range overflows
        return _MARGIN_L + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi / 2 - y / 2) / (y_hi / 2 - y_lo / 2) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 14}" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_MARGIN_T + plot_h}" x2="{px(t):.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
            f'<text x="{px(t):.1f}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle">{t:.6g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(t):.1f}" x2="{_MARGIN_L}" '
            f'y2="{py(t):.1f}" stroke="#333"/>'
            f'<text x="{_MARGIN_L - 9}" y="{py(t):.1f}" text-anchor="end" '
            f'dominant-baseline="middle">{t:.6g}</text>'
        )
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 14}" '
                 f'text-anchor="middle">{xlabel}</text>')
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        keep = np.isfinite(x) & np.isfinite(y)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[keep], y[keep]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_T + 16 + 16 * idx
            lx = _MARGIN_L + plot_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
                f'<text x="{lx + 28}" y="{ly}">{label}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def plot_tables(outdir) -> None:
    """Draw every CSV table under ``outdir``, searched recursively, next to it.

    A table gets ``<stem>.svg``: every column plotted against its first column.
    A table whose first two columns are ``t, x`` (a trajectory) gets one
    ``<stem>_<field>.svg`` per field, at its first, middle and last time.
    A table with a text column is a record, not a series, and gets no SVG.
    A column with no finite value is skipped, and a table with no rows gets no SVG."""
    for path in sorted(Path(outdir).rglob("*.csv")):
        header, *rows = path.read_text().splitlines()
        if not rows:
            continue
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError:  # a text column
            continue
        names = header.split(",")
        if names[:2] != ["t", "x"]:
            line_plot(path.with_suffix(".svg"),
                      [(name, data[:, 0], column) for name, column in zip(names[1:], data.T[1:])],
                      title=path.stem, xlabel=names[0])
            continue
        nx = np.count_nonzero(data[:, 0] == data[0, 0])  # rows per record
        records = data.reshape(-1, nx, len(names))  # (time, node, column)
        for j, field in enumerate(names[2:], start=2):
            line_plot(path.with_name(f"{path.stem}_{field}.svg"),
                      [(f"t={records[i, 0, 0]:g}", records[i, :, 1], records[i, :, j])
                       for i in (0, (len(records) - 1) // 2, -1)],
                      title=f"{path.stem}: {field}", xlabel="x")
