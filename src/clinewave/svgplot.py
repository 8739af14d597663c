"""Minimal self-contained SVG line plots (no external renderer).

One axes box, linear ticks, a polyline per series, and a text legend.
Deliberately spartan: these files exist so a run directory can be eyeballed
without any plotting stack installed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56
_COLORS = ["#1f6fb2", "#d1495b", "#3a7d44", "#8e6c8a", "#c77d2c", "#3d3d3d"]


def _ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-15 * abs(step) else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def line_plot(path, series, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write an SVG with one polyline per (label, x, y) triple in ``series``."""
    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_MARGIN_T + plot_h}" x2="{px(t):.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
            f'<text x="{px(t):.1f}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(t):.1f}" x2="{_MARGIN_L}" '
            f'y2="{py(t):.1f}" stroke="#333"/>'
            f'<text x="{_MARGIN_L - 9}" y="{py(t):.1f}" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt_tick(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2})">{ylabel}</text>'
        )
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        x = np.asarray(x, float)
        y = np.asarray(y, float)
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
