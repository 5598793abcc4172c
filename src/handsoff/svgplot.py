"""Hand-rolled SVG line plots.

The CLI emits static comparison figures (solid vs dashed curves over a
time axis); a couple of polylines inside a viewBox covers that entirely,
so there is no plotting dependency. Each panel gets its own axes box,
ticks, and a text legend.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_COLORS = ["#1f4e9c", "#c03a2b", "#2e7d32", "#7b1fa2", "#e08714"]

_PANEL_W, _PANEL_H = 880, 300
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 34, 44


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return np.linspace(lo, lo + 1.0 if hi <= lo else hi, n).tolist()


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2e}"
    return f"{v:.3g}"


class Panel:
    """One axes box with labeled curves."""

    def __init__(self, title: str, xlabel: str = "t", ylabel: str = ""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.curves: list[tuple[np.ndarray, np.ndarray, str, str]] = []

    def add(self, x, y, label: str = "", dashed: bool = False) -> "Panel":
        self.curves.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float), label, "6,5" if dashed else ""))
        return self


def step_points(breakpoints, values) -> tuple[np.ndarray, np.ndarray]:
    """Expand a piecewise-constant signal (n + 1 breakpoints, n values) into
    corner points for plotting: each segment's start and end at its value."""
    xs = np.repeat(np.asarray(breakpoints, dtype=float), 2)[1:-1]
    return xs, np.repeat(np.asarray(values, dtype=float), 2)


def render(panels: list[Panel], path: str | Path) -> None:
    """Write the panels stacked vertically into one SVG file; points with a
    non-finite coordinate are dropped (a curve left with none draws no line),
    and a zero x span, like a near-zero y span, is widened by 1 each side."""
    width = _PANEL_W
    height = _PANEL_H * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, panel in enumerate(panels):
        top = idx * _PANEL_H
        x0, x1 = _MARGIN_L, _PANEL_W - _MARGIN_R
        y0, y1 = top + _MARGIN_T, top + _PANEL_H - _MARGIN_B

        finite = [np.isfinite(x) & np.isfinite(y) for x, y, _, _ in panel.curves]
        curves = [(x[ok], y[ok], label, dash) for (x, y, label, dash), ok in zip(panel.curves, finite)]
        xs = np.concatenate([c[0] for c in curves] + [[]])
        ys = np.concatenate([c[1] for c in curves] + [[]])
        if not xs.size:
            xs = ys = np.array([0.0, 1.0])
        x_lo, x_hi = float(xs.min()), float(xs.max())
        if x_lo == x_hi:
            x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if np.isclose(y_lo, y_hi):
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(v):
            return x0 + (v - x_lo) / (x_hi - x_lo) * (x1 - x0)

        def sy(v):
            return y1 - (v - y_lo) / (y_hi - y_lo) * (y1 - y0)

        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{y0 - 12:.1f}" text-anchor="middle" '
            f'font-size="14">{panel.title}</text>'
        )
        for tv in _ticks(x_lo, x_hi):
            px = sx(tv)
            parts.append(f'<line x1="{px:.1f}" y1="{y1}" x2="{px:.1f}" y2="{y1 + 5}" stroke="#444"/>')
            parts.append(
                f'<text x="{px:.1f}" y="{y1 + 18}" text-anchor="middle">{_fmt(tv)}</text>'
            )
        for tv in _ticks(y_lo, y_hi, 4):
            py = sy(tv)
            parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#444"/>')
            parts.append(
                f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(tv)}</text>'
            )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{y1 + 34}" text-anchor="middle">{panel.xlabel}</text>'
        )
        if panel.ylabel:
            parts.append(
                f'<text x="{x0 - 52}" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                f'transform="rotate(-90 {x0 - 52} {(y0 + y1) / 2:.1f})">{panel.ylabel}</text>'
            )

        legend_y = y0 + 14
        for ci, (cx, cy, label, dash) in enumerate(curves):
            color = _COLORS[ci % len(_COLORS)]
            pts = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(cx, cy))
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            if pts:
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             f'stroke-width="1.6"{dash_attr}/>')
            if label:
                lx = x1 - 150
                parts.append(
                    f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 26}" y2="{legend_y - 4}" '
                    f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
                )
                parts.append(f'<text x="{lx + 32}" y="{legend_y}">{label}</text>')
                legend_y += 16
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
