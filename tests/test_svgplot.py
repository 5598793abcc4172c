"""SVG figures: the polyline text of a rendered panel, point by point, and
degenerate panels."""

import re

import numpy as np

from handsoff import svgplot
from handsoff.svgplot import Panel, render, step_points


def test_polyline_points_match_per_point_text(tmp_path):
    bx, by = step_points([0.0, 0.5, 1.25, 2.0], [1.0, -1.0, 0.0])
    assert bx.tolist() == [0.0, 0.5, 0.5, 1.25, 1.25, 2.0]
    assert by.tolist() == [1.0, 1.0, -1.0, -1.0, 0.0, 0.0]
    # Points with a NaN or an infinite coordinate are skipped.
    cx = np.array([0.1, 1 / 3, 0.7, 1.1, np.nan, 1.9])
    cy = np.array([0.2, np.nan, 2 / 3, np.inf, 0.3, -0.45])
    keep = np.isfinite(cx) & np.isfinite(cy)
    path = tmp_path / "panel.svg"
    render([Panel("p").add(bx, by, label="step").add(cx, cy, dashed=True)], path)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))

    # The panel's scaling: the finite points span the x axis, and their y
    # range padded by 6% spans the y axis.
    x0, x1 = svgplot._MARGIN_L, svgplot._PANEL_W - svgplot._MARGIN_R
    y0, y1 = svgplot._MARGIN_T, svgplot._PANEL_H - svgplot._MARGIN_B
    xs, ys = np.concatenate([bx, cx[keep]]), np.concatenate([by, cy[keep]])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    pad = 0.06 * float(ys.max() - ys.min())
    y_lo, y_hi = float(ys.min()) - pad, float(ys.max()) + pad

    def sx(v):
        return x0 + (v - x_lo) / (x_hi - x_lo) * (x1 - x0)

    def sy(v):
        return y1 - (v - y_lo) / (y_hi - y_lo) * (y1 - y0)

    want = [
        " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(px, py))
        for px, py in ((bx, by), (cx[keep], cy[keep]))
    ]
    assert got == want
    assert len(want[1].split()) == 3


def polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))


def test_panel_without_x_extent(tmp_path):
    # Points that share one x used to divide by zero in the x scaling. The
    # span is widened by 1 each side, as a flat y range is, so the point
    # sits in the middle of the axes box.
    path = tmp_path / "point.svg"
    render([Panel("p").add([2.0], [1.0])], path)
    x_mid = (svgplot._MARGIN_L + svgplot._PANEL_W - svgplot._MARGIN_R) / 2
    y_mid = (svgplot._MARGIN_T + svgplot._PANEL_H - svgplot._MARGIN_B) / 2
    assert polylines(path) == [f"{x_mid:.2f},{y_mid:.2f}"]
    text = path.read_text(encoding="utf-8")
    assert ">1</text>" in text and ">3</text>" in text  # the x ticks run from 1 to 3


def test_curve_without_finite_points(tmp_path):
    # A curve that the finite filter leaves empty, or that has no point at
    # all, used to reach numpy's zero-size min() when no other curve of the
    # panel had a point. It now draws no polyline, and the other curves of
    # its panel are drawn as without it.
    both, alone = tmp_path / "both.svg", tmp_path / "alone.svg"
    render([Panel("p").add([0.0, 1.0], [0.0, 2.0]).add([0.5], [np.inf]).add([], []),
            Panel("q").add([np.nan, 1.0], [1.0, np.nan]).add([], [])], both)
    render([Panel("p").add([0.0, 1.0], [0.0, 2.0])], alone)
    assert polylines(both) == polylines(alone) and len(polylines(alone)) == 1
