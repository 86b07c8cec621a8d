"""Small hand-rolled SVG figures for reports.

Two figure kinds: the projection-width profile (both halves' horizontal
widths against the projection angle on [0, pi)) and a planar scene with
polygons, circles and marked points (cross-sections, chain regions).
No plotting dependency; output is deterministic text.
"""

from __future__ import annotations

import numpy as np

from .projection import IcebergProfile

__all__ = ["profile_svg", "planar_svg"]

_FONT = "font-family='monospace' font-size='11'"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def profile_svg(profile: IcebergProfile) -> str:
    """Plot both horizontal-width curves against the projection angle, on
    a 640 by 360 canvas."""
    width, height = 640, 360
    th = np.asarray(profile.thetas)
    wu = np.asarray(profile.width_upper)
    wl = np.asarray(profile.width_lower)
    pad = 46
    x0, x1 = pad, width - 12
    y0, y1 = height - 34, 14
    lo = min(wu.min(), wl.min())
    hi = max(wu.max(), wl.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0

    def px(t):
        return x0 + (x1 - x0) * t / np.pi

    def py(v):
        return y0 + (y1 - y0) * (v - lo) / (hi - lo)

    def polyline(vals, color):
        pts = " ".join(f"{_fmt(px(t))},{_fmt(py(v))}"
                       for t, v in zip(th, vals))
        return (f"<polyline fill='none' stroke='{color}' "
                f"stroke-width='1.5' points='{pts}'/>")

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{x0}' y1='{y0}' x2='{x1}' y2='{y0}' stroke='black'/>",
        f"<line x1='{x0}' y1='{y0}' x2='{x0}' y2='{y1}' stroke='black'/>",
    ]
    for frac, label in ((0.0, "0"), (0.5, "pi/2"), (1.0, "pi")):
        x = x0 + (x1 - x0) * frac
        parts.append(f"<line x1='{_fmt(x)}' y1='{y0}' x2='{_fmt(x)}' "
                     f"y2='{y0 + 4}' stroke='black'/>")
        parts.append(f"<text x='{_fmt(x - 8)}' y='{y0 + 18}' {_FONT}>"
                     f"{label}</text>")
    for v in (lo, hi):
        parts.append(f"<text x='2' y='{_fmt(py(v) + 4)}' {_FONT}>"
                     f"{_fmt(v)}</text>")
    parts.append(polyline(wu, "#c02020"))
    parts.append(polyline(wl, "#2040c0"))
    parts.append(f"<text x='{x0 + 8}' y='{y1 + 14}' fill='#c02020' {_FONT}>"
                 f"upper half</text>")
    parts.append(f"<text x='{x0 + 8}' y='{y1 + 28}' fill='#2040c0' {_FONT}>"
                 f"lower half</text>")
    parts.append(f"<text x='{x0 + 8}' y='{y1 + 42}' {_FONT}>"
                 f"margin {profile.margin:.6g} ({profile.orientation})"
                 f"</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def planar_svg(polygons=(), circles=(), points=()) -> str:
    """Planar scene: polygons (point arrays), circles ((center, radius)),
    and marked points, auto-scaled to a common 480 by 480 frame with an 8 %
    margin."""
    size = 480
    xs, ys = [], []
    for poly in polygons:
        arr = np.asarray(poly, float)
        xs.extend(arr[:, 0])
        ys.extend(arr[:, 1])
    for (c, r) in circles:
        xs.extend([c[0] - r, c[0] + r])
        ys.extend([c[1] - r, c[1] + r])
    for p in points:
        xs.append(p[0])
        ys.append(p[1])
    if not xs:
        xs = ys = [-1.0, 1.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = span * 0.08
    span += 2 * pad
    scale = size / span

    def px(x):
        return (x - lo_x + pad) * scale

    def py(y):
        return size - (y - lo_y + pad) * scale

    palette = ["#2040c0", "#20a060", "#c08020", "#a020a0"]
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' "
        f"height='{size}' viewBox='0 0 {size} {size}'>",
        f"<rect width='{size}' height='{size}' fill='white'/>",
    ]
    for i, poly in enumerate(polygons):
        arr = np.asarray(poly, float)
        pts = " ".join(f"{_fmt(px(p[0]))},{_fmt(py(p[1]))}" for p in arr)
        color = palette[i % len(palette)]
        parts.append(f"<polygon fill='none' stroke='{color}' "
                     f"stroke-width='1.5' points='{pts}'/>")
    for (c, r) in circles:
        parts.append(f"<circle cx='{_fmt(px(c[0]))}' cy='{_fmt(py(c[1]))}' "
                     f"r='{_fmt(r * scale)}' fill='none' stroke='#c02020' "
                     f"stroke-width='1.5'/>")
    for p in points:
        parts.append(f"<circle cx='{_fmt(px(p[0]))}' cy='{_fmt(py(p[1]))}' "
                     f"r='3' fill='#101010'/>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
