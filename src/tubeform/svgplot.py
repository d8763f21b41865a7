"""Self-contained SVG plot emission (polylines, circles, axis ticks).

Plots are generated directly as SVG markup so reports need no external
renderer. Every emitted document is well-formed XML.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from html import escape
from pathlib import Path

import numpy as np

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]
WIDTH, HEIGHT, MARGIN = 720, 480, 60  # every figure's size and plot-area margin, in px
TICK_TARGET = 6  # the number of axis ticks a tick step is chosen for


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


@dataclass
class SvgFigure:
    """One x/y chart with data in plot coordinates."""

    title: str
    xlabel: str
    ylabel: str
    equal_aspect: bool = False
    _legend: list[tuple[str, str]] = field(default_factory=list)
    _xlim: list[float] = field(default_factory=lambda: [math.inf, -math.inf])
    _ylim: list[float] = field(default_factory=lambda: [math.inf, -math.inf])
    _series: list = field(default_factory=list)

    def add_line(self, x, y, label: str | None = None, color: str | None = None,
                 dashed: bool = False):
        color = color or PALETTE[len(self._legend) % len(PALETTE)]
        # the caller's arrays, not boxed copies: a report holds all its figures before writing
        self._series.append(("line", x, y, color, dashed))
        self._bump(x, y)
        if label:
            self._legend.append((label, color))

    def add_circle(self, cx: float, cy: float, radius: float, color: str = "#444444",
                   fill: str = "none", dashed: bool = False):
        self._series.append(("circle", cx, cy, radius, color, fill, dashed))
        self._bump([cx - radius, cx + radius], [cy - radius, cy + radius])

    def add_hline(self, y: float, color: str = "#000000", label: str | None = None):
        self._series.append(("hline", y, color))
        self._bump([], [y])
        if label:
            self._legend.append((label, color))

    def _bump(self, x, y):
        for lim, values in ((self._xlim, x), (self._ylim, y)):
            values = np.asarray(values, dtype=float)
            finite = values[np.isfinite(values)]
            if finite.size:
                lim[0] = min(lim[0], np.min(finite))
                lim[1] = max(lim[1], np.max(finite))

    def _scales(self):
        x0, x1 = self._xlim if self._xlim[0] < self._xlim[1] else (0.0, 1.0)
        y0, y1 = self._ylim if self._ylim[0] < self._ylim[1] else (0.0, 1.0)
        padx = 0.05 * (x1 - x0) or 0.5
        pady = 0.05 * (y1 - y0) or 0.5
        x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
        if self.equal_aspect:
            spanx, spany = x1 - x0, y1 - y0
            per_px_x = spanx / (WIDTH - 2 * MARGIN)
            per_px_y = spany / (HEIGHT - 2 * MARGIN)
            per = max(per_px_x, per_px_y)
            cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0 = cx - per * (WIDTH - 2 * MARGIN) / 2
            x1 = cx + per * (WIDTH - 2 * MARGIN) / 2
            y0 = cy - per * (HEIGHT - 2 * MARGIN) / 2
            y1 = cy + per * (HEIGHT - 2 * MARGIN) / 2
        sx = (WIDTH - 2 * MARGIN) / (x1 - x0)
        sy = (HEIGHT - 2 * MARGIN) / (y1 - y0)
        return x0, x1, y0, y1, sx, sy

    def render(self) -> str:
        x0, x1, y0, y1, sx, sy = self._scales()

        def px(x):
            return MARGIN + (x - x0) * sx

        def py(y):
            return HEIGHT - MARGIN - (y - y0) * sy

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(self.title, quote=False)}</text>',
        ]
        for tx in _ticks(x0, x1):
            parts.append(
                f'<line x1="{px(tx):.2f}" y1="{py(y0):.2f}" x2="{px(tx):.2f}" '
                f'y2="{py(y1):.2f}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px(tx):.2f}" y="{HEIGHT - MARGIN + 18:.2f}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">{tx:g}</text>'
            )
        for ty in _ticks(y0, y1):
            parts.append(
                f'<line x1="{px(x0):.2f}" y1="{py(ty):.2f}" x2="{px(x1):.2f}" '
                f'y2="{py(ty):.2f}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{MARGIN - 8:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{ty:g}</text>'
            )
        parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" '
            f'width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}" '
            f'fill="none" stroke="#333333"/>'
        )
        for item in self._series:
            if item[0] == "line":
                _, xs, ys, color, dashed = item
                xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
                keep = np.isfinite(xs) & np.isfinite(ys)
                coords = np.column_stack([px(xs[keep]), py(ys[keep])])
                pts = " ".join(["%.2f,%.2f"] * len(coords)) % tuple(coords.ravel().tolist())
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>'
                )
            elif item[0] == "circle":
                _, cx, cy, radius, color, fill, dashed = item
                dash = ' stroke-dasharray="5,4"' if dashed else ""
                parts.append(
                    f'<circle cx="{px(cx):.2f}" cy="{py(cy):.2f}" r="{radius * sx:.2f}" '
                    f'fill="{fill}" fill-opacity="0.25" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>'
                )
            elif item[0] == "hline":
                _, yv, color = item
                parts.append(
                    f'<line x1="{px(x0):.2f}" y1="{py(yv):.2f}" x2="{px(x1):.2f}" '
                    f'y2="{py(yv):.2f}" stroke="{color}" stroke-width="1.5" '
                    f'stroke-dasharray="2,3"/>'
                )
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(self.xlabel, quote=False)}</text>'
        )
        parts.append(
            f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{escape(self.ylabel, quote=False)}</text>'
        )
        ly = MARGIN + 14
        for label, color in self._legend:
            parts.append(
                f'<line x1="{WIDTH - MARGIN - 150}" y1="{ly - 4}" '
                f'x2="{WIDTH - MARGIN - 126}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{WIDTH - MARGIN - 120}" y="{ly}" '
                f'font-family="sans-serif" font-size="11">{escape(label, quote=False)}</text>'
            )
            ly += 16
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render() + "\n", encoding="utf-8")
