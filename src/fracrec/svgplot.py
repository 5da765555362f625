"""Minimal dependency-free SVG line plots (axes, one polyline, labels)."""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot_svg"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float) -> np.ndarray:
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw), default=10.0) * mag
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + 0.5 * step, step)


def line_plot_svg(
    x: np.ndarray,
    y: np.ndarray,
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    """Render one (x, y) series as a complete SVG document string."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("x and y must be nonempty and of equal length")
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    padx = 0.03 * (x1 - x0)
    pady = 0.05 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return _MT + (y1 - v) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tx in _ticks(x0, x1):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" y2="{_MT + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MT + ph + 18}" font-size="11" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y0, y1):
        py = sy(ty)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end">{ty:g}</text>'
        )
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_ML + pw / 2:.0f}" y="20" font-size="14" text-anchor="middle">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
