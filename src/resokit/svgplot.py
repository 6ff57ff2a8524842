"""Deterministic SVG line plots.

Hand-rolled rather than delegated to a plotting library so the output
is byte-stable across platforms and library versions: fixed canvas,
fixed float formatting, no timestamps. Golden tests can diff the files.
"""

import math
from dataclasses import dataclass

__all__ = ["Series", "line_plot_svg"]

WIDTH = 640
HEIGHT = 440
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 56
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    """One curve: x/y data, legend label, markers or line."""

    x: list
    y: list
    label: str = ""
    markers: bool = False


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    # One tick for a range under 1e-12 of its size: t += step must move t.
    if not 1e-12 * max(abs(lo), abs(hi)) < hi - lo < math.inf:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def line_plot_svg(series: list[Series], title: str, xlabel: str,
                  ylabel: str, logx: bool = False) -> str:
    """Render series into a standalone SVG document string."""
    # Titles and labels are written as XML character data.
    esc = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
    title, xlabel, ylabel = (v.translate(esc) for v in (title, xlabel, ylabel))
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    if logx:
        xs = [math.log10(v) for v in xs if v > 0] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        v = math.log10(x) if logx else x
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        x_pix = MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w
        label = f"1e{t:.0f}" if logx else f"{t:.6g}"
        out.append(f'<line x1="{_fmt(x_pix)}" y1="{MARGIN_T + plot_h}" '
                   f'x2="{_fmt(x_pix)}" y2="{MARGIN_T + plot_h + 5}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_fmt(x_pix)}" y="{MARGIN_T + plot_h + 20}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="11">{label}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y_pix = py(t)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y_pix)}" '
                   f'x2="{MARGIN_L}" y2="{_fmt(y_pix)}" stroke="black"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y_pix + 4)}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="11">{t:.6g}</text>')

    out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 16}" '
               f'text-anchor="middle" font-family="monospace" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" '
               f'font-family="monospace" font-size="12" '
               f'transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>')

    for i, s in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = [(px(float(x)), py(float(y))) for x, y in zip(s.x, s.y)
               if (not logx or float(x) > 0)]
        if not pts:
            continue
        if s.markers:
            for x_pix, y_pix in pts:
                out.append(f'<circle cx="{_fmt(x_pix)}" cy="{_fmt(y_pix)}" '
                           f'r="2.5" fill="{color}"/>')
        else:
            path = " ".join(f"{_fmt(x_pix)},{_fmt(y_pix)}" for x_pix, y_pix in pts)
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        if s.label:
            y_leg = MARGIN_T + 16 + 16 * i
            out.append(f'<rect x="{MARGIN_L + plot_w - 150}" y="{y_leg - 9}" '
                       f'width="10" height="10" fill="{color}"/>')
            out.append(f'<text x="{MARGIN_L + plot_w - 135}" y="{y_leg}" '
                       f'font-family="monospace" font-size="11">'
                       f'{s.label.translate(esc)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
