"""Minimal self-contained SVG line plots (no plotting dependency).

Output is deterministic: coordinates are formatted with fixed precision.
"""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_COLOR = "#1f77b4"


def _flat(lo: float, hi: float) -> bool:
    """True when [lo, hi] spans no more than the rounding of its ends (or, next
    to 0, less than 1e-312), so that no tick step can be told from the ends."""
    return hi - lo <= 1e-12 * max(abs(lo), abs(hi), 1e-300)


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    """Tick values of an axis spanning [lo, hi] in plot coordinates: the
    powers of ten inside it on a log axis (lo and hi are then log10 values),
    else the multiples k * step inside it, step 1, 2 or 5 times a power of
    ten; [lo] alone for a span at rounding level."""
    if log:
        return [10.0 ** e for e in range(math.ceil(lo), math.floor(hi) + 1)]
    if _flat(lo, hi):
        return [lo]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    # a tick that rounds past an end stays; line_plot drops those off the frame
    return [k * step for k in range(math.ceil(lo / step - 1e-9),
                                    math.floor(hi / step + 1e-9) + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(path, xs, ys, label, *, title, xlabel, ylabel, logx=False, logy=False):
    """Write an SVG plot of one labelled series of points (xs, ys), with
    positive values on any log axis."""
    xs_all = [float(x) for x in xs]
    ys_all = [float(y) for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    if logx and min(xs_all) <= 0 or logy and min(ys_all) <= 0:
        raise ValueError("log axis requires positive data")

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    x_lo, x_hi = min(map(tx, xs_all)), max(map(tx, xs_all))
    y_lo, y_hi = min(map(ty, ys_all)), max(map(ty, ys_all))
    if _flat(x_lo, x_hi):
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if _flat(y_lo, y_hi):
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + (tx(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return _MT + ph - (ty(v) - y_lo) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
             'stroke="black"/>']
    parts.append(f'<text x="{_W/2:.1f}" y="24" text-anchor="middle" '
                 f'font-size="16" font-family="sans-serif">{title}</text>')

    for t in _ticks(x_lo, x_hi, logx):
        xpix = px(t)
        if xpix < _ML - 0.5 or xpix > _ML + pw + 0.5:
            continue
        parts.append(f'<line x1="{xpix:.1f}" y1="{_MT+ph}" x2="{xpix:.1f}" '
                     f'y2="{_MT+ph+5}" stroke="black"/>')
        parts.append(f'<text x="{xpix:.1f}" y="{_MT+ph+20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        ypix = py(t)
        if ypix < _MT - 0.5 or ypix > _MT + ph + 0.5:
            continue
        parts.append(f'<line x1="{_ML-5}" y1="{ypix:.1f}" x2="{_ML}" '
                     f'y2="{ypix:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML-8}" y="{ypix+4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    parts.append(f'<text x="{_ML+pw/2:.1f}" y="{_H-12}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{_MT+ph/2:.1f}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {_MT+ph/2:.1f})">{ylabel}</text>')

    points = [(px(x), py(y)) for x, y in zip(xs_all, ys_all)]
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="{_COLOR}" '
                 'stroke-width="1.5"/>')
    for x, y in points:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_COLOR}"/>')
    ly = _MT + 16   # the legend line
    parts.append(f'<line x1="{_ML+pw-130}" y1="{ly-4}" x2="{_ML+pw-105}" '
                 f'y2="{ly-4}" stroke="{_COLOR}" stroke-width="2"/>')
    parts.append(f'<text x="{_ML+pw-100}" y="{ly}" font-size="12" '
                 f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
