"""Deterministic dependency-free SVG scatter plots of 2-D embeddings.

Fixed 800x600 canvas, categorical color palette and marker shapes, legend on
the right, no axes (embedding coordinates are unitless).  Identical inputs
produce byte-identical output.
"""
from __future__ import annotations

from html import escape

import numpy as np

from .design import encode_labels
from .errors import ValidationError, _warn_caller
from .linalg import ensure_matrix
from .matrixio import replacing

CANVAS_W = 800
CANVAS_H = 600
_PLOT_W = 620  # leaves room for the legend column
_MARGIN = 30
_R = 4.0

PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)
SHAPES = ("circle", "square", "triangle", "diamond", "cross")
# the polygon markers' corners, in units of _R from the centre
_CORNERS = {
    "triangle": ((0.0, -1.2), (-1.1, 1.0), (1.1, 1.0)),
    "diamond": ((0.0, -1.3), (1.3, 0.0), (0.0, 1.3), (-1.3, 0.0)),
}


def _fmt(v):
    return f"{v:.2f}"


def _marker(shape, x, y, color):
    if shape == "circle":
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_R)}" fill="{color}"/>'
    if shape == "square":
        s = _R * 1.8
        return (
            f'<rect x="{_fmt(x - s / 2)}" y="{_fmt(y - s / 2)}" '
            f'width="{_fmt(s)}" height="{_fmt(s)}" fill="{color}"/>'
        )
    if shape in _CORNERS:
        p = " ".join(f"{_fmt(x + _R * a)},{_fmt(y + _R * b)}" for a, b in _CORNERS[shape])
        return f'<polygon points="{p}" fill="{color}"/>'
    r = _R * 1.2  # the cross, SHAPES' last
    return (
        f'<path d="M {_fmt(x - r)} {_fmt(y)} H {_fmt(x + r)} '
        f'M {_fmt(x)} {_fmt(y - r)} V {_fmt(y + r)}" '
        f'stroke="{color}" stroke-width="2" fill="none"/>'
    )


def _option_codes(labels, n, options, kind):
    """Each point's index into options, cycling, and the legend's levels;
    without labels every point takes the first option and the legend none."""
    if labels is None:
        return np.zeros(n, dtype=np.intp), []
    levels, codes = encode_labels(labels, n)
    if len(levels) > len(options):
        _warn_caller(
            f"{len(levels)} levels exceed the {len(options)} available "
            f"{kind}s; cycling",
            UserWarning,
        )
    return codes % len(options), levels


def render_scatter(Y, color_labels=None, shape_labels=None, title=None):
    """Return the SVG document for a scatter of the first two embedding axes."""
    Y = ensure_matrix(Y, "Y")
    if Y.shape[0] < 1 or Y.shape[1] < 2:
        raise ValidationError(f"Y needs at least 1 row and 2 columns; got {Y.shape}")
    n = Y.shape[0]
    xy = Y[:, :2]
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    span[span == 0] = 1.0
    scaled = (xy - lo) / span
    px = _MARGIN + scaled[:, 0] * (_PLOT_W - 2 * _MARGIN)
    py = CANVAS_H - _MARGIN - scaled[:, 1] * (CANVAS_H - 2 * _MARGIN)

    color_codes, color_levels = _option_codes(color_labels, n, PALETTE, "color")
    shape_codes, shape_levels = _option_codes(shape_labels, n, SHAPES, "shape")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_PLOT_W // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    for x, y, shape, color in zip(px, py, shape_codes, color_codes):
        parts.append(_marker(SHAPES[shape], x, y, PALETTE[color]))

    # the legend: colour levels as circles, then shape levels in grey
    lx, ly = _PLOT_W + 10, 40
    for levels, shapes, fills in ((color_levels, ("circle",), PALETTE),
                                  (shape_levels, SHAPES, ("#333333",))):
        for j, lev in enumerate(levels):
            parts.append(_marker(shapes[j % len(shapes)], lx + 6, ly - 4, fills[j % len(fills)]))
            parts.append(
                f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
                f'font-size="12">{escape(str(lev), quote=False)}</text>'
            )
            ly += 20
        ly += 10
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_scatter_svg(path, Y, color_labels=None, shape_labels=None, title=None):
    svg = render_scatter(Y, color_labels, shape_labels, title)
    with replacing(path) as fh:
        fh.write(svg)
