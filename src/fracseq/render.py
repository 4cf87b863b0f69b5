"""Deterministic exports: SVG paths, CSV vertices, OBJ polylines.

Output is byte-for-byte reproducible: fixed number formatting, no
timestamps, no dict-order dependence.  The SVG y axis is flipped so that
mathematically y-up curves render the usual way on screen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Polyline


class RenderError(ValueError):
    pass


PROJECTIONS = ("2d", "iso", "ortho")

_COS30 = 0.8660254037844387
_SIN30 = 0.5

SCALE = 20.0  # screen units per grid unit
MARGIN = 10.0
STROKE_WIDTH = 1.0


@dataclass(frozen=True)
class RenderOptions:
    """What an SVG may vary: rounded corners and the projection.  Scale,
    margin and stroke width are the module constants above."""

    rounded_corners: bool = False
    projection: str = "2d"

    def __post_init__(self) -> None:
        if self.projection not in PROJECTIONS:
            raise RenderError(f"projection must be one of {PROJECTIONS}")


def _project(vertices: list[tuple[float, ...]], projection: str) -> list[tuple[float, float]]:
    dim = len(vertices[0])
    if (dim, projection) in ((2, "2d"), (2, "ortho"), (3, "ortho")):
        return [(v[0], v[1]) for v in vertices]
    if (dim, projection) == (3, "iso"):
        return [((v[0] - v[1]) * _COS30, v[2] + (v[0] + v[1]) * _SIN30) for v in vertices]
    raise RenderError(f"cannot render dimension {dim} with projection {projection!r}")


def _fmt(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def svg_export(p: Polyline, opts: RenderOptions = RenderOptions()) -> bytes:
    """A single-path SVG document.

    Rounded corners replace each interior vertex by a quadratic cut at a
    quarter of the shorter adjacent segment.
    """
    pts = _project(p.float_vertices(), opts.projection)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = (maxx - minx) * SCALE + 2 * MARGIN
    h = (maxy - miny) * SCALE + 2 * MARGIN

    def to_screen(pt):
        x, y = pt
        return (
            (x - minx) * SCALE + MARGIN,
            h - ((y - miny) * SCALE + MARGIN),  # y up
        )

    screen = [to_screen(pt) for pt in pts]
    d = _path_data(screen, opts.rounded_corners)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<path d="{d}" fill="none" stroke="black" stroke-width="{_fmt(STROKE_WIDTH)}"/>',
        "</svg>",
        "",
    ]
    return "\n".join(lines).encode("ascii")


def _path_data(pts: list[tuple[float, float]], rounded: bool) -> str:
    """``M`` to the first point, then ``L p`` for each later point, or
    ``L pin Q p pout`` at a rounded corner between two nonzero edges."""
    parts = [f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])}"]
    for i in range(1, len(pts)):
        cur = pts[i]
        if rounded and i + 1 < len(pts):
            prev, nxt = pts[i - 1], pts[i + 1]
            lin, lout = _dist(prev, cur), _dist(cur, nxt)
            if lin and lout:
                cut = 0.25 * min(lin, lout)
                pin = _lerp(cur, prev, cut / lin)
                pout = _lerp(cur, nxt, cut / lout)
                parts.append(f"L {_fmt(pin[0])} {_fmt(pin[1])} "
                             f"Q {_fmt(cur[0])} {_fmt(cur[1])} {_fmt(pout[0])} {_fmt(pout[1])}")
                continue
        parts.append(f"L {_fmt(cur[0])} {_fmt(cur[1])}")
    return " ".join(parts)


def _dist(a, b) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5


def _lerp(a, b, t):
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def export_vertices(p: Polyline, format: str = "csv") -> bytes:
    """CSV of coordinates (header x1..xd), or an OBJ polyline for 3D."""
    if format == "csv":
        dim = p.dim
        lines = [",".join(f"x{i + 1}" for i in range(dim))]
        # integers print as integers, other coordinates as their float repr
        for v in p.numeric_vertices():
            lines.append(",".join(map(repr, v)))
        lines.append("")
        return "\n".join(lines).encode("ascii")
    if format == "obj":
        if p.dim != 3:
            raise RenderError("OBJ export is for 3D polylines")
        lines = ["v " + " ".join(_fmt(c) for c in v) for v in p.float_vertices()]
        lines.append("l " + " ".join(str(i + 1) for i in range(len(lines))))
        lines.append("")
        return "\n".join(lines).encode("ascii")
    raise RenderError(f"unknown format {format!r}")
