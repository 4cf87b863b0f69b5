"""Deterministic exports: SVG paths, CSV vertices, OBJ polylines.

Output is byte-for-byte reproducible: fixed number formatting, no
timestamps, no dict-order dependence.  The SVG y axis is flipped so that
mathematically y-up curves render the usual way on screen.

An export works on coordinate columns, one float list per axis
(``Polyline.float_columns``), with one code path for every grid and
projection: project the columns, map them to the screen, then format
each distinct float once (``_Names``) and join the path in one pass.
A curve reuses few coordinate values, so formatting costs about one
dict lookup per coordinate.
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


def _project(columns: list[list[float]], projection: str) -> tuple[list[float], list[float]]:
    """The plane coordinates of every vertex, one list per screen axis."""
    dim = len(columns)
    if (dim, projection) in ((2, "2d"), (2, "ortho"), (3, "ortho")):
        return columns[0], columns[1]
    if (dim, projection) == (3, "iso"):
        xs, ys, zs = columns
        return ([(x - y) * _COS30 for x, y in zip(xs, ys)],
                [z + (x + y) * _SIN30 for x, y, z in zip(xs, ys, zs)])
    raise RenderError(f"cannot render dimension {dim} with projection {projection!r}")


def _fmt(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


class _Names(dict):
    """The text of each distinct float, formatted on its first lookup.
    0.0 and -0.0 share a key; both print as 0."""

    def __missing__(self, x: float) -> str:
        text = self[x] = _fmt(x)
        return text


def svg_export(p: Polyline, opts: RenderOptions = RenderOptions()) -> bytes:
    """A single-path SVG document.

    Rounded corners replace each interior vertex by a quadratic cut at a
    quarter of the shorter adjacent segment.
    """
    xs, ys = _project(p.float_columns(), opts.projection)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = (maxx - minx) * SCALE + 2 * MARGIN
    h = (maxy - miny) * SCALE + 2 * MARGIN
    xs = [(x - minx) * SCALE + MARGIN for x in xs]
    ys = [h - ((y - miny) * SCALE + MARGIN) for y in ys]  # y up
    d = _path_data(xs, ys, opts.rounded_corners)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<path d="{d}" fill="none" stroke="black" stroke-width="{_fmt(STROKE_WIDTH)}"/>',
        "</svg>",
        "",
    ]
    return "\n".join(lines).encode("ascii")


def _path_data(xs: list[float], ys: list[float], rounded: bool) -> str:
    """``M`` to the first point, then ``L p`` for each later point, or
    ``L pin Q p pout`` at a rounded corner between two nonzero edges."""
    name = _Names().__getitem__
    # three tokens per vertex, "L", x and y ("M" first), joined once
    tokens = ["L"] * (3 * len(xs))
    tokens[0] = "M"
    tokens[1::3] = map(name, xs)
    tokens[2::3] = map(name, ys)
    if rounded:
        # edge i runs from vertex i to vertex i + 1
        lengths = [((x0 - x1) ** 2 + (y0 - y1) ** 2) ** 0.5
                   for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
        for i in range(1, len(xs) - 1):
            lin, lout = lengths[i - 1], lengths[i]
            if lin and lout:
                cut = 0.25 * min(lin, lout)
                x, y = xs[i], ys[i]
                tin, tout = cut / lin, cut / lout
                pin = f"{name(x + (xs[i - 1] - x) * tin)} {name(y + (ys[i - 1] - y) * tin)}"
                pout = f"{name(x + (xs[i + 1] - x) * tout)} {name(y + (ys[i + 1] - y) * tout)}"
                j = 3 * i
                tokens[j + 1] = f"{pin} Q {tokens[j + 1]}"
                tokens[j + 2] += " " + pout
    return " ".join(tokens)


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
        name = _Names().__getitem__
        lines = ["v " + " ".join(v) for v in zip(*(map(name, c) for c in p.float_columns()))]
        lines.append("l " + " ".join(str(i + 1) for i in range(len(lines))))
        lines.append("")
        return "\n".join(lines).encode("ascii")
    raise RenderError(f"unknown format {format!r}")
