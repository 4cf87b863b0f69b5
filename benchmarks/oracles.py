"""Oracles that recompute what an op's output must be without the code under test.

Every function raises ``Mismatch`` when the output is wrong.  The
published reference data (catalog prefixes) and the digit sequences that
render and verify ops consume are passed in by the caller; everything else
(the Gray closed form, A062756, normalization, b-file parsing, SVG
parsing, float walks on the benchmark's own direction tables, the exact
1/2*Z[sqrt2] walk and the brute-force overlap count) is recomputed here.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from array import array


class Mismatch(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---- sequences -------------------------------------------------------------


def check_normalized(terms) -> None:
    """Each magnitude debuts positive, and debuts come in ascending order."""
    seen: set[int] = set()
    top = 0
    for i, k in enumerate(terms):
        m = abs(k)
        if m in seen:
            continue
        expect(k > 0 and m > top, f"normalization: term {i + 1} ({k}) debuts out of order")
        seen.add(m)
        top = m


def gray_term(n: int) -> int:
    """Term n >= 1 of the Gray sequence: +-(v2(n)+1), sign (-1)^floor(n/2^(v2(n)+1))."""
    v = (n & -n).bit_length() - 1
    sign = -1 if (n >> (v + 1)) & 1 else 1
    return sign * (v + 1)


def ternary_ones(n: int) -> int:
    c = 0
    while n:
        n, r = divmod(n, 3)
        c += r == 1
    return c


def parse_csv_line(line: str) -> list[int]:
    try:
        return [int(t) for t in line.split(",")] if line else []
    except ValueError:
        raise Mismatch(f"not a CSV integer line: {line[:40]!r}") from None


def parse_bfile(data: bytes) -> list[int]:
    values = []
    for i, raw in enumerate(data.decode("ascii").splitlines(), start=1):
        parts = raw.split()
        expect(len(parts) == 2, f"b-file row {i} is not 'n value'")
        expect(parts[0] == str(i), f"b-file row {i} has index {parts[0]}")
        values.append(int(parts[1]))
    return values


def check_gen(stream_id: str, n: int, stdout: str, bfile: bytes, prefix, length_line: bool) -> None:
    """``gen ID --terms n --bfile F``: stdout, b-file and the closed forms agree."""
    lines = stdout.splitlines()
    expect(len(lines) >= 1, "gen printed nothing")
    terms = parse_csv_line(lines[0])
    expect(len(terms) == n, f"gen printed {len(terms)} terms, asked for {n}")
    expect(parse_bfile(bfile) == terms, "b-file rows differ from stdout")
    head = min(n, len(prefix))
    expect(terms[:head] == list(prefix[:head]), "first terms differ from the published prefix")
    if stream_id == "v1-dragon-lengths":
        expect(all(v == ternary_ones(i // 2) for i, v in enumerate(terms)), "lengths differ from A062756")
        return
    check_normalized(terms)
    if stream_id == "gray":
        expect(all(v == gray_term(i) for i, v in enumerate(terms, start=1)), "Gray terms differ from the closed form")
    if length_line:
        expect(len(lines) == 2 and lines[1].startswith("lengths-log-sqrt2: "), "length stream line missing")
        exps = parse_csv_line(lines[1][len("lengths-log-sqrt2: "):])
        expect(len(exps) == n, "length stream has the wrong length")
        expect(all(v == ternary_ones(i // 2) for i, v in enumerate(exps)), "length stream differs from A062756")
    else:
        expect(len(lines) == 1, "unexpected extra stdout line")


# ---- float walks and SVG ---------------------------------------------------

_H = math.sqrt(0.5)

DIRECTIONS = {
    "square": {1: (1.0, 0.0), 2: (0.0, 1.0)},
    "cubic3": {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)},
    # V1 dragon axes: x, y and the two left diagonals
    "dragon": {1: (1.0, 0.0), 2: (0.0, 1.0), 3: (-_H, _H), 4: (-_H, -_H)},
    # truncated square grid: the eighth roots of unity in the upper half
    "eighth": {1: (1.0, 0.0), 2: (_H, _H), 3: (0.0, 1.0), 4: (-_H, _H)},
}


def float_walk(digits, table: str, exps=None):
    """The walk's vertices from the origin, one tuple at a time."""
    dirs = DIRECTIONS[table]
    pos = tuple(0.0 for _ in dirs[1])
    yield pos
    for i, k in enumerate(digits):
        step = dirs[abs(k)]
        scale = (1.0 if k > 0 else -1.0) * (math.sqrt(2) ** exps[i] if exps is not None else 1.0)
        pos = tuple(p + scale * c for p, c in zip(pos, step))
        yield pos


def plane_points(points, projection: str) -> tuple[array, array]:
    """x and y of each vertex after projection, in compact arrays."""
    c30 = math.cos(math.pi / 6)
    xs, ys = array("d"), array("d")
    for p in points:
        if len(p) == 3 and projection == "iso":
            xs.append((p[0] - p[1]) * c30)
            ys.append(p[2] + (p[0] + p[1]) * 0.5)
        else:
            xs.append(p[0])
            ys.append(p[1])
    return xs, ys


_TOKEN = re.compile(r"\S+")
_NUM = re.compile(r"-?\d+(\.\d+)?")
_ARITY = {"M": 2, "L": 2, "Q": 4}


def svg_path(data: bytes) -> str:
    """The ``d`` attribute of the SVG document's single path."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise Mismatch(f"SVG does not parse: {exc}") from None
    expect(root.tag == "{http://www.w3.org/2000/svg}svg", "root element is not svg")
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    expect(len(paths) == 1, f"expected one path, found {len(paths)}")
    return paths[0].get("d", "")


def path_commands(d: str):
    """(command, numbers) pairs of a path, one at a time."""
    cmd, nums = None, []
    for m in _TOKEN.finditer(d):
        tok = m.group()
        if tok in _ARITY:
            if cmd is not None:
                expect(len(nums) == _ARITY[cmd], f"{cmd} command with {len(nums)} numbers")
                yield cmd, nums
            cmd, nums = tok, []
        else:
            expect(cmd is not None and _NUM.fullmatch(tok) is not None, f"bad path token {tok!r}")
            nums.append(float(tok))
    if cmd is not None:
        expect(len(nums) == _ARITY[cmd], f"{cmd} command with {len(nums)} numbers")
        yield cmd, nums


def expected_path(xs, ys, rounded: bool, scale: float = 20.0, margin: float = 10.0):
    """Screen-space commands for a walk: y flipped, box scaled plus margin,
    corners cut at a quarter of the shorter adjacent segment."""
    minx, miny = min(xs), min(ys)
    h = (max(ys) - miny) * scale + 2 * margin

    def screen(i):
        return ((xs[i] - minx) * scale + margin, h - ((ys[i] - miny) * scale + margin))

    n = len(xs)
    yield "M", list(screen(0))
    if not rounded:
        for i in range(1, n):
            yield "L", list(screen(i))
        return
    for i in range(1, n - 1):
        a, b, c = screen(i - 1), screen(i), screen(i + 1)
        lin, lout = math.dist(a, b), math.dist(b, c)
        cut = 0.25 * min(lin, lout)
        yield "L", [b[0] + (a[0] - b[0]) * cut / lin, b[1] + (a[1] - b[1]) * cut / lin]
        yield "Q", [b[0], b[1], b[0] + (c[0] - b[0]) * cut / lout, b[1] + (c[1] - b[1]) * cut / lout]
    yield "L", list(screen(n - 1))


def check_svg(data: bytes, edges: int, xs, ys, rounded: bool) -> None:
    """The SVG parses, holds one point per vertex and matches the walk
    whose projected coordinates are ``xs``, ``ys``."""
    d = svg_path(data)
    counts = {c: d.count(c) for c in _ARITY}
    total = sum(counts.values())
    if rounded:
        expect(counts["Q"] == edges - 1, "rounded path has the wrong corner count")
        expect(total == 2 * edges, f"rounded path has {total} commands for {edges} edges")
    else:
        expect(total == edges + 1, f"path has {total} points for {edges} edges")
    expect(len(xs) == edges + 1, "the walk has the wrong length")
    for i, ((c1, v1), (c2, v2)) in enumerate(zip(path_commands(d), expected_path(xs, ys, rounded))):
        expect(c1 == c2 and all(abs(a - b) <= 2e-3 for a, b in zip(v1, v2)),
               f"path command {i} differs from the float walk")


def check_visits_box_once(points, side: int, dim: int) -> None:
    """The vertices are lattice points and visit each point of [0, side)^dim
    exactly once."""
    seen = bytearray(side ** dim)
    count = 0
    for p in points:
        q = [round(c) for c in p]
        expect(all(abs(a - b) < 1e-9 for a, b in zip(p, q)), f"vertex {p} is off the lattice")
        expect(all(0 <= c < side for c in q), f"vertex {q} leaves the box")
        index = 0
        for c in q:
            index = index * side + c
        expect(not seen[index], f"vertex {q} visited twice")
        seen[index] = 1
        count += 1
    expect(count == len(seen), "box points missed")


def check_lattice_points(points) -> None:
    for p in points:
        expect(all(abs(c - round(c)) < 1e-9 for c in p), f"vertex {p} is not a lattice point")


# ---- exact walk on 1/2*Z[sqrt2] and brute-force overlaps --------------------
# A number (a, b) stands for (a + b*sqrt2) / 2; the common factor 1/2 does not
# change collinearity or interval order, so it is dropped throughout.

EXACT_DIRECTIONS = {
    "dragon": {1: ((2, 0), (0, 0)), 2: ((0, 0), (2, 0)), 3: ((0, -1), (0, 1)), 4: ((0, -1), (0, -1))},
    "eighth": {1: ((2, 0), (0, 0)), 2: ((0, 1), (0, 1)), 3: ((0, 0), (2, 0)), 4: ((0, -1), (0, 1))},
}


def _mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _sign(x) -> int:
    a, b = x
    if a >= 0 and b >= 0:
        return 0 if a == 0 and b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    s = a * a - 2 * b * b
    s = (s > 0) - (s < 0)
    return s if a > 0 else -s


def exact_walk(digits, table: str, exps=None) -> list[tuple]:
    dirs = EXACT_DIRECTIONS[table]
    x = y = (0, 0)
    out = [(x, y)]
    for i, k in enumerate(digits):
        dx, dy = dirs[abs(k)]
        for _ in range(exps[i] if exps is not None else 0):
            dx, dy = (2 * dx[1], dx[0]), (2 * dy[1], dy[0])  # times sqrt2
        if k < 0:
            dx, dy = (-dx[0], -dx[1]), (-dy[0], -dy[1])
        x, y = (x[0] + dx[0], x[1] + dx[1]), (y[0] + dy[0], y[1] + dy[1])
        out.append((x, y))
    return out


def brute_force_partial_overlaps(verts) -> int:
    """Pairs of collinear edges sharing a segment of positive length without
    coinciding, by checking every pair."""
    segs = [(ax, ay, _sub(bx, ax), _sub(by, ay)) for (ax, ay), (bx, by) in zip(verts, verts[1:])]
    count = 0
    for i in range(len(segs)):
        ax, ay, ex, ey = segs[i]
        ta = _add_dot(ax, ay, ex, ey)
        tb = _add_dot(_plus(ax, ex), _plus(ay, ey), ex, ey)
        lo1, hi1 = (ta, tb) if _sign(_sub(tb, ta)) > 0 else (tb, ta)
        for j in range(i + 1, len(segs)):
            cx, cy, fx, fy = segs[j]
            if _sign(_sub(_mul(ex, fy), _mul(ey, fx))) != 0:
                continue
            if _sign(_sub(_mul(ex, _sub(cy, ay)), _mul(ey, _sub(cx, ax)))) != 0:
                continue
            tc = _add_dot(cx, cy, ex, ey)
            td = _add_dot(_plus(cx, fx), _plus(cy, fy), ex, ey)
            lo2, hi2 = (tc, td) if _sign(_sub(td, tc)) > 0 else (td, tc)
            if lo1 == lo2 and hi1 == hi2:
                continue
            lo = lo1 if _sign(_sub(lo1, lo2)) >= 0 else lo2
            hi = hi1 if _sign(_sub(hi2, hi1)) >= 0 else hi2
            if _sign(_sub(hi, lo)) > 0:
                count += 1
    return count


def _plus(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _add_dot(px, py, ex, ey):
    return _plus(_mul(px, ex), _mul(py, ey))


def check_self_avoidance(report, verts, partial_pairs: int) -> None:
    expect(report.partial_overlap_pairs == partial_pairs,
           f"report counts {report.partial_overlap_pairs} partial overlaps, brute force {partial_pairs}")
    expect(report.vertex_count == len(set(verts)), "report vertex count differs from the exact walk")
    expect(report.has_overlap == (partial_pairs > 0 or report.max_edge_multiplicity > 1),
           "report overlap flag disagrees with its counts")


def check_coverage(report, total: int) -> None:
    """A walk already shown to visit all ``total`` box points exactly once."""
    expect(report.total == total and report.visited == total, f"coverage {report.visited}/{report.total}, want {total}")
    expect(report.each_exactly_once and not report.missed, "coverage report misses or repeats points")


# ---- verify and rule check ---------------------------------------------------


def check_verify_json(stdout: str, entries: dict) -> int:
    """``verify --all --json``: every catalog entry, every declared check, all
    passed.  ``entries`` maps id -> declared check names.  Returns the check count."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"verify output is not JSON: {exc}") from None
    expect(sorted(r["id"] for r in payload) == sorted(entries), "verify covers the wrong entries")
    n = 0
    for r in payload:
        names = [c["name"] for c in r["checks"]]
        expect(names == ["prefix", "normalized", *entries[r["id"]]], f"{r['id']} ran the wrong checks")
        expect(r["passed"] and all(c["passed"] for c in r["checks"]), f"{r['id']} failed verification")
        n += len(names)
    return n


def check_rule_check(stdout: str, rule_text: str, prefix, level2_len: int) -> None:
    directives = dict(
        line.split(None, 1) for line in (l.split("#", 1)[0].strip() for l in rule_text.splitlines())
        if line and len(line.split(None, 1)) == 2
    )
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    expect(fields.get("name") == directives.get("name"), "rule check names the wrong rule")
    expect(fields.get("kind") == directives.get("kind"), "rule check reports the wrong kind")
    expect(fields.get("expansive") == "yes", "rule reported as not expansive")
    preview = parse_csv_line(fields.get("level-2 preview", ""))
    expect(len(preview) == min(24, level2_len), f"preview has {len(preview)} terms")
    expect(preview == list(prefix[: len(preview)]), "level-2 preview differs from the published prefix")
