"""Geometric realization of sequences: grids, tracing, verification.

Grids are defined exactly: every generator component is
a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational a, b, c, d (``Radical``),
which covers all shipped grids (square and cubic lattices, triangular,
honeycomb, square-diagonal, eighth-roots) and every edge length that
occurs (powers of sqrt2).  A trace computes each distinct step once in
that arithmetic and then walks on integers: a ``Polyline`` stores every
coordinate as integer coefficients over 1, sqrt2, sqrt3, sqrt6 (only
those the grid and lengths use; just 1 on cubic lattices) with one common
denominator.  Self-avoidance, overlap, coverage and lattice checks are
exact integer decisions; floats appear only in ``render``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul, sub
from typing import Sequence

from .sequences import SignedSequence


class GridError(ValueError):
    pass


_ZERO = Fraction(0)
# Radical's components a, b, c, d multiply the square roots of these
_RADICANDS = (1, 2, 3, 6)
_ROOTS = {2: 1.4142135623730951, 3: 1.7320508075688772, 6: 2.449489742783178}


@dataclass(frozen=True)
class Radical:
    """Exact number a + b*sqrt2 + c*sqrt3 + d*sqrt6."""

    a: Fraction = _ZERO
    b: Fraction = _ZERO
    c: Fraction = _ZERO
    d: Fraction = _ZERO

    @staticmethod
    def of(x) -> "Radical":
        if isinstance(x, Radical):
            return x
        return Radical(Fraction(x))

    @staticmethod
    def sqrt2(coeff=1) -> "Radical":
        return Radical(_ZERO, Fraction(coeff))

    @staticmethod
    def sqrt3(coeff=1) -> "Radical":
        return Radical(_ZERO, _ZERO, Fraction(coeff))

    def __add__(self, other) -> "Radical":
        o = Radical.of(other)
        return Radical(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> "Radical":
        return Radical(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other) -> "Radical":
        return self + (-Radical.of(other))

    def __rsub__(self, other) -> "Radical":
        return Radical.of(other) + (-self)

    def __mul__(self, other) -> "Radical":
        o = Radical.of(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return Radical(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _ROOTS[2] + float(self.c) * _ROOTS[3] + float(self.d) * _ROOTS[6]

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def sign(self) -> int:
        return _sign4(self.a, self.b, self.c, self.d)

    def __lt__(self, other) -> bool:
        return (self - Radical.of(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - Radical.of(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - Radical.of(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - Radical.of(other)).sign() >= 0

    def as_int(self) -> int | None:
        if self.b == 0 and self.c == 0 and self.d == 0 and self.a.denominator == 1:
            return int(self.a)
        return None

    def __str__(self) -> str:
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*sqrt2"), (self.c, "*sqrt3"), (self.d, "*sqrt6")):
            if coeff != 0:
                parts.append(f"{coeff}{tag}")
        return " + ".join(parts) if parts else "0"


def _parts(x) -> tuple:
    """Coefficients of 1, sqrt2, sqrt3, sqrt6 in x."""
    if isinstance(x, Radical):
        return (x.a, x.b, x.c, x.d)
    return (Fraction(x), _ZERO, _ZERO, _ZERO)


def _sign4(a, b, c, d) -> int:
    """Exact sign of a + b*sqrt2 + c*sqrt3 + d*sqrt6 (rational or integer
    coefficients), via nested comparisons of squared parts."""
    p = (a, b)  # P + Q*sqrt3 with P, Q in Q[sqrt2]
    q = (c, d)
    sp = _sign_sqrt2(*p)
    sq = _sign_sqrt2(*q)
    if sq == 0:
        return sp
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    # P and Q have opposite signs: compare P^2 against 3 Q^2
    p2 = (p[0] * p[0] + 2 * p[1] * p[1], 2 * p[0] * p[1])
    q2 = (q[0] * q[0] + 2 * q[1] * q[1], 2 * q[0] * q[1])
    diff = (p2[0] - 3 * q2[0], p2[1] - 3 * q2[1])
    return sp * _sign_sqrt2(*diff)


def _sign_sqrt2(a, b) -> int:
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    t = a * a - 2 * b * b
    s = 1 if t > 0 else (-1 if t < 0 else 0)
    return s if a > 0 else -s


@functools.lru_cache(maxsize=256)
def sqrt2_pow(e: int) -> Radical:
    """sqrt(2)**e as an exact value (e may be any nonnegative integer).

    Cached: a length stream repeats a few exponents, and ``trace`` hashes
    each distinct length object once."""
    if e < 0:
        raise ValueError("negative powers not needed")
    if e % 2 == 0:
        return Radical(Fraction(2 ** (e // 2)))
    return Radical.sqrt2(2 ** ((e - 1) // 2))


Vector = tuple[Radical, ...]


def vec(*components) -> Vector:
    return tuple(Radical.of(c) for c in components)


@dataclass(frozen=True)
class Grid:
    """Generator vectors mapping digits to directions.

    Generators must span the embedding space and be pairwise independent;
    both are checked exactly on construction.
    """

    dim: int
    generators: tuple[Vector, ...]
    name: str = ""

    def __post_init__(self) -> None:
        gens = tuple(tuple(Radical.of(c) for c in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.dim:
                raise GridError("generator dimension mismatch")
        n = len(gens)
        ints = [[c.as_int() for c in g] for g in gens]
        all_int = all(c is not None for row in ints for c in row)
        for i in range(n):
            for j in range(i + 1, n):
                dep = _dependent_int(ints[i], ints[j]) if all_int else _dependent(gens[i], gens[j])
                if dep:
                    raise GridError(f"generators {i + 1} and {j + 1} are dependent")
        if _gram_rank_deficient(gens, self.dim):
            raise GridError("generators do not span the space")

    @property
    def n(self) -> int:
        return len(self.generators)

    def direction(self, digit: int) -> Vector:
        m = abs(digit)
        if m == 0 or m > self.n:
            raise GridError(f"digit {digit} out of range for grid with {self.n} generators")
        g = self.generators[m - 1]
        return g if digit > 0 else tuple(-c for c in g)

    def is_integral(self) -> bool:
        return all(c.as_int() is not None for g in self.generators for c in g)


def _dependent(u: Vector, v: Vector) -> bool:
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if not (u[i] * v[j] - u[j] * v[i]).is_zero():
                return False
    return True


def _dependent_int(u, v) -> bool:
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def _gram_rank_deficient(gens: tuple[Vector, ...], dim: int) -> bool:
    # rank(G) = dim iff det(G G^T) != 0, computed exactly; integer grids
    # (cubic lattices in any dimension) take the integer route, the small
    # radical grids expand cofactors
    ints = [[c.as_int() for c in g] for g in gens]
    if all(c is not None for row in ints for c in row):
        from .perms import _det_fraction_free

        gram = [[sum(ints[k][i] * ints[k][j] for k in range(len(ints))) for j in range(dim)]
                for i in range(dim)]
        return _det_fraction_free(gram) == 0
    m = [[_dot_exact(_row(gens, i), _row(gens, j)) for j in range(dim)] for i in range(dim)]
    return _det_radical(m).is_zero()


def _row(gens: tuple[Vector, ...], i: int) -> tuple[Radical, ...]:
    return tuple(g[i] for g in gens)


def _dot_exact(u, v) -> Radical:
    acc = Radical()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def _det_radical(m) -> Radical:
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = Radical()
    sign = 1
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in m[1:]]
        acc = acc + Radical.of(sign) * m[0][col] * _det_radical(minor)
        sign = -sign
    return acc


def cubic_grid(d: int) -> Grid:
    gens = tuple(tuple(Radical.of(1 if i == j else 0) for i in range(d)) for j in range(d))
    return Grid(d, gens, name=f"cubic-{d}d")


def square_grid() -> Grid:
    g = cubic_grid(2)
    return Grid(2, g.generators, name="square")


def triangular_grid() -> Grid:
    h = Fraction(1, 2)
    return Grid(
        2,
        (vec(1, 0), (Radical.of(h), Radical.sqrt3(h)), (Radical.of(-h), Radical.sqrt3(h))),
        name="triangular",
    )


def square_diagonal_grid() -> Grid:
    return Grid(2, (vec(1, 0), vec(1, 1), vec(0, 1), vec(-1, 1)), name="square-diagonal")


def eighth_roots_grid() -> Grid:
    h = Fraction(1, 2)
    s = Radical.sqrt2(h)
    return Grid(
        2,
        (vec(1, 0), (s, s), vec(0, 1), (-s, s)),
        name="eighth-roots",
    )


def truncated_square_grid() -> Grid:
    g = eighth_roots_grid()
    return Grid(2, g.generators, name="truncated-square")


def honeycomb_grid() -> Grid:
    g = triangular_grid()
    return Grid(2, g.generators, name="honeycomb")


def dragon_axes_grid() -> Grid:
    """Eighth-roots directions renumbered so the V1 dragon is normalized:
    unit x, unit y, and the two upper/lower-left diagonals."""
    h = Fraction(1, 2)
    s = Radical.sqrt2(h)
    return Grid(2, (vec(1, 0), vec(0, 1), (-s, s), (-s, -s)), name="eighth-roots-dragon")


# ---------------------------------------------------------------- embedding
#
# Every traced vertex is an integer combination of a few exact steps, so a
# polyline is stored on integers: each coordinate x becomes the coefficients
# of D*x over a basis of radicands (1 first, then any of 2, 3, 6), with one
# common denominator D per polyline.


def _root_product(r: int, s: int) -> tuple[int, int]:
    """sqrt(r) * sqrt(s) = q * sqrt(m) for radicands r, s among 1, 2, 3, 6."""
    m, q = r * s, 1
    for p in (2, 3):
        if m % (p * p) == 0:
            m, q = m // (p * p), q * p
    return q, m


def _closed_basis(values) -> tuple[int, ...]:
    """The radicands the values use, with 1, closed under products."""
    basis = {1} | {r for x in values for r, c in zip(_RADICANDS, _parts(x)) if c}
    more = {_root_product(r, s)[1] for r in basis for s in basis}
    return tuple(sorted(basis | more))  # one round closes any subset of {1, 2, 3, 6}


def _denominator(values) -> int:
    return math.lcm(*(c.denominator for x in values for c in _parts(x)))


def _embed(v: Vector, basis: tuple[int, ...], den: int) -> tuple[int, ...]:
    out = []
    for x in v:
        parts = _parts(x)
        for r in basis:
            out.append(int(parts[_RADICANDS.index(r)] * den))
    return tuple(out)


class _Ring:
    """Exact integer arithmetic on coefficient vectors over one basis."""

    def __init__(self, basis: tuple[int, ...]):
        self.basis = basis
        self.k = len(basis)
        at = {r: i for i, r in enumerate(basis)}
        self.table = tuple((i, j, at[m], q) for i, r in enumerate(basis) for j, s in enumerate(basis)
                           for q, m in (_root_product(r, s),))
        # the field automorphisms flip the sign of sqrt2, of sqrt3, or both
        flips = {tuple((-1) ** ((r % 2 == 0) * f2 + (r % 3 == 0) * f3) for r in basis)
                 for f2, f3 in ((1, 0), (0, 1), (1, 1))}
        self.flips = tuple(sorted(flips - {(1,) * self.k}))
        self.unit = (1,) + (0,) * (self.k - 1)
        # u + (0,) padded, read out as the coefficients of 1, sqrt2, sqrt3, sqrt6
        self._full = itemgetter(*(at.get(r, self.k) for r in _RADICANDS))

    def mul(self, u, v) -> tuple[int, ...]:
        out = [0] * self.k
        for i, j, m, q in self.table:
            out[m] += q * u[i] * v[j]
        return tuple(out)

    def conjugate(self, u) -> tuple[int, ...]:
        """The product of u's other conjugates: u * conjugate(u) is an integer."""
        acc = self.unit
        for f in self.flips:
            acc = self.mul(acc, tuple(s * c for s, c in zip(f, u)))
        return acc

    def sign(self, u) -> int:
        return _sign4(*self._full(u + (0,)))

    def sort_key(self):
        """Exact order on values: plain ints over the basis (1,)."""
        if self.k == 1:
            return itemgetter(0)
        return functools.cmp_to_key(lambda u, v: self.sign(tuple(map(sub, u, v))))


@dataclass(frozen=True)
class Polyline:
    """Traced vertices, entry first and exit last, on an integer embedding.

    ``points[i]`` holds vertex i axis by axis: for each axis, the integer
    coefficients of ``denominator`` times the coordinate over the radicands
    in ``basis``.  On an integer lattice (basis (1,), denominator 1) the
    points are the vertices themselves.  Build one from exact coordinates
    with ``Polyline.of``.
    """

    points: tuple[tuple[int, ...], ...]
    denominator: int = 1
    basis: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.points:
            raise GridError("a polyline has at least its entry vertex")
        first = self.points[0]
        if len(first) % len(self.basis) or not all(type(c) is int for c in first):
            raise GridError("polyline points are integer coefficient tuples; "
                            "use Polyline.of for exact coordinates")

    @classmethod
    def of(cls, vertices) -> "Polyline":
        """Embed vertices given as exact coordinates (ints, Fractions, Radicals)."""
        vs = [tuple(Radical.of(c) for c in v) for v in vertices]
        coords = [c for v in vs for c in v]
        basis, den = _closed_basis(coords), _denominator(coords)
        return cls(tuple(_embed(v, basis, den) for v in vs), den, basis)

    @property
    def dim(self) -> int:
        return len(self.points[0]) // len(self.basis)

    @property
    def closed(self) -> bool:
        return self.points[0] == self.points[-1] and len(self.points) > 1

    @property
    def edge_count(self) -> int:
        return len(self.points) - 1

    def is_integral(self) -> bool:
        return self.basis == (1,) and self.denominator == 1

    @functools.cached_property
    def vertices(self) -> tuple[tuple, ...]:
        """Exact coordinates: the points on an integer lattice, else Radicals."""
        if self.is_integral():
            return self.points
        return tuple(self._exact(v) for v in self.points)

    def _exact(self, point) -> tuple:
        if self.is_integral():
            return point
        k, den = len(self.basis), self.denominator
        out = []
        for j in range(0, len(point), k):
            parts = dict(zip(self.basis, point[j:j + k]))
            out.append(Radical(*(Fraction(parts.get(r, 0), den) for r in _RADICANDS)))
        return tuple(out)

    def float_vertices(self) -> list[tuple[float, ...]]:
        """Coordinates as floats, bit for bit those of ``float(Radical)``:
        the same terms are added in the same order."""
        if self.is_integral():
            return [tuple(map(float, v)) for v in self.points]
        k, den = len(self.basis), self.denominator
        roots = tuple(enumerate((_ROOTS[r] for r in self.basis[1:]), 1))
        out = []
        for v in self.points:
            coords = []
            for j in range(0, len(v), k):
                x = v[j] / den
                for t, root in roots:
                    x += (v[j + t] / den) * root
                coords.append(x)
            out.append(tuple(coords))
        return out

    def lattice_points(self) -> list[tuple[int, ...] | None]:
        """Each vertex as an integer tuple, or None where a coordinate is
        not an integer."""
        if self.is_integral():
            return list(self.points)
        out = []
        for v in self.points:
            ints = self._axis_ints(v)
            out.append(None if None in ints else ints)
        return out

    def numeric_vertices(self) -> list[tuple[int | float, ...]]:
        """Each coordinate as an int where it is an integer, else its float."""
        if self.is_integral():
            return list(self.points)
        return [tuple(f if i is None else i for i, f in zip(self._axis_ints(v), fv))
                for v, fv in zip(self.points, self.float_vertices())]

    def _axis_ints(self, point) -> tuple[int | None, ...]:
        k, den = len(self.basis), self.denominator
        out = []
        for j in range(0, len(point), k):
            whole, rest = point[j], point[j + 1:j + k]
            out.append(None if any(rest) or whole % den else whole // den)
        return tuple(out)


def trace(s: SignedSequence, grid: Grid, lengths: Sequence | None = None) -> Polyline:
    """Walk from the origin: vertex_{i+1} = vertex_i + sign * length * u(|digit|).

    Without a length stream every edge uses the raw generator.  Each
    distinct (digit, length) step is computed once, exactly, and embedded
    as an integer vector (see ``Polyline``); the walk itself only adds
    integer tuples.
    """
    items = s.items
    if lengths is not None and len(lengths) != len(items):
        raise GridError(f"length stream has {len(lengths)} entries for {len(items)} edges")
    digits = set(items)
    bad = {k for k in digits if not 1 <= abs(k) <= grid.n}
    if bad:
        grid.direction(next(k for k in items if k in bad))  # raises, naming the first
    if lengths is None:
        keys = items
        exact = {k: grid.direction(k) for k in digits}
        scales: list[Radical] = []
    else:
        # sqrt2_pow is cached, so a few length objects recur: hash each
        # object's value once rather than every edge's
        objects = {id(ln): ln for ln in lengths}
        index: dict[Radical, int] = {}
        code = {i: index.setdefault(Radical.of(ln), len(index)) for i, ln in objects.items()}
        scales = list(index)
        keys = [(k, code[id(ln)]) for k, ln in zip(items, lengths)]
        exact = {(k, c): tuple(x * scales[c] for x in grid.direction(k)) for k, c in set(keys)}
    basis = _closed_basis([c for g in grid.generators for c in g] + scales)
    den = _denominator([c for v in exact.values() for c in v])
    steps = {key: _embed(v, basis, den) for key, v in exact.items()}
    pos = (0,) * (grid.dim * len(basis))
    out = [pos]
    append = out.append
    for key in keys:
        pos = tuple(map(add, pos, steps[key]))
        append(pos)
    return Polyline(tuple(out), den, basis)


def orientation(s: SignedSequence, grid: Grid, lengths: Sequence | None = None) -> tuple:
    """Exit minus entry."""
    p = trace(s, grid, lengths)
    return p._exact(tuple(map(sub, p.points[-1], p.points[0])))


@dataclass(frozen=True)
class SelfAvoidanceReport:
    vertex_count: int
    max_vertex_multiplicity: int
    max_edge_multiplicity: int
    vertex_covering: bool  # no vertex visited twice
    edge_covering: bool  # no edge doubled, vertices at most twice
    has_overlap: bool  # doubled edge or partial collinear overlap
    partial_overlap_pairs: int


def self_avoidance_report(p: Polyline, check_partial: bool = True) -> SelfAvoidanceReport:
    """Vertex and edge multiplicities plus overlap detection.

    Partial (non-coincident) overlaps of collinear edges are counted for
    plane polylines of any size unless ``check_partial`` is False; doubled
    edges show up in the edge multiplicities.
    """
    pts = p.points
    vcount = Counter(pts)
    edges = Counter((a, b) if a <= b else (b, a) for a, b in zip(pts, pts[1:]))
    max_v = max(vcount.values()) if vcount else 0
    max_e = max(edges.values()) if edges else 0
    partial_pairs = 0
    if check_partial and p.dim == 2:
        partial_pairs = _partial_overlap_pairs(p, edges)
    return SelfAvoidanceReport(
        vertex_count=len(vcount),
        max_vertex_multiplicity=max_v,
        max_edge_multiplicity=max_e,
        vertex_covering=max_v <= 1,
        edge_covering=max_e <= 1 and max_v <= 2,
        has_overlap=max_e >= 2 or partial_pairs > 0,
        partial_overlap_pairs=partial_pairs,
    )


def _partial_overlap_pairs(p: Polyline, edges: Counter) -> int:
    """Count pairs of collinear edges sharing a segment of positive length
    without coinciding.

    Edges are bucketed on an exact line key: the direction as a reduced
    slope (or vertical), plus the cross product of that direction with a
    point of the edge.  Along each line the edges are intervals of x (of y
    on a vertical line); two intervals overlap unless one ends at or
    before the other starts, which one bisection per interval counts.
    Coincident pairs are the doubled ``edges`` and are subtracted.
    """
    ring = _Ring(p.basis)
    k = ring.k
    key = ring.sort_key()
    lines_of: dict[tuple, tuple] = {}  # step -> _line_of(step)
    spans: dict[tuple, list] = defaultdict(list)
    pts = p.points
    for a, b in zip(pts, pts[1:]):
        step = tuple(map(sub, b, a))
        line = lines_of.get(step)
        if line is None:
            line = lines_of[step] = _line_of(ring, step)
        direction, rows, axis, forward = line
        if rows is None:
            continue  # a zero-length edge overlaps nothing
        offset = tuple([sum(map(mul, row, a)) for row in rows])
        ta, tb = key(a[axis:axis + k]), key(b[axis:axis + k])
        spans[direction, offset].append((ta, tb) if forward else (tb, ta))
    pairs = 0
    for ivs in spans.values():
        n = len(ivs)
        if n > 1:
            ends = sorted(hi for _, hi in ivs)
            pairs += n * (n - 1) // 2 - sum(bisect_right(ends, lo) for lo, _ in ivs)
    return pairs - sum(c * (c - 1) // 2 for (a, b), c in edges.items() if a != b)


def _line_of(ring: _Ring, step) -> tuple:
    """What edges along ``step`` share: the line direction, the rows of the
    linear map from an edge's first point to its line offset, where the
    coordinate that orders points on the line starts in a point, and
    whether the step runs forward along that coordinate.

    The direction is the slope ey/ex = v/n with n > 0 and gcd 1, or
    vertical; the offset is n*y - v*x, or -x on a vertical line.
    """
    k = ring.k
    ex, ey = step[:k], step[k:]
    if not any(ex):
        if not any(ey):
            return None, None, 0, True
        n, v, axis, forward = 0, ring.unit, k, ring.sign(ey) > 0
    else:
        conj = ring.conjugate(ex)
        n = ring.mul(ex, conj)[0]
        v = ring.mul(ey, conj)
        g = math.gcd(n, *v)
        if n < 0:
            g = -g
        n, v, axis, forward = n // g, tuple(c // g for c in v), 0, ring.sign(ex) > 0
    # offset_t = n*y_t - (v*x)_t, as a row of coefficients on (x..., y...)
    rows = [[0] * (2 * k) for _ in range(k)]
    for t in range(k):
        rows[t][k + t] = n
    for i, j, m, q in ring.table:
        rows[m][j] -= q * v[i]
    return (n, v), tuple(tuple(r) for r in rows), axis, forward


@dataclass(frozen=True)
class CoverageReport:
    total: int
    visited: int
    fraction: float
    each_exactly_once: bool
    missed: tuple[tuple, ...]


def coverage_report(p: Polyline, lo: tuple[int, ...], hi: tuple[int, ...], missed_cap: int = 32) -> CoverageReport:
    """Which integer lattice points of the box [lo, hi] does the polyline visit?"""
    dim = p.dim
    if len(lo) != dim or len(hi) != dim:
        raise GridError("box dimension mismatch")
    counts: Counter = Counter()
    for iv in p.lattice_points():
        if iv is not None and all(l <= c <= h for c, l, h in zip(iv, lo, hi)):
            counts[iv] += 1
    total = 1
    for l, h in zip(lo, hi):
        total *= h - l + 1
    visited = len(counts)
    missed: list[tuple] = []
    if visited < total and missed_cap > 0:
        missed = _first_missed(counts, lo, hi, missed_cap)
    return CoverageReport(
        total=total,
        visited=visited,
        fraction=visited / total if total else 1.0,
        each_exactly_once=visited == total and all(c == 1 for c in counts.values()),
        missed=tuple(missed),
    )


def _first_missed(counts, lo, hi, cap):
    missed = []

    def rec(prefix, axis):
        if len(missed) >= cap:
            return
        if axis == len(lo):
            if tuple(prefix) not in counts:
                missed.append(tuple(prefix))
            return
        for c in range(lo[axis], hi[axis] + 1):
            rec(prefix + [c], axis + 1)

    rec([], 0)
    return missed


TRUNCATED_SQUARE_SUCCESSORS = {
    1: frozenset({2, 4}), 2: frozenset({3, 1}), 3: frozenset({2, -4}), 4: frozenset({-3, 1}),
    -1: frozenset({-2, -4}), -2: frozenset({-3, -1}), -3: frozenset({-2, 4}), -4: frozenset({3, -1}),
}

HONEYCOMB_SUCCESSORS = {
    1: frozenset({2, -3}), 2: frozenset({3, 1}), 3: frozenset({-1, 2}),
    -1: frozenset({-2, 3}), -2: frozenset({-3, -1}), -3: frozenset({1, -2}),
}


def successor_violations(s: SignedSequence, allowed: dict[int, frozenset[int]]) -> list[tuple[int, int, int]]:
    """Positions where a digit is followed by a direction the grid's vertex
    figure does not offer.  Empty list means the walk respects the grid."""
    out = []
    for i in range(len(s.items) - 1):
        a, b = s.items[i], s.items[i + 1]
        if b not in allowed.get(a, frozenset()):
            out.append((i, a, b))
    return out
