"""Geometric realization of sequences: grids, tracing, verification.

Everything exact here is an integer.  A grid declares its generators the
way a ``Polyline`` stores points: one denominator, plus axis by axis the
integer coefficients of the numerators over a basis of radicands (1
first, then any of 2, 3, 6).  That covers all shipped grids (square and
cubic lattices, triangular, honeycomb, square-diagonal, eighth-roots),
and an edge length a + b*sqrt2 is the int pair (a, b) (``sqrt2_pow``).
Grid construction checks independence and span with one integer rank
test; a trace embeds each distinct step once as a ``_Ring`` product and
then walks on integer tuples; self-avoidance, overlap, coverage and
lattice checks are exact integer decisions.  Floats appear only in
``Polyline.float_columns`` (and the ``float_vertices`` and
``numeric_vertices`` read from it), for ``render``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, combinations, islice, product
from operator import itemgetter, mul, sub
from typing import Sequence

from .perms import _det_fraction_free
from .sequences import SignedSequence


class GridError(ValueError):
    pass


# a basis holds some of these radicands, 1 first
_RADICANDS = (1, 2, 3, 6)
_ROOTS = {2: 1.4142135623730951, 3: 1.7320508075688772, 6: 2.449489742783178}


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
def sqrt2_pow(e: int) -> tuple[int, int]:
    """sqrt(2)**e as the int pair (a, b) of a + b*sqrt2, the length form
    ``trace`` takes (e may be any nonnegative integer).  Cached: a length
    stream repeats a few exponents."""
    if e < 0:
        raise ValueError("negative powers not needed")
    return (2 ** (e // 2), 0) if e % 2 == 0 else (0, 2 ** (e // 2))


def _root_product(r: int, s: int) -> tuple[int, int]:
    """sqrt(r) * sqrt(s) = q * sqrt(m) for radicands r, s among 1, 2, 3, 6."""
    m, q = r * s, 1
    for p in (2, 3):
        if m % (p * p) == 0:
            m, q = m // (p * p), q * p
    return q, m


def _closed_basis(radicands) -> tuple[int, ...]:
    """The radicands with 1, closed under products."""
    basis = {1, *radicands}
    more = {_root_product(r, s)[1] for r in basis for s in basis}
    return tuple(sorted(basis | more))  # one round closes any subset of {1, 2, 3, 6}


class _Ring:
    """Exact integer arithmetic on coefficient vectors over one basis.

    A vector of several axes is flat, axis by axis, k coefficients each.
    """

    def __init__(self, basis: tuple[int, ...]):
        self.basis = basis
        self.k = len(basis)
        self.at = at = {r: i for i, r in enumerate(basis)}
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

    def scale(self, u, x) -> tuple[int, ...]:
        """Each axis of the vector u times x."""
        k = self.k
        return tuple(c for j in range(0, len(u), k) for c in self.mul(u[j:j + k], x))

    def embed(self, u, basis: tuple[int, ...]) -> tuple[int, ...]:
        """The vector u over ``basis``, a subset of this ring's, over this ring's."""
        k, at = self.k, [self.at[r] for r in basis]
        out = [0] * (len(u) // len(basis) * k)
        for j, c in enumerate(u):
            axis, t = divmod(j, len(basis))
            out[axis * k + at[t]] = c
        return tuple(out)

    def rows(self, u) -> list[tuple[int, ...]]:
        """The regular representation of the vector u: u times each basis
        element.  Vectors are independent over the field exactly when
        their rows are independent over the integers (each coordinate
        becomes its k x k multiplication block)."""
        k = self.k
        return [self.scale(u, tuple(int(i == t) for i in range(k))) for t in range(k)]

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


def _independent(rows) -> bool:
    """Integer rows are linearly independent iff their Gram determinant is not 0."""
    return _det_fraction_free([[sum(map(mul, u, v)) for v in rows] for u in rows]) != 0


@dataclass(frozen=True)
class Grid:
    """Generator vectors mapping digits to directions, declared like
    ``Polyline`` points: ``generators[i]`` holds, axis by axis, the integer
    coefficients of ``denominator`` times generator i+1 over the radicands
    in ``basis``.  The triangular grid's (1/2, sqrt3/2) is (1, 0, 0, 1)
    over basis (1, 3) with denominator 2.

    Generators must span the embedding space and be pairwise independent;
    both are checked exactly on construction.
    """

    dim: int
    generators: tuple[tuple[int, ...], ...]
    name: str = ""
    denominator: int = 1
    basis: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(map(tuple, self.generators)))
        object.__setattr__(self, "basis", tuple(self.basis))
        if not set(self.basis) <= set(_RADICANDS) or self.basis != _closed_basis(self.basis):
            raise GridError(f"basis {self.basis} is not 1 and radicands among 2, 3, 6, "
                            "closed under products, in increasing order")
        if type(self.denominator) is not int or self.denominator < 1:
            raise GridError(f"denominator {self.denominator!r} is not a positive int")
        width = self.dim * len(self.basis)
        for g in self.generators:
            if len(g) != width:
                raise GridError("generator dimension mismatch")
            if not all(type(c) is int for c in g):
                raise GridError(f"generator {g!r} is not a tuple of integer coefficients")
        rows = [self.ring.rows(g) for g in self.generators]
        for i, j in combinations(range(self.n), 2):
            if not _independent(rows[i] + rows[j]):
                raise GridError(f"generators {i + 1} and {j + 1} are dependent")
        flat = [r for rs in rows for r in rs]
        if not _independent([tuple(r[c] for r in flat) for c in range(width)]):
            raise GridError("generators do not span the space")

    @property
    def n(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def ring(self) -> _Ring:
        return _Ring(self.basis)

    def direction(self, digit: int) -> tuple[int, ...]:
        m = abs(digit)
        if m == 0 or m > self.n:
            raise GridError(f"digit {digit} out of range for grid with {self.n} generators")
        g = self.generators[m - 1]
        return g if digit > 0 else tuple(-c for c in g)

    def is_integral(self) -> bool:
        return self.basis == (1,) and self.denominator == 1


def cubic_grid(d: int) -> Grid:
    gens = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
    return Grid(d, gens, name=f"cubic-{d}d")


def square_grid() -> Grid:
    g = cubic_grid(2)
    return Grid(2, g.generators, name="square")


def triangular_grid() -> Grid:
    """Unit steps at 0, 60 and 120 degrees: (1, 0), (1/2, sqrt3/2), (-1/2, sqrt3/2)."""
    return Grid(2, ((2, 0, 0, 0), (1, 0, 0, 1), (-1, 0, 0, 1)),
                name="triangular", denominator=2, basis=(1, 3))


def square_diagonal_grid() -> Grid:
    return Grid(2, ((1, 0), (1, 1), (0, 1), (-1, 1)), name="square-diagonal")


def eighth_roots_grid() -> Grid:
    """Unit steps at 0, 45, 90 and 135 degrees; sqrt2/2 is (0 + 1*sqrt2) / 2."""
    return Grid(2, ((2, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, -1, 0, 1)),
                name="eighth-roots", denominator=2, basis=(1, 2))


def truncated_square_grid() -> Grid:
    g = eighth_roots_grid()
    return Grid(2, g.generators, name="truncated-square", denominator=g.denominator, basis=g.basis)


def honeycomb_grid() -> Grid:
    g = triangular_grid()
    return Grid(2, g.generators, name="honeycomb", denominator=g.denominator, basis=g.basis)


def dragon_axes_grid() -> Grid:
    """Eighth-roots directions renumbered so the V1 dragon is normalized:
    unit x, unit y, and the two upper/lower-left diagonals."""
    return Grid(2, ((2, 0, 0, 0), (0, 0, 2, 0), (0, -1, 0, 1), (0, -1, 0, -1)),
                name="eighth-roots-dragon", denominator=2, basis=(1, 2))


@dataclass(frozen=True)
class Polyline:
    """Traced vertices, entry first and exit last, on an integer embedding.

    ``points[i]`` holds vertex i axis by axis: for each axis, the integer
    coefficients of ``denominator`` times the coordinate over the radicands
    in ``basis``.  On an integer lattice (basis (1,), denominator 1) the
    points are the vertices themselves.  Construction checks every point.
    """

    points: tuple[tuple[int, ...], ...]
    denominator: int = 1
    basis: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.points:
            raise GridError("a polyline has at least its entry vertex")
        width = len(self.points[0])
        if width % len(self.basis) or not all(
            len(v) == width and all(type(c) is int for c in v) for v in self.points
        ):
            raise GridError("polyline points are integer coefficient tuples of one length, "
                            f"axis by axis over the basis {self.basis}")

    @classmethod
    def _unchecked(cls, points, denominator: int, basis: tuple[int, ...]) -> Polyline:
        """A polyline whose points are int tuples of one length by
        construction, as ``trace`` builds them, without the per-point pass."""
        p = object.__new__(cls)
        object.__setattr__(p, "points", points)
        object.__setattr__(p, "denominator", denominator)
        object.__setattr__(p, "basis", basis)
        return p

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

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """The points themselves, on an integer lattice only."""
        if not self.is_integral():
            raise GridError(f"vertices are exact only on an integer lattice, not over basis {self.basis} "
                            f"with denominator {self.denominator}; use float_vertices, lattice_points "
                            "or points")
        return self.points

    def float_columns(self) -> list[list[float]]:
        """Coordinates as floats, one list per axis.  Each coordinate adds
        its terms c/denominator * sqrt(r) in basis order, so the bits are
        the same on every run."""
        columns = [map(itemgetter(j), self.points) for j in range(len(self.points[0]))]  # each read once
        if self.is_integral():
            return [list(map(float, c)) for c in columns]
        k, den = len(self.basis), self.denominator
        roots = tuple(enumerate((_ROOTS[r] for r in self.basis[1:]), 1))
        out = []
        for j in range(0, len(columns), k):
            xs = [c / den for c in columns[j]]
            for t, root in roots:
                xs = [x + (c / den) * root for x, c in zip(xs, columns[j + t])]
            out.append(xs)
        return out

    def float_vertices(self) -> list[tuple[float, ...]]:
        """Each vertex as a float tuple, read from ``float_columns``."""
        return list(zip(*self.float_columns()))

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

    Without a length stream every edge uses the raw generator; a length
    a + b*sqrt2 is the int pair (a, b) that ``sqrt2_pow`` returns.  Each
    distinct (digit, length) step is computed once as a ``_Ring`` product
    and embedded with the lowest common denominator (see ``Polyline``);
    the walk itself is one running integer sum per coefficient column.
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
        ring = grid.ring
        steps = {k: grid.direction(k) for k in digits}
    else:
        keys = list(zip(items, lengths))
        distinct = set(keys)
        for _, ln in distinct:
            if type(ln) is not tuple or len(ln) != 2 or not all(type(c) is int for c in ln):
                raise GridError(f"length {ln!r} is not an int pair (a, b) for a + b*sqrt2")
        ring = _Ring(_closed_basis(grid.basis + ((2,) if any(b for _, (a, b) in distinct) else ())))
        steps = {}
        for k, (a, b) in distinct:
            x = [a] + [0] * (ring.k - 1)
            if b:
                x[ring.at[2]] = b
            steps[k, (a, b)] = ring.scale(ring.embed(grid.direction(k), grid.basis), x)
    g = math.gcd(grid.denominator, *(c for v in steps.values() for c in v))
    if g > 1:
        steps = {key: tuple(c // g for c in v) for key, v in steps.items()}
    columns = [accumulate(map({key: v[c] for key, v in steps.items()}.__getitem__, keys), initial=0)
               for c in range(grid.dim * ring.k)]
    return Polyline._unchecked(tuple(zip(*columns)), grid.denominator // g, ring.basis)


def orientation(s: SignedSequence, grid: Grid, lengths: Sequence | None = None) -> tuple[int, ...]:
    """Exit minus entry, on an integer lattice (see ``Polyline.vertices``)."""
    v = trace(s, grid, lengths).vertices
    return tuple(map(sub, v[-1], v[0]))


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


MISSED_CAP = 32


def coverage_report(p: Polyline, lo: tuple[int, ...], hi: tuple[int, ...]) -> CoverageReport:
    """Which integer lattice points of the box [lo, hi] does the polyline visit?
    ``missed`` lists the first ``MISSED_CAP`` unvisited ones."""
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
    missed: tuple[tuple, ...] = ()
    if visited < total:
        box = product(*(range(l, h + 1) for l, h in zip(lo, hi)))  # lexicographic
        missed = tuple(islice((v for v in box if v not in counts), MISSED_CAP))
    return CoverageReport(
        total=total,
        visited=visited,
        fraction=visited / total if total else 1.0,
        each_exactly_once=visited == total and all(c == 1 for c in counts.values()),
        missed=missed,
    )


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
