"""Geometric realization of sequences: grids, tracing, verification.

Coordinates are exact: every component is a + b*sqrt2 + c*sqrt3 + d*sqrt6
with rational a, b, c, d, which covers all shipped grids (square and cubic
lattices, triangular, square-diagonal, eighth-roots) and every edge length
that occurs (powers of sqrt2).  Floats appear only at render time, so
coverage, self-avoidance and overlap checks are exact decisions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .sequences import SignedSequence


class GridError(ValueError):
    pass


_ZERO = Fraction(0)


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
        return float(self.a) + float(self.b) * 1.4142135623730951 + float(self.c) * 1.7320508075688772 + float(self.d) * 2.449489742783178

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def sign(self) -> int:
        """Exact sign via nested comparisons of squared parts."""
        p = (self.a, self.b)  # P + Q*sqrt3 with P, Q in Q[sqrt2]
        q = (self.c, self.d)
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


def _sign_sqrt2(a: Fraction, b: Fraction) -> int:
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    t = a * a - 2 * b * b
    s = 1 if t > 0 else (-1 if t < 0 else 0)
    return s if a > 0 else -s


def sqrt2_pow(e: int) -> Radical:
    """sqrt(2)**e as an exact value (e may be any nonnegative integer)."""
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


@dataclass(frozen=True)
class Polyline:
    """Traced vertices; entry is first, exit is last."""

    vertices: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GridError("a polyline has at least its entry vertex")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1] and len(self.vertices) > 1

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def float_vertices(self) -> list[tuple[float, ...]]:
        return [tuple(float(c) for c in v) for v in self.vertices]


def trace(s: SignedSequence, grid: Grid, lengths: Sequence | None = None) -> Polyline:
    """Walk from the origin: vertex_{i+1} = vertex_i + sign * length * u(|digit|).

    Without a length stream every edge uses the raw generator.  Integer
    grids are traced in plain integer arithmetic.
    """
    items = s.items
    if lengths is not None and len(lengths) != len(items):
        raise GridError(f"length stream has {len(lengths)} entries for {len(items)} edges")
    if lengths is None and grid.is_integral():
        int_gens = [tuple(c.as_int() for c in g) for g in grid.generators]
        n = len(int_gens)
        pos = (0,) * grid.dim
        out = [pos]
        for k in items:
            if not 1 <= abs(k) <= n:
                raise GridError(f"digit {k} out of range for grid with {n} generators")
            g = int_gens[abs(k) - 1]
            if k > 0:
                pos = tuple(p + c for p, c in zip(pos, g))
            else:
                pos = tuple(p - c for p, c in zip(pos, g))
            out.append(pos)
        return Polyline(tuple(out))
    zero = Radical()
    pos = tuple(zero for _ in range(grid.dim))
    out = [pos]
    for i, k in enumerate(items):
        step = grid.direction(k)
        if lengths is not None:
            ln = lengths[i] if isinstance(lengths[i], Radical) else Radical.of(lengths[i])
            step = tuple(c * ln for c in step)
        pos = tuple(p + c for p, c in zip(pos, step))
        out.append(pos)
    return Polyline(tuple(out))


def orientation(s: SignedSequence, grid: Grid, lengths: Sequence | None = None) -> tuple:
    """Exit minus entry."""
    p = trace(s, grid, lengths)
    first, last = p.vertices[0], p.vertices[-1]
    return tuple(b - a for a, b in zip(first, last))


@dataclass(frozen=True)
class SelfAvoidanceReport:
    vertex_count: int
    max_vertex_multiplicity: int
    max_edge_multiplicity: int
    vertex_covering: bool  # no vertex visited twice
    edge_covering: bool  # no edge doubled, vertices at most twice
    has_overlap: bool  # doubled edge or partial collinear overlap
    partial_overlap_pairs: int


def self_avoidance_report(p: Polyline, check_partial: bool | None = None) -> SelfAvoidanceReport:
    """Vertex and edge multiplicities plus overlap detection.

    Partial (non-coincident) overlaps of collinear edges are detected for
    plane polylines; on lattice grids doubled edges already show up in the
    edge multiplicities.
    """
    verts = p.vertices
    vcount = Counter(verts)
    edges = Counter()
    for aa, bb in zip(verts, verts[1:]):
        edges[(aa, bb) if _key(aa) <= _key(bb) else (bb, aa)] += 1
    max_v = max(vcount.values()) if vcount else 0
    max_e = max(edges.values()) if edges else 0
    partial_pairs = 0
    if check_partial is None:
        check_partial = p.dim == 2 and p.edge_count <= 4096
    if check_partial and p.dim == 2:
        partial_pairs = _partial_overlap_pairs(verts)
    return SelfAvoidanceReport(
        vertex_count=len(vcount),
        max_vertex_multiplicity=max_v,
        max_edge_multiplicity=max_e,
        vertex_covering=max_v <= 1,
        edge_covering=max_e <= 1 and max_v <= 2,
        has_overlap=max_e >= 2 or partial_pairs > 0,
        partial_overlap_pairs=partial_pairs,
    )


def _key(v):
    return tuple((float(c) if isinstance(c, Radical) else c) for c in v)


def _as_radical(x) -> Radical:
    return x if isinstance(x, Radical) else Radical.of(x)


def _partial_overlap_pairs(verts) -> int:
    """Count pairs of collinear segments sharing more than one point but
    not coincident.  Buckets by float line key, confirms exactly."""
    segments = []
    for a, b in zip(verts, verts[1:]):
        ax, ay = _as_radical(a[0]), _as_radical(a[1])
        bx, by = _as_radical(b[0]), _as_radical(b[1])
        segments.append(((ax, ay), (bx, by)))
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for idx, ((ax, ay), (bx, by)) in enumerate(segments):
        dx, dy = bx - ax, by - ay
        fdx, fdy = float(dx), float(dy)
        norm = (fdx * fdx + fdy * fdy) ** 0.5
        ux, uy = fdx / norm, fdy / norm
        if (ux, uy) < (-ux, -uy):
            ux, uy = -ux, -uy
        offset = float(dx * ay - dy * ax) / norm
        key = (round(ux, 9), round(uy, 9), round(abs(offset), 9))
        buckets[key].append(idx)
    pairs = 0
    for idxs in buckets.values():
        if len(idxs) < 2:
            continue
        for i in range(len(idxs)):
            for j in range(i + 1, len(idxs)):
                if _segments_partial_overlap(segments[idxs[i]], segments[idxs[j]]):
                    pairs += 1
    return pairs


def _segments_partial_overlap(s1, s2) -> bool:
    (a1, a2), (b1, b2) = s1[0], s1[1]
    (c1, c2), (d1, d2) = s2[0], s2[1]
    e1, e2 = b1 - a1, b2 - a2
    f1, f2 = d1 - c1, d2 - c2
    if not (e1 * f2 - e2 * f1).is_zero():
        return False
    if not (e1 * (c2 - a2) - e2 * (c1 - a1)).is_zero():
        return False
    # same line: compare parameter intervals along (e1, e2)
    t_a = a1 * e1 + a2 * e2
    t_b = b1 * e1 + b2 * e2
    t_c = c1 * e1 + c2 * e2
    t_d = d1 * e1 + d2 * e2
    lo1, hi1 = (t_a, t_b) if t_a <= t_b else (t_b, t_a)
    lo2, hi2 = (t_c, t_d) if t_c <= t_d else (t_d, t_c)
    if lo1 == lo2 and hi1 == hi2:
        return False  # coincident: reported via edge multiplicities
    lo = lo1 if lo2 <= lo1 else lo2
    hi = hi1 if hi1 <= hi2 else hi2
    return lo < hi


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
    for v in p.vertices:
        iv = _int_vertex(v)
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


def _int_vertex(v) -> tuple[int, ...] | None:
    out = []
    for c in v:
        if isinstance(c, int):
            out.append(c)
        elif isinstance(c, Radical):
            i = c.as_int()
            if i is None:
                return None
            out.append(i)
        else:
            return None
    return tuple(out)


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
