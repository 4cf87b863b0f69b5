"""Slow exact reference for the integer geometry: numbers a + b*sqrt2 +
c*sqrt3 + d*sqrt6 with rational parts (``Radical``), each grid's
generators written from its geometry, a vertex-by-vertex walk, an
all-pairs collinear-overlap count, and dependence and span of generator
sets by minors and a cofactor Gram determinant.

``fracseq.geometry`` computes all of these on integer coefficient
vectors; the tests compare the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from fracseq.geometry import _sign4

_ZERO = Fraction(0)
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

    def parts(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d)

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

    def __gt__(self, other) -> bool:
        return (self - Radical.of(other)).sign() > 0

    def as_int(self) -> int | None:
        if self.b == 0 and self.c == 0 and self.d == 0 and self.a.denominator == 1:
            return int(self.a)
        return None


def vec(*components) -> tuple[Radical, ...]:
    return tuple(Radical.of(c) for c in components)


# ------------------------------------------------------------ grid tables

_H = Fraction(1, 2)
_COS45 = Radical.sqrt2(_H)  # sqrt2 / 2
_SIN60 = Radical.sqrt3(_H)  # sqrt3 / 2
# unit steps at 0, 60 and 120 degrees
_TRIANGULAR = (vec(1, 0), (Radical.of(_H), _SIN60), (Radical.of(-_H), _SIN60))
# unit steps at 0, 45, 90 and 135 degrees
_EIGHTH_ROOTS = (vec(1, 0), (_COS45, _COS45), vec(0, 1), (-_COS45, _COS45))

GENERATORS = {
    "square": (vec(1, 0), vec(0, 1)),
    **{f"cubic-{d}d": tuple(vec(*(int(i == j) for i in range(d))) for j in range(d)) for d in range(1, 9)},
    "triangular": _TRIANGULAR,
    "honeycomb": _TRIANGULAR,
    # the axes and the two diagonals of the unit square
    "square-diagonal": (vec(1, 0), vec(1, 1), vec(0, 1), vec(-1, 1)),
    "eighth-roots": _EIGHTH_ROOTS,
    "truncated-square": _EIGHTH_ROOTS,
    # unit x, unit y, then the upper-left and lower-left diagonals
    "eighth-roots-dragon": (vec(1, 0), vec(0, 1), (-_COS45, _COS45), (-_COS45, -_COS45)),
}


def declaration(gens) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(denominator, basis, generators) that declare these exact vectors
    as a ``Grid``: the lowest common denominator, the radicands used (with
    1, closed under products) and integer coefficients axis by axis."""
    coords = [c for g in gens for c in g]
    used = {r for x in coords for r, c in zip(_RADICANDS, x.parts()) if c}
    basis = {1} | used
    # sqrt(r) * sqrt(s) = gcd(r, s) * sqrt(r * s / gcd(r, s)**2); one round closes the basis
    basis = tuple(sorted(basis | {r * s // math.gcd(r, s) ** 2 for r in basis for s in basis}))
    den = math.lcm(*(c.denominator for x in coords for c in x.parts()))
    ints = tuple(tuple(int(x.parts()[_RADICANDS.index(r)] * den) for x in g for r in basis) for g in gens)
    return den, basis, ints


def dependent(u, v) -> bool:
    """Every 2x2 minor of the pair vanishes."""
    return all((u[i] * v[j] - u[j] * v[i]).is_zero() for i in range(len(u)) for j in range(i + 1, len(u)))


def spans(gens, dim: int) -> bool:
    """The Gram matrix of the coordinate rows has a nonzero determinant."""
    rows = [tuple(g[i] for g in gens) for i in range(dim)]
    return not _det([[_dot(r, s) for s in rows] for r in rows]).is_zero()


def _dot(u, v) -> Radical:
    acc = Radical()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def _det(m) -> Radical:
    if not m:
        return Radical.of(1)
    if len(m) == 1:
        return m[0][0]
    acc = Radical()
    for col in range(len(m)):
        minor = [row[:col] + row[col + 1:] for row in m[1:]]
        acc = acc + Radical.of((-1) ** col) * m[0][col] * _det(minor)
    return acc


# ------------------------------------------------------------------ walks

def length_value(ln) -> Radical:
    """A length given as the pair (a, b) of a + b*sqrt2."""
    a, b = ln
    return Radical(Fraction(a), Fraction(b))


def reference_trace(items, name: str, lengths=None) -> list[tuple[Radical, ...]]:
    """Vertex by vertex in Radical arithmetic on the table's generators of
    grid ``name`` (each scaled step computed once)."""
    gens = GENERATORS[name]
    pos = tuple(Radical() for _ in gens[0])
    out = [pos]
    scaled = {}
    for i, k in enumerate(items):
        step = gens[abs(k) - 1] if k > 0 else tuple(-c for c in gens[abs(k) - 1])
        if lengths is not None:
            key = (k, length_value(lengths[i]))
            if key not in scaled:
                scaled[key] = tuple(c * key[1] for c in step)
            step = scaled[key]
        pos = tuple(p + c for p, c in zip(pos, step))
        out.append(pos)
    return out


def radical_vertices(p) -> list[tuple[Radical, ...]]:
    """A ``Polyline``'s integer points read back as exact coordinates."""
    k, den = len(p.basis), p.denominator
    out = []
    for v in p.points:
        coords = []
        for j in range(0, len(v), k):
            parts = dict(zip(p.basis, v[j:j + k]))
            coords.append(Radical(*(Fraction(parts.get(r, 0), den) for r in _RADICANDS)))
        out.append(tuple(coords))
    return out


def _segments_partial_overlap(s1, s2) -> bool:
    (a1, a2), (b1, b2) = s1
    (c1, c2), (d1, d2) = s2
    e1, e2 = b1 - a1, b2 - a2
    f1, f2 = d1 - c1, d2 - c2
    if not (e1 * f2 - e2 * f1).is_zero():
        return False
    if not (e1 * (c2 - a2) - e2 * (c1 - a1)).is_zero():
        return False
    # same line: compare parameter intervals along (e1, e2)
    t = [x * e1 + y * e2 for x, y in ((a1, a2), (b1, b2), (c1, c2), (d1, d2))]
    lo1, hi1 = sorted(t[:2])
    lo2, hi2 = sorted(t[2:])
    if lo1 == lo2 and hi1 == hi2:
        return False  # coincident: an edge multiplicity, not a partial overlap
    return max(lo1, lo2) < min(hi1, hi2)


def reference_partial_pairs(vertices) -> int:
    """Every pair of edges, decided in Radical arithmetic.  Floats only skip
    pairs that are far from collinear, with a tolerance well above their
    rounding error."""
    verts = [tuple(Radical.of(c) for c in v) for v in vertices]
    segs = list(zip(verts, verts[1:]))
    flo = [tuple(tuple(float(c) for c in v) for v in s) for s in segs]
    tol = 1e-9 * (1 + max(abs(c) for s in flo for v in s for c in v)) ** 2
    count = 0
    for i, ((ax, ay), (bx, by)) in enumerate(flo):
        ex, ey = bx - ax, by - ay
        for j in range(i + 1, len(segs)):
            (cx, cy), (dx, dy) = flo[j]
            if abs(ex * (dy - cy) - ey * (dx - cx)) > tol or abs(ex * (cy - ay) - ey * (cx - ax)) > tol:
                continue
            count += _segments_partial_overlap(segs[i], segs[j])
    return count
