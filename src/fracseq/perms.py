"""Signed permutations: length-preserving morphisms on sequences and
candidate grid isometries.

One-line notation [s(1), ..., s(n)] determines the map completely since
s(-k) = -s(k).  Composition follows function order: (a . b)(k) applies b
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add

from .sequences import SignedSequence


class PermError(ValueError):
    pass


@dataclass(frozen=True)
class SignedPermutation:
    """One-line image vector [s(1), ..., s(n)] of signed integers."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        seen: set[int] = set()
        for v in self.images:
            m = abs(v)
            if m == 0 or m > n:
                raise PermError(f"{list(self.images)} is not a signed permutation: image {v} out of range 1..{n}")
            if m in seen:
                raise PermError(f"{list(self.images)} is not a signed permutation: magnitude {m} appears twice")
            seen.add(m)

    @property
    def n(self) -> int:
        return len(self.images)

    @cached_property
    def _table(self) -> dict[int, int]:
        """Each signed digit k in ±1..n to its image, built on first use."""
        table = dict(enumerate(self.images, start=1))
        table.update({-k: -v for k, v in table.items()})
        return table

    def of_digit(self, k: int) -> int:
        """Image of the signed digit k."""
        try:
            return self._table[k]
        except KeyError:
            raise PermError(f"digit {k} outside dimension {self.n}") from None

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def apply(p: SignedPermutation, s: SignedSequence) -> SignedSequence:
    """Itemwise x -> sign(x) * p(|x|); length preserved."""
    return SignedSequence(apply_items(p, s.items), s.digiset)


def apply_items(p: SignedPermutation, items: tuple[int, ...]) -> tuple[int, ...]:
    """p applied to each digit; 0 and digits beyond ±n raise, naming the first."""
    try:
        return tuple(map(p._table.__getitem__, items))
    except KeyError as exc:
        raise PermError(f"digit {exc.args[0]} outside dimension {p.n}") from None


def compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """(a . b)(k) = sign(b(k)) * a(|b(k)|): b acts first."""
    if a.n != b.n:
        raise PermError(f"dimension mismatch: {a.n} vs {b.n}")
    return SignedPermutation(apply_items(a, b.images))


def invert(p: SignedPermutation) -> SignedPermutation:
    out = [0] * p.n
    for k, v in enumerate(p.images, start=1):
        out[abs(v) - 1] = k if v > 0 else -k
    return SignedPermutation(tuple(out))


def power(p: SignedPermutation, e: int) -> SignedPermutation:
    if e < 0:
        return power(invert(p), -e)
    acc = identity(p.n)
    for _ in range(e):
        acc = compose(p, acc)
    return acc


def parity(p: SignedPermutation) -> int:
    """+1 for rotations, -1 for rotation-reflections.

    Counts negative images plus magnitude inversions; equals the
    determinant of the matrix form.
    """
    neg = sum(1 for v in p.images if v < 0)
    mags = [abs(v) for v in p.images]
    inv = sum(1 for i in range(len(mags)) for j in range(i + 1, len(mags)) if mags[i] > mags[j])
    return -1 if (neg + inv) % 2 else 1


@dataclass(frozen=True)
class PermMatrix:
    """Signed binary matrix: one nonzero entry (+-1) per row and column."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for r in self.rows:
            if len(r) != n:
                raise PermError("matrix is not square")
        for i in range(n):
            if sum(1 for v in self.rows[i] if v != 0) != 1:
                raise PermError(f"row {i} must have exactly one nonzero entry")
            if sum(1 for r in self.rows if r[i] != 0) != 1:
                raise PermError(f"column {i} must have exactly one nonzero entry")
            if any(v not in (-1, 0, 1) for v in self.rows[i]):
                raise PermError("entries must be -1, 0 or +1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def determinant(self) -> int:
        return int(_det_fraction_free([list(r) for r in self.rows]))


def _det_fraction_free(m: list[list[int]]) -> int:
    """Bareiss fraction free elimination; exact for integer matrices."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def to_matrix(p: SignedPermutation) -> PermMatrix:
    """Column k holds sign(p(k)) at row |p(k)|."""
    n = p.n
    rows = [[0] * n for _ in range(n)]
    for k, v in enumerate(p.images, start=1):
        rows[abs(v) - 1][k - 1] = 1 if v > 0 else -1
    return PermMatrix(tuple(tuple(r) for r in rows))


def from_matrix(m: PermMatrix) -> SignedPermutation:
    n = m.n
    images = [0] * n
    for col in range(n):
        for row in range(n):
            v = m.rows[row][col]
            if v != 0:
                images[col] = (row + 1) * v
    return SignedPermutation(tuple(images))


_NAMED_2D = {
    "tau_x": (-1, 2),
    "tau_y": (1, -2),
    "tau_d": (2, 1),
    "tau_-d": (-2, -1),
}


def named_perm(name: str, n: int, positive_only: bool = False) -> SignedPermutation:
    """Well-known transformations: identity, negation, the minimal rotation
    mu = [2,...,n,-1], and the four 2D reflections."""
    if name in ("identity", "iota"):
        return identity(n)
    if name in ("mu", "minimal_rotation"):
        # positive-only alphabets have no signs to flip, so mu wraps to +1
        return SignedPermutation(tuple(range(2, n + 1)) + (1 if positive_only else -1,))
    if positive_only:
        raise PermError(f"{name} needs signed digits")
    if name in ("negation", "-iota"):
        return SignedPermutation(tuple(-k for k in range(1, n + 1)))
    if name in _NAMED_2D:
        if n != 2:
            raise PermError(f"{name} is a 2D reflection, got dimension {n}")
        return SignedPermutation(_NAMED_2D[name])
    raise PermError(f"unknown perm name {name!r}")


GROUP_CAP = 10**6


def generate_group(gens) -> frozenset[SignedPermutation]:
    """Closure of the generators under composition and inversion.

    Breadth-first over one-line vectors, so enumeration order is
    deterministic.  Raises if the closure exceeds ``GROUP_CAP`` elements.
    """
    gens = list(gens)
    if not gens:
        return frozenset()
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise PermError(f"dimension mismatch in generators: {g.n} vs {n}")
    gens = gens + [invert(g) for g in gens]
    seen: dict[tuple[int, ...], SignedPermutation] = {}
    ident = identity(n)
    frontier = [ident]
    seen[ident.images] = ident
    while frontier:
        nxt: list[SignedPermutation] = []
        for h in sorted(frontier, key=lambda q: q.images):
            for g in gens:
                q = compose(g, h)
                if q.images not in seen:
                    if len(seen) >= GROUP_CAP:
                        raise PermError(f"group closure exceeded {GROUP_CAP} elements")
                    seen[q.images] = q
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen.values())


def is_grid_isometry(p: SignedPermutation, grid) -> bool:
    """True iff relabeling the grid generators by ``p`` preserves the Gram
    matrix (all generator lengths and pairwise angles).

    Each Gram entry is exact: integer coefficients over the grid's basis,
    summed from ``grid.ring`` products axis by axis.
    """
    n = grid.n
    if p.n != n:
        raise PermError(f"perm dimension {p.n} does not match grid with {n} generators")
    ring = grid.ring
    k = ring.k

    def dot(i: int, j: int) -> list[int]:
        u, v = grid.direction(i), grid.direction(j)
        acc = [0] * k
        for t in range(0, len(u), k):
            acc = list(map(add, acc, ring.mul(u[t:t + k], v[t:t + k])))
        return acc

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if dot(i, j) != dot(p.of_digit(i), p.of_digit(j)):
                return False
    return True


def parse_perm(text: str) -> SignedPermutation:
    """Parse a one-line literal like ``[2,-1]``.

    Rejects non-bijections with a message naming the duplicated magnitude.
    """
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise PermError(f"perm literal must be bracketed: {text!r}")
    body = t[1:-1].strip()
    if not body:
        raise PermError("empty perm literal")
    try:
        images = tuple(int(tok.strip()) for tok in body.split(","))
    except ValueError as exc:
        raise PermError(f"bad perm literal {text!r}: {exc}") from None
    return SignedPermutation(images)
