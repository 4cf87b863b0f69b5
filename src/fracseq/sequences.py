"""Signed integer sequences over digisets.

A digiset is the alphabet {-n, ..., -1, 1, ..., n} of signed direction
labels (or all nonzero integers when unbounded).  Sequences over a digiset
form a monoid under concatenation; `reverse` is the anti-morphism, and
`inverse = negate . reverse` retraces a path.  Everything here is an
immutable value: operations return new sequences and never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DigisetError(ValueError):
    """An integer is not a member of the digiset, or digisets are incompatible."""


@dataclass(frozen=True)
class Digiset:
    """Alphabet of signed integer labels.

    ``size=None`` means unbounded (all nonzero integers).  With
    ``positive_only`` the negative labels are excluded.
    """

    size: int | None
    positive_only: bool = False

    def __post_init__(self) -> None:
        if self.size is not None and self.size < 1:
            raise DigisetError(f"digiset size must be positive, got {self.size}")

    def __contains__(self, k: int) -> bool:
        if k == 0:
            return False
        if self.positive_only and k < 0:
            return False
        if self.size is not None and abs(k) > self.size:
            return False
        return True

    @property
    def unbounded(self) -> bool:
        return self.size is None

    def __str__(self) -> str:
        base = "D*" if self.size is None else f"D{self.size}"
        return "+" + base if self.positive_only else base


UNBOUNDED = Digiset(None)


@dataclass(frozen=True)
class SignedSequence:
    """Ordered list of nonzero integers validated against a digiset."""

    items: tuple[int, ...]
    digiset: Digiset = UNBOUNDED

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        # each distinct item is checked once; the scan for a position runs
        # only when one is bad
        member = self.digiset.__contains__
        if not all(map(member, set(items))):
            i, k = next((i, k) for i, k in enumerate(items) if not member(k))
            raise DigisetError(f"item {k} at position {i} not in {self.digiset}")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __str__(self) -> str:
        return "<" + ",".join(str(k) for k in self.items) + ">"


def seq(items: Iterable[int], digiset: Digiset = UNBOUNDED) -> SignedSequence:
    """Shorthand constructor."""
    return SignedSequence(tuple(items), digiset)


def concat(a: SignedSequence, b: SignedSequence) -> SignedSequence:
    """Concatenate two sequences over the same digiset.

    No cancellation ever takes place: <x> followed by <-x> stays a
    two-edge sequence (a path out and back, not a point).
    """
    if a.digiset != b.digiset:
        raise DigisetError(f"digiset mismatch: {a.digiset} vs {b.digiset}")
    return SignedSequence(a.items + b.items, a.digiset)


def reverse(s: SignedSequence) -> SignedSequence:
    """Reverse item order, keeping signs (the anti-morphism)."""
    return SignedSequence(s.items[::-1], s.digiset)


def negate(s: SignedSequence) -> SignedSequence:
    """Flip the sign of every item, keeping order."""
    return SignedSequence(tuple(-k for k in s.items), s.digiset)


def inverse(s: SignedSequence) -> SignedSequence:
    """negate(reverse(s)): traversing the result retraces the path backwards."""
    return SignedSequence(tuple(-k for k in s.items[::-1]), s.digiset)


def abs_seq(s: SignedSequence) -> SignedSequence:
    """Itemwise absolute value."""
    return SignedSequence(tuple(abs(k) for k in s.items), s.digiset)


def is_normalized(s: SignedSequence) -> bool:
    """True iff new magnitudes debut in ascending order 1, 2, 3, ... and
    each debut is positive.

    Magnitudes may be skipped; what matters is that the first occurrence
    of any magnitude is a positive item and no larger magnitude appeared
    earlier.
    """
    seen_max = 0
    seen: set[int] = set()
    for k in s.items:
        m = abs(k)
        if m not in seen:
            if k < 0 or m < seen_max:
                return False
            seen.add(m)
            seen_max = max(seen_max, m)
    return True


def _first_occurrences(items: Sequence[int]) -> list[int]:
    """Signed first occurrence of each new magnitude, in order of appearance."""
    seen: set[int] = set()
    out: list[int] = []
    for k in items:
        m = abs(k)
        if m not in seen:
            seen.add(m)
            out.append(k)
    return out


def characteristic_perm(s: SignedSequence, size: int | None = None):
    """Signed permutation renaming axes so that ``apply(perm, s)`` is normalized.

    The inverse permutation's one-line form is the list of signed first
    occurrences of each new magnitude.  When magnitudes up to ``size`` are
    missing from ``s`` the one-line form is completed with the unused
    magnitudes, positive and ascending; ``characteristic_perm_info`` reports
    whether that completion was needed.
    """
    perm, _ = characteristic_perm_info(s, size)
    return perm


def characteristic_perm_info(s: SignedSequence, size: int | None = None):
    from .perms import SignedPermutation, invert

    occ = _first_occurrences(s.items)
    if size is None:
        if s.digiset.size is not None:
            size = s.digiset.size
        else:
            size = max((abs(k) for k in s.items), default=0)
    present = {abs(k) for k in occ}
    missing = tuple(m for m in range(1, size + 1) if m not in present)
    inv_one_line = tuple(occ) + missing
    inv_perm = SignedPermutation(inv_one_line)
    return invert(inv_perm), missing


def normalize(s: SignedSequence) -> SignedSequence:
    """Apply the characteristic permutation of ``s`` to ``s``."""
    from .perms import apply

    if not s.items:
        return s
    return apply(characteristic_perm(s), s)


def minimal_normalized(s: SignedSequence) -> SignedSequence:
    """The smaller, under the catalog order, of normalize(s) and
    normalize(reverse(s))."""
    a = normalize(s)
    b = normalize(reverse(s))
    return a if compare(a, b) <= 0 else b


def _digit_key(k: int) -> tuple[int, int]:
    # positives ascending, then negatives ascending: 1 < 2 < ... < -2 < -1
    return (0, k) if k > 0 else (1, k)


def sort_key(s: SignedSequence) -> tuple[tuple[int, int], ...]:
    """Sort key realizing the catalog order on sequences."""
    return tuple(_digit_key(k) for k in s.items)


def compare(a: SignedSequence, b: SignedSequence) -> int:
    """Total order: lexicographic under digit order 1 < 2 < ... < -2 < -1.

    A proper prefix sorts before any of its extensions.  Returns -1, 0, 1.
    """
    ka, kb = sort_key(a), sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def fold(xs: Sequence[int], digiset: Digiset = UNBOUNDED) -> SignedSequence:
    """Paper-folding construction: fold(x1..xn) interleaves each new term
    between a copy of the previous result and its inverse."""
    items: tuple[int, ...] = ()
    for x in xs:
        items = items + (x,) + tuple(-k for k in items[::-1])
    return SignedSequence(items, digiset)


def parse_sequence(text: str, digiset: Digiset = UNBOUNDED) -> SignedSequence:
    """Parse a sequence literal: ``<1,2,-1>``, angle brackets optional."""
    t = text.strip()
    for open_, close in (("<", ">"), ("⟨", "⟩")):
        if t.startswith(open_) and t.endswith(close):
            t = t[len(open_):-len(close)].strip()
            break
    if not t:
        return SignedSequence((), digiset)
    try:
        items = tuple(int(tok.strip()) for tok in t.split(","))
    except ValueError as exc:
        raise ValueError(f"bad sequence literal {text!r}: {exc}") from None
    return SignedSequence(items, digiset)
