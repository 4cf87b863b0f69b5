"""Gray sequences, hyper-orthogonality, and the 3D/4D hyper-orthogonal
Hilbert constructions.

Hyper-orthogonality rests on one fact: unit steps stay inside a unit cube
exactly when the steps along each axis alternate in sign.

The Hilbert constructions are driven by perm tables: one row per sub-cube,
holding the isometry that fills it and the exit edge that leads to the
next one.  Each row's type (whether the block's entry or exit edge is
aligned with its orientation) is derived from the exit edge rather than
trusted, and a closure check verifies that consecutive blocks glue:
the exit edge of each block must be the entry edge of the next.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .perms import SignedPermutation, PermError
from .sequences import Digiset, SignedSequence, UNBOUNDED, fold
from .substitution import (
    DigitRule,
    PostTransform,
    StateAtom,
    SubstitutionSystem,
    Term,
    WholeCurveRule,
)


def gray_sequence(d: int) -> SignedSequence:
    """Signed steps of the d-bit reflected Gray code; length 2**d - 1."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return fold(range(1, d + 1))


def gray_function(d: int, n: int) -> int:
    """Signed axis of the n-th Gray-code step, computed from the code words
    themselves (an independent route to the recursive sequence)."""
    if not 1 <= n <= 2**d - 1:
        raise ValueError(f"index {n} out of range for dimension {d}")
    axis = (n & -n).bit_length()  # ruler function
    code = n ^ (n >> 1)
    turned_on = (code >> (axis - 1)) & 1
    return axis if turned_on else -axis


def gray_extended(d: int, type_: int) -> SignedSequence:
    """Gray curve with an entry and exit edge attached.

    Type 1 enters along its orientation: <d>, G(d), <-(d-1)>.
    Type 2 exits along its orientation: <d-1>, G(d), <d>.
    """
    if d < 2:
        raise ValueError("extensions need dimension >= 2")
    g = gray_sequence(d).items
    if type_ == 1:
        items = (d,) + g + (-(d - 1),)
    elif type_ == 2:
        items = (d - 1,) + g + (d,)
    else:
        raise ValueError("type must be 1 or 2")
    return SignedSequence(items, Digiset(d))


def is_hyper_orthogonal(s: SignedSequence, n: int) -> bool:
    """Every window of 2**k consecutive edges (k = 1..n) must use exactly
    k+1 distinct axes and trace vertices inside a unit cube (bounding box
    at most 1 on every axis).  One pass finds the shortest window holding
    two successive equal-sign steps on one axis, which bounds every order
    at once; the axis count slides over each window size in turn.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    items = s.items
    length = len(items)
    shortest = length + 1
    last: dict[int, int] = {}  # axis -> index of its latest step
    for i, x in enumerate(items):
        j = last.get(abs(x))
        if j is not None and items[j] == x:
            shortest = min(shortest, i - j + 1)
        last[abs(x)] = i
    axes = [abs(x) for x in items]
    for k in range(1, n + 1):
        m = 2**k
        if m > length:
            break
        if m >= shortest:
            return False
        counts = Counter(axes[:m])
        if len(counts) != k + 1:
            return False
        for old, new in zip(axes, axes[m:]):
            counts[old] -= 1
            if not counts[old]:
                del counts[old]
            counts[new] += 1
            if len(counts) != k + 1:
                return False
    return True


@dataclass(frozen=True)
class HilbertTableRow:
    perm: SignedPermutation
    exit_edge: int


@dataclass(frozen=True)
class HilbertSpec:
    """Perm tables for one hyper-orthogonal Hilbert construction.

    ``tables`` maps the two state names to their row lists.  ``d`` is the
    perm size of the rows.  Each state's entry and exit edges are the first
    and last edges of its ``gray_extended`` curve; states are stored and
    iterated without their entry edge.
    """

    entry_class: str  # "origin" | "non-origin"
    tables: dict[str, tuple[HilbertTableRow, ...]]
    normalizer_perm: SignedPermutation
    output_state: str

    @property
    def d(self) -> int:
        return next(iter(self.tables.values()))[0].perm.n

    def row_type(self, row: HilbertTableRow) -> int:
        """2 when the block's exit edge is its orientation, else 1."""
        return 1 if self.row_state(row) == TYPE1_STATE else 2

    def row_state(self, row: HilbertTableRow) -> str:
        """The state whose extension's exit edge (sigma(d) for type 2,
        -sigma(d-1) for type 1) the row's perm maps onto the row's exit edge."""
        for name in (TYPE1_STATE, TYPE2_STATE):
            if row.perm.of_digit(_extension(self.d, name)[-1]) == row.exit_edge:
                return name
        raise PermError(
            f"row {row.perm} with exit {row.exit_edge} matches neither extension type"
        )


TYPE1_STATE = "H'"
TYPE2_STATE = "H''"


@cache
def _extension(d: int, state: str) -> tuple[int, ...]:
    """The state's extended Gray curve: entry edge, G(d), exit edge."""
    return gray_extended(d, 1 if state == TYPE1_STATE else 2).items


def _rows(data) -> tuple[HilbertTableRow, ...]:
    return tuple(HilbertTableRow(SignedPermutation(p), e) for p, e in data)


HILBERT_SPECS: dict[str, HilbertSpec] = {
    "3d-origin": HilbertSpec(
        entry_class="origin",
        tables={
            TYPE1_STATE: _rows([
                ((2, 3, 1), 1), ((3, 1, 2), 2), ((3, 1, 2), -1), ((-2, -1, 3), 3),
                ((-2, -1, 3), 1), ((-3, 1, -2), -2), ((-3, 1, -2), -1), ((-3, 2, -1), -2),
            ]),
            TYPE2_STATE: _rows([
                ((3, 2, 1), 1), ((3, 1, 2), 2), ((3, 1, 2), -1), ((-2, -1, 3), 3),
                ((-2, -1, 3), 1), ((-3, 1, -2), -2), ((-3, 1, -2), -1), ((2, -3, -1), 3),
            ]),
        },
        normalizer_perm=SignedPermutation((3, 2, 1)),
        output_state=TYPE2_STATE,
    ),
    "3d-nonorigin": HilbertSpec(
        entry_class="non-origin",
        tables={
            TYPE1_STATE: _rows([
                ((-2, -1, 3), 1), ((-3, -2, 1), 2), ((-3, 2, -1), -1), ((2, -3, -1), 3),
                ((2, 3, 1), 1), ((3, 2, 1), -2), ((3, -2, -1), -1), ((3, -1, -2), -2),
            ]),
            TYPE2_STATE: _rows([
                ((-3, -1, 2), 1), ((-3, -2, 1), 2), ((-3, 2, -1), -1), ((2, -3, -1), 3),
                ((2, 3, 1), 1), ((3, 2, 1), -2), ((3, -2, -1), -1), ((-2, -1, 3), 3),
            ]),
        },
        normalizer_perm=SignedPermutation((-2, -1, 3)),
        output_state=TYPE1_STATE,
    ),
    "4d-origin": HilbertSpec(
        entry_class="origin",
        tables={
            TYPE1_STATE: _rows([
                ((3, 2, 4, 1), 1), ((3, 4, 1, 2), 2), ((4, 3, 1, 2), -1), ((4, -2, -1, 3), 3),
                ((4, -2, -1, 3), 1), ((4, -3, 1, -2), -2), ((-3, 4, 1, -2), -1), ((-3, 2, -1, 4), 4),
                ((-3, 2, -1, 4), 1), ((-3, -4, 1, 2), 2), ((-4, -3, 1, 2), -1), ((-4, -2, -1, -3), -3),
                ((-4, -2, -1, -3), 1), ((-4, 3, 1, -2), -2), ((-4, 3, 1, -2), -1), ((-4, 2, 3, -1), -3),
            ]),
            TYPE2_STATE: _rows([
                ((4, 2, 3, 1), 1), ((4, 3, 1, 2), 2), ((4, 3, 1, 2), -1), ((4, -2, -1, 3), 3),
                ((4, -2, -1, 3), 1), ((4, -3, 1, -2), -2), ((-3, 4, 1, -2), -1), ((-3, 2, -1, 4), 4),
                ((-3, 2, -1, 4), 1), ((-3, -4, 1, 2), 2), ((-4, -3, 1, 2), -1), ((-4, -2, -1, -3), -3),
                ((-4, -2, -1, -3), 1), ((-4, 3, 1, -2), -2), ((3, -4, 1, -2), -1), ((3, 2, -4, -1), 4),
            ]),
        },
        normalizer_perm=SignedPermutation((4, 2, 3, 1)),
        output_state=TYPE2_STATE,
    ),
    "4d-nonorigin": HilbertSpec(
        entry_class="non-origin",
        tables={
            TYPE1_STATE: _rows([
                ((-3, -2, -1, 4), 1), ((-3, -4, -2, 1), 2), ((-4, -3, 2, -1), -1), ((-4, 2, -3, -1), 3),
                ((-4, 2, 3, 1), 1), ((-4, 3, 2, 1), -2), ((3, -4, -2, -1), -1), ((3, -2, -4, -1), 4),
                ((3, -2, 4, 1), 1), ((3, 4, -2, 1), 2), ((4, 3, 2, -1), -1), ((4, 2, 3, -1), -3),
                ((4, 2, -3, 1), 1), ((4, -3, 2, 1), -2), ((4, -3, -2, -1), -1), ((4, -2, -1, -3), -3),
            ]),
            # row 4 is the shared middle row (-4,2,-3,-1), not the origin
            # table's (4,-2,-1,3): with the latter this state mis-tiles its
            # cube at level 2, and entry points stop following 0,1,2,5,...
            TYPE2_STATE: _rows([
                ((-4, -2, -1, 3), 1), ((-4, -3, -2, 1), 2), ((-4, -3, 2, -1), -1), ((-4, 2, -3, -1), 3),
                ((-4, 2, 3, 1), 1), ((-4, 3, 2, 1), -2), ((3, -4, -2, -1), -1), ((3, -2, -4, -1), 4),
                ((3, -2, 4, 1), 1), ((3, 4, -2, 1), 2), ((4, 3, 2, -1), -1), ((4, 2, 3, -1), -3),
                ((4, 2, -3, 1), 1), ((4, -3, 2, 1), -2), ((-3, 4, -2, -1), -1), ((-3, -2, -1, 4), 4),
            ]),
        },
        normalizer_perm=SignedPermutation((-3, -2, -1, 4)),
        output_state=TYPE1_STATE,
    ),
}


def validate_hilbert_spec(spec: HilbertSpec) -> None:
    """Closure check for a perm table.

    Verifies row counts, that the exit-edge column spells the connecting
    Gray curve and closes on the state's own exit edge, and that every
    block's exit edge equals the entry edge of the block after it.
    """
    d = spec.d
    ext = {name: _extension(d, name) for name in spec.tables}
    for name, rows in spec.tables.items():
        if len(rows) != 2**d:
            raise PermError(f"{name} table must have {2**d} rows, got {len(rows)}")
        col = tuple(r.exit_edge for r in rows)
        if col[:-1] != ext[name][1:-1]:
            raise PermError(f"{name} exit-edge column does not spell the connecting Gray curve")
        if col[-1] != ext[name][-1]:
            raise PermError(f"{name} last exit edge must be {ext[name][-1]}")
        entries = [r.perm.of_digit(_extension(d, spec.row_state(r))[0]) for r in rows]
        for i in range(len(rows) - 1):
            if rows[i].exit_edge != entries[i + 1]:
                raise PermError(
                    f"{name} blocks {i} and {i + 1} do not glue: exit {rows[i].exit_edge} vs entry {entries[i + 1]}"
                )
        if entries[0] != ext[name][0]:
            raise PermError(f"{name} entry edge is not preserved by its first block")


def hilbert_system(spec: HilbertSpec) -> SubstitutionSystem:
    """Build the two-state wholecurve system from a perm table.

    States are the extended Gray curves without their entry edge, so one
    production step is a plain concatenation of the transformed blocks.
    """
    validate_hilbert_spec(spec)
    starts = {name: _extension(spec.d, name)[1:] for name in (TYPE1_STATE, TYPE2_STATE)}
    productions = {
        name: tuple(StateAtom(spec.row_state(r), Term(r.perm)) for r in rows)
        for name, rows in spec.tables.items()
    }
    rule = WholeCurveRule(
        productions=productions,
        starts=starts,
        output_state=spec.output_state,
        normalizer=PostTransform(spec.normalizer_perm, "k+1"),
    )
    return SubstitutionSystem(
        digiset=Digiset(spec.d),
        rule=rule,
        name=f"hilbert-{spec.d}d-{spec.entry_class}",
    )


_THIRD_BITS = {Fraction(1, 3): 0, Fraction(2, 3): 1}


def entry_point(d: int, k: int, type_: int, x) -> tuple[int, ...]:
    """Lattice entry point of the level-k curve whose limit enters at
    (x, ..., x, 0) (type 1) or (x, ..., x, 0, x) (type 2), x in {1/3, 2/3}.

    The coordinate e_k follows the binary expansion of x exactly:
    e_1 is the leading bit and e_{j+1} = 2 e_j + next bit.
    """
    if d < 3:
        raise ValueError("entry points are defined for dimensions >= 3")
    if type_ not in (1, 2):
        raise ValueError("type must be 1 or 2")
    frac = Fraction(x) if not isinstance(x, Fraction) else x
    if frac not in _THIRD_BITS:
        raise ValueError("x must be 1/3 or 2/3")
    first = _THIRD_BITS[frac]
    e = first
    for j in range(1, k):
        bit = (first + j) % 2
        e = 2 * e + bit
    if type_ == 1:
        return (e,) * (d - 1) + (0,)
    return (e,) * (d - 2) + (0, e)


def gray_t1_system() -> SubstitutionSystem:
    """Uniform two-term substitution generating the Gray sequence."""
    def image(x: int):
        sgn = 1 if x > 0 else -1
        head = 1 if abs(x) == 1 else -1
        return ((head, 0), (x + sgn, 0))

    rule = DigitRule(mapping={}, default=image)
    return SubstitutionSystem(
        digiset=UNBOUNDED, rule=rule, start=((1, 0),), name="gray-t1"
    )


def gray_t2_system() -> SubstitutionSystem:
    """Non-uniform generator of the Gray sequence.

    The images of -1 and +1 are each other's path inverses rather than
    negations, so this rule is built without the negation-symmetry check.
    """
    def image(x: int):
        if abs(x) == 1:
            raise AssertionError("handled by explicit entries")
        sgn = 1 if x > 0 else -1
        return ((x + sgn, 0),)

    rule = DigitRule(
        mapping={(1, 0): ((1, 0), (2, 0), (-1, 0)), (-1, 0): ((1, 0), (-2, 0), (-1, 0))},
        default=image,
        strict_negation=False,
    )
    return SubstitutionSystem(
        digiset=UNBOUNDED, rule=rule, start=((1, 0),), name="gray-t2"
    )
