"""The curve encyclopedia: fifteen named sequences as executable data.

Each entry bundles a substitution system (whose digiset is the entry's),
a grid and the frozen expected prefix its generator must reproduce
exactly.  Entries are listed in the total order on sequences (positives
before negatives, smaller magnitudes first), under which the Mandelbrot
island sorts immediately before the Mandelbrot flowsnake: the two share
seven leading terms and differ first at position eight (2 versus -2).

``generate_entry`` reads the entry's levels off one ``levels`` stream
until the requested prefix agrees between two successive levels, and
validates only the terms it returns.  ``verify_entry`` re-derives
everything checkable at desk scale: prefix equality, normalization, the
extending property, and the per-curve geometric claims (coverage, edge
multiplicities, closedness, hyper-orthogonality, lattice alignment,
expected partial overlaps); the prefix and every check read their levels
from one stream of the entry's system, so each level is built once.
An entry names its checks; ``_CHECKS`` binds each name's level and
parameters once, every check returns (passed, detail), and ``_run_check``
alone turns that into a ``CheckResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .geometry import (
    Grid,
    coverage_report,
    cubic_grid,
    dragon_axes_grid,
    self_avoidance_report,
    sqrt2_pow,
    square_grid,
    successor_violations,
    trace,
    truncated_square_grid,
    TRUNCATED_SQUARE_SUCCESSORS,
)
from .gray import HILBERT_SPECS, gray_t1_system, hilbert_system, is_hyper_orthogonal
from .perms import SignedPermutation, identity, power
from .sequences import Digiset, SignedSequence, is_normalized, sort_key
from .substitution import (
    ConnectorAtom,
    DigitRule,
    EdgewiseRule,
    PairRule,
    PostTransform,
    RuleError,
    StateAtom,
    SubstitutionSystem,
    Term,
    WholeCurveRule,
    extending,
    iterate_full,
    levels,
)


class CatalogError(ValueError):
    pass


IOTA2 = identity(2)
MU2 = SignedPermutation((2, -1))
TAU_Y = SignedPermutation((1, -2))
TAU_X = SignedPermutation((-1, 2))
TAU_D = SignedPermutation((2, 1))


def _terms(*specs: tuple[int, SignedPermutation]) -> tuple[Term, ...]:
    """Terms from (sign, perm) pairs."""
    return tuple(Term(p, sign=sign) for sign, p in specs)


def dekking_flowsnake_system() -> SubstitutionSystem:
    t = _terms(
        (1, IOTA2), (1, IOTA2), (1, TAU_D), (-1, TAU_Y), (1, MU2),
        (1, IOTA2), (1, TAU_D), (-1, TAU_Y), (-1, IOTA2), (1, TAU_D),
        (1, IOTA2), (1, IOTA2), (1, TAU_Y), (1, MU2), (1, TAU_Y),
        (-1, MU2), (-1, MU2), (-1, TAU_Y), (-1, MU2), (-1, TAU_D),
        (1, TAU_Y), (1, MU2), (1, IOTA2), (-1, TAU_D), (-1, TAU_D),
    )
    return SubstitutionSystem(
        digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
        name="dekking-flowsnake",
    )


def mandelbrot_flowsnake_system() -> SubstitutionSystem:
    t = _terms(
        (1, IOTA2), (1, TAU_D), (1, IOTA2), (1, TAU_D), (1, IOTA2),
        (1, TAU_D), (1, IOTA2), (-1, MU2), (1, TAU_Y), (-1, MU2),
        (1, TAU_Y), (-1, MU2), (-1, IOTA2), (-1, TAU_D), (-1, IOTA2),
        (1, MU2), (1, TAU_D), (-1, TAU_Y), (-1, MU2), (-1, TAU_Y),
        (-1, TAU_D), (1, IOTA2), (-1, TAU_D), (1, IOTA2), (-1, TAU_D),
    )
    return SubstitutionSystem(
        digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
        name="mandelbrot-flowsnake",
    )


def mandelbrot_island_system() -> SubstitutionSystem:
    t = _terms((1, IOTA2), (1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2))
    return SubstitutionSystem(
        digiset=Digiset(2), rule=EdgewiseRule(t), start=(1, 2, -1, -2),
        name="mandelbrot-island",
    )


def box4_system() -> SubstitutionSystem:
    t = (
        Term(IOTA2),
        Term(TAU_D, reverse=True, alt_sign="k"),
        Term(TAU_Y),
        Term(MU2, reverse=True, alt_sign="k+1"),
    )
    return SubstitutionSystem(
        digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,), name="box4",
    )


def box4_digit_system() -> SubstitutionSystem:
    rule = DigitRule({
        (1, 0): ((1, 0), (2, 0), (1, 1), (-2, 1)),
        (1, 1): ((1, 1), (-2, 1), (1, 0), (2, 0)),
        (2, 0): ((1, 1), (-2, 1), (-1, 0), (-2, 0)),
        (2, 1): ((-1, 0), (-2, 0), (1, 1), (-2, 1)),
    })
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule, start=((1, 0),), name="box4-digits",
    )


def arndt_peano_system() -> SubstitutionSystem:
    t = _terms(
        (1, IOTA2), (1, MU2), (1, IOTA2), (-1, MU2), (-1, IOTA2),
        (-1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2),
    )
    return SubstitutionSystem(
        digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
        name="arndt-peano",
    )


TRUNCATED_SQUARE_PAIRS = PairRule({
    (1, 2): (1, 2),
    (1, -2): (1, 4),
    (2, 1): (3, 2),
    (2, -1): (3, -4),
})


def arndt_truncated_system() -> SubstitutionSystem:
    return SubstitutionSystem(
        digiset=Digiset(4), rule=TRUNCATED_SQUARE_PAIRS,
        base=arndt_peano_system(), name="arndt-peano-truncated",
    )


V1_MU = SignedPermutation((-4, 3, -1, -2))


def v1_dragon_system() -> SubstitutionSystem:
    t = (Term(identity(4)), Term(power(V1_MU, 2), reverse=True), Term(power(V1_MU, 3)))
    return SubstitutionSystem(
        digiset=Digiset(4), rule=EdgewiseRule(t), start=(1,),
        name="v1-dragon",
    )


def v1_dragon_length_system() -> SubstitutionSystem:
    """The V1 dragon with its third block sqrt(2) longer, which gives the
    system a length stream."""
    first, second, third = v1_dragon_system().rule.terms
    t = (first, second, replace(third, scale_pow=1))
    return SubstitutionSystem(
        digiset=Digiset(4), rule=EdgewiseRule(t), start=(1,),
        name="v1-dragon-lengths",
    )


def hilbert_original_system() -> SubstitutionSystem:
    atoms = (
        StateAtom("H", Term(IOTA2)),
        ConnectorAtom(1, TAU_D, "k"),
        StateAtom("H", Term(TAU_D)),
        ConnectorAtom(2, TAU_D, "k"),
        StateAtom("H", Term(TAU_D)),
        ConnectorAtom(-1, TAU_D, "k"),
        StateAtom("H", Term(IOTA2, sign=-1)),
    )
    rule = WholeCurveRule(productions={"H": atoms}, starts={"H": (1, 2, -1)}, output_state="H")
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule,
        name="hilbert-original",
    )


def hilbert_drawing_system() -> SubstitutionSystem:
    """The classical drawing order: each level is rebuilt corner-first, so
    approximants are not prefixes of their successors."""
    atoms = (
        StateAtom("H", Term(TAU_D)),
        ConnectorAtom(1),
        StateAtom("H", Term(IOTA2)),
        ConnectorAtom(2),
        StateAtom("H", Term(IOTA2)),
        ConnectorAtom(-1),
        StateAtom("H", Term(TAU_D, sign=-1)),
    )
    rule = WholeCurveRule(productions={"H": atoms}, starts={"H": (1, 2, -1)}, output_state="H")
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule,
        name="hilbert-drawing",
    )


def hilbert_digit_system() -> SubstitutionSystem:
    rule = DigitRule({
        (1, 0): ((1, 0), (2, 0), (-1, 1), (2, 1)),
        (1, 1): ((-2, 0), (-1, 0), (2, 1), (2, 0)),
        (2, 0): ((2, 0), (1, 0), (-2, 1), (1, 1)),
        (2, 1): ((-1, 0), (-2, 0), (1, 1), (1, 0)),
    })
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule, start=((1, 0),),
        name="hilbert-digits",
    )


def beta_omega_system() -> SubstitutionSystem:
    rule = DigitRule({
        (1, 0): ((1, 0), (2, 2), (-1, 2), (-1, 1)),
        (1, 1): ((-2, 2), (-1, 0), (2, 1), (-1, 2)),
        (1, 2): ((-2, 0), (-1, 0), (2, 1), (-1, 2)),
        (2, 0): ((1, 0), (2, 2), (-1, 2), (2, 1)),
        (2, 1): ((1, 1), (2, 2), (-1, 2), (2, 1)),
        (2, 2): ((-2, 2), (-1, 0), (2, 1), (2, 0)),
    })
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule, start=((1, 0),), name="beta-omega",
    )


def beta_omega_state_system() -> SubstitutionSystem:
    """Three-state production form of the same curve; cross-checks the
    digit rule."""

    def st(state, p, sign=1):
        return StateAtom(state, Term(p, sign=sign))

    productions = {
        "beta": (st("beta", TAU_X), st("beta", MU2, -1), st("beta'", TAU_D), st("omega", MU2)),
        "beta'": (st("omega", TAU_D), st("beta", TAU_D), st("beta'", MU2, -1), st("beta'", TAU_X)),
        "omega": (st("beta", TAU_X), st("beta", MU2, -1), st("beta'", TAU_D), st("beta'", IOTA2, -1)),
    }
    rule = WholeCurveRule(
        productions=productions,
        starts={"beta": (1, 2, -1, -1), "beta'": (1, -2, -1, -2), "omega": (1, 2, -1, 2)},
        output_state="beta",
        normalizer=PostTransform(TAU_X, "k+1"),
    )
    return SubstitutionSystem(
        digiset=Digiset(2), rule=rule,
        name="beta-omega-states",
    )


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    system: SubstitutionSystem
    grid: Grid | None
    expected_prefix: tuple[int, ...]
    oeis: str | None = None
    notes: str = ""
    checks: tuple[str, ...] = ()
    length_log_prefix: tuple[int, ...] | None = None

    @property
    def digiset(self) -> Digiset:
        return self.system.digiset


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="dekking-flowsnake",
        title="Dekking's flowsnake",
        system=dekking_flowsnake_system(),
        grid=square_grid(),
        expected_prefix=(1, 1, 2, -1, 2, 1, 2, -1, -1, 2, 1, 1, 1, 2, 1, -2, -2, -1, -2, -2,
                         1, 2, 1, -2, -2, 1, 1, 2, -1, 2),
        checks=("extending",),
    ),
    CatalogEntry(
        id="mandelbrot-flowsnake",
        title="Mandelbrot's 4x3 flowsnake",
        system=mandelbrot_flowsnake_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, 1, 2, 1, 2, 1, -2, 1, -2, 1, -2, -1, -2, -1, 2, 2, -1, -2, -1,
                         -2, 1, -2, 1, -2),
        notes="published continuations beyond the first approximant are mutually "
              "inconsistent; the prefix stops at the 25 terms all listings agree on",
        checks=("extending",),
    ),
    CatalogEntry(
        id="mandelbrot-island",
        title="Mandelbrot's flowsnake island",
        system=mandelbrot_island_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, 1, 2, 1, 2, 1, 2, -1, 2, -1, 2, -1, 2, 1, 2, 1, 2, 1, 2,
                         1, 2, -1, 2, -1, 2, -1, 2, 1, 2, 1, 2, 1, 2, 1),
        notes="expansion terms derived from the reference boundary sequence, whose "
              "published term lists contradict it and each other",
        checks=("closed",),
    ),
    CatalogEntry(
        id="box4",
        title="Ventrella's Box 4",
        system=box4_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, 1, -2, 1, -2, -1, -2, 1, -2, 1, 2, 1, 2, -1, 2, 1, -2, 1, 2,
                         1, 2, -1, 2, -1, -2, -1, 2, -1, 2),
        notes="two expansion terms flip sign with the level, keeping every "
              "approximant normalized and extending",
        checks=("extending",),
    ),
    CatalogEntry(
        id="arndt-peano",
        title="Arndt's Peano curve (R9-1)",
        system=arndt_peano_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, 1, -2, -1, -2, 1, 2, 1, 2, -1, 2, 1, -2, 1, 2, -1, 2, 1, 2,
                         1, -2, -1, -2, 1, 2, 1, -2, 1, -2),
        checks=("extending", "edge-covering"),
    ),
    CatalogEntry(
        id="arndt-peano-truncated",
        title="Arndt's Peano curve on the truncated square grid",
        system=arndt_truncated_system(),
        grid=truncated_square_grid(),
        expected_prefix=(1, 2, 3, 2, 1, 4, -3, -2, -1, -2, -3, 4, 1, 2, 3, 2, 1, 2, 3, -4,
                         -1, -4, 3, 2, 1, 4, -3, 4, 1, 2, 3),
        checks=("successor-constraint", "edge-simple"),
    ),
    CatalogEntry(
        id="v1-dragon-8roots",
        title="Ventrella's V1 dragon on the eighth-roots grid",
        system=v1_dragon_system(),
        grid=dragon_axes_grid(),
        expected_prefix=(1, 2, 3, 4, -1, 2, 3, 4, -2, 1, -3, 4, -1, -2, -3, 4, -1, 2, 3, 4,
                         -2, 1, -3, 4, -2, 1, -4, 3),
        notes="unit edges on a dense direction set: higher approximants overlap "
              "themselves partially, which the geometry report detects",
        checks=("extending", "partial-overlap-expected"),
    ),
    CatalogEntry(
        id="v1-dragon-sqdiag",
        title="Ventrella's V1 dragon on the square-diagonal grid",
        system=v1_dragon_length_system(),
        grid=dragon_axes_grid(),
        expected_prefix=(1, 2, 3, 4, -1, 2, 3, 4, -2, 1, -3, 4, -1, -2, -3, 4, -1, 2, 3, 4,
                         -2, 1, -3, 4, -2, 1, -4, 3),
        oeis="A062756",
        notes="edge lengths follow their own substitution; the base-sqrt2 logarithm "
              "of the length stream doubles the ternary-ones count sequence",
        checks=("extending", "lattice-vertices", "length-log-oracle"),
        length_log_prefix=(0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1,
                           2, 2, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 2, 2),
    ),
    CatalogEntry(
        id="hilbert-original",
        title="Hilbert's curve, normalized and extending",
        system=hilbert_original_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, -1, 2, 2, 1, -2, 1, 2, 1, -2, -2, -1, -2, 1, 1, 2, 1, -2, 1,
                         1, 2, -1, 2, 1, 2, -1, -1, -2, -1),
        checks=("extending", "vertex-covering"),
    ),
    CatalogEntry(
        id="hilbert-3d-origin",
        title="3D hyper-orthogonal Hilbert curve, origin entry",
        system=hilbert_system(HILBERT_SPECS["3d-origin"]),
        grid=cubic_grid(3),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 3, 1, 3, -1, 2, 1, -3, -1, 2, 1, 3, -1, 2,
                         1, -3, -1, -3, -2),
        checks=("extending", "hyper-orthogonal:1", "cube-covering"),
    ),
    CatalogEntry(
        id="hilbert-4d-origin",
        title="4D hyper-orthogonal Hilbert curve, origin entry",
        system=hilbert_system(HILBERT_SPECS["4d-origin"]),
        grid=cubic_grid(4),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 4, 1, 3, -1, 4,
                         1, -3, -1, 2, 1, 3, -1, -4, 1),
        notes="published listings of this sequence disagree; the prefix is the one "
              "the perm-table construction produces",
        checks=("extending", "hyper-orthogonal:2", "cube-covering"),
    ),
    CatalogEntry(
        id="gray",
        title="Gray curve",
        system=gray_t1_system(),
        grid=None,
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 5, 1, 2, -1, 3,
                         1, -2, -1, -4, 1, 2, -1, -3, 1),
        oeis="A164677",
        checks=("extending", "hamiltonian-cube", "gray-hyper-orthogonal"),
    ),
    CatalogEntry(
        id="hilbert-4d-nonorigin",
        title="4D hyper-orthogonal Hilbert curve, non-origin entry",
        system=hilbert_system(HILBERT_SPECS["4d-nonorigin"]),
        grid=cubic_grid(4),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, -3, 1, -4, -1, 2,
                         1, 4, -1, -3, 1, -4, -1),
        checks=("extending", "hyper-orthogonal:2", "cube-covering"),
    ),
    CatalogEntry(
        id="hilbert-3d-nonorigin",
        title="3D hyper-orthogonal Hilbert curve, non-origin entry",
        system=hilbert_system(HILBERT_SPECS["3d-nonorigin"]),
        grid=cubic_grid(3),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, -2, -3, 1, 3, -2, -3, -1, 3, -1, -3, -1, 3, 2,
                         -3, 1, 3, 2, -1, -3, 1),
        notes="one published listing diverges from the constructed sequence at "
              "position nine; the prefix follows the construction",
        checks=("extending", "hyper-orthogonal:1", "cube-covering"),
    ),
    CatalogEntry(
        id="beta-omega",
        title="beta-Omega curve",
        system=beta_omega_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, -1, -1, -2, -1, 2, 2, 2, 1, -2, 1, 2, 1, -2, 1, 2, 1, -2, -2,
                         -1, -2, 1, 1, 1, 2, -1, 2, 1, 2),
        notes="six-token digit rule; the three-state production form generates the "
              "same curve and is cross-checked against it",
        checks=("extending", "vertex-covering-sans-exit"),
    ),
)

_BY_ID = {e.id: e for e in _ENTRIES}


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def catalog_list() -> tuple[CatalogEntry, ...]:
    """All entries, sorted by the sequence order on their expected prefixes.

    The two dragon entries share one digit sequence (they differ in grid and
    length stream only); the id breaks that single tie.
    """
    return tuple(sorted(_ENTRIES, key=lambda e: (sort_key(SignedSequence(e.expected_prefix)), e.id)))


def get_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in _BY_ID:
        raise CatalogError(f"unknown catalog id {entry_id!r}; try one of {sorted(_BY_ID)}")
    return _BY_ID[entry_id]


GENERATION_CAP = 10**6


class _Levels:
    """One system's level stream, each level built once, on first use, and
    kept for every later reader."""

    def __init__(self, system: SubstitutionSystem):
        self._stream = levels(system)
        self._built: list[tuple] = []
        self._digiset = system.digiset

    def raw(self, k: int) -> tuple:
        """Level k as the stream's (digits, length exponents) tuple."""
        while len(self._built) <= k:
            self._built.append(next(self._stream))
        return self._built[k]

    def seq(self, k: int, end: int | None = None) -> SignedSequence:
        """Level k's digits up to ``end`` (-1 drops the exit edge)."""
        return SignedSequence(self.raw(k)[0][:end], self._digiset)


def generate_entry(entry_id: str, count: int, memo: _Levels | None = None):
    """First ``count`` terms of the entry's sequence, choosing the iteration
    depth automatically.  Returns (sequence, length_exponents | None).

    ``memo`` is a level stream of the entry's system already open, such as
    the one ``verify_entry`` shares with its checks; by default a new one."""
    entry = get_entry(entry_id)
    if count < 0:
        raise CatalogError("count must be nonnegative")
    if count > GENERATION_CAP:
        raise CatalogError(f"count {count} exceeds cap {GENERATION_CAP}")
    items, exps = _stable_prefix(entry, count, memo or _Levels(entry.system))
    return SignedSequence(items[:count], entry.digiset), (exps[:count] if exps is not None else None)


def _stable_prefix(entry: CatalogEntry, count: int, memo: _Levels):
    """Read levels until the first ``count`` items agree between two
    successive ones; handles the one catalog curve that is not extending.

    A level a pairlift cannot lift (a one-edge base has no pair context) is
    skipped.  Any other failure, such as a level over the item cap, ends
    the search at once."""
    prev = None
    for k in range(64):
        try:
            cur = memo.raw(k)
        except RuleError as exc:
            raise CatalogError(f"{entry.id}: {exc}") from None
        if cur[0] is None:
            continue
        if prev is not None and len(prev[0]) >= count and prev[0][:count] == cur[0][:count]:
            return prev
        prev = cur
    raise CatalogError(f"prefix of {count} terms did not stabilize")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class EntryReport:
    entry_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_entry(entry_id: str) -> EntryReport:
    """Run every declared check for one entry; failures land in the report,
    not in an exception.  The prefix and every check read their levels
    from one stream of the entry's system."""
    entry = get_entry(entry_id)
    memo = _Levels(entry.system)
    got, _ = generate_entry(entry.id, len(entry.expected_prefix), memo)
    results = [_check_prefix(entry, got), _check_normalized(got)]
    for name in entry.checks:
        results.append(_run_check(entry, name, memo))
    return EntryReport(entry_id=entry_id, checks=tuple(results))


def _check_prefix(entry: CatalogEntry, got: SignedSequence) -> CheckResult:
    want = entry.expected_prefix
    ok = got.items == want
    detail = "" if ok else f"first difference at {next(i for i, (a, b) in enumerate(zip(got.items, want)) if a != b)}"
    return CheckResult("prefix", ok, detail)


def _check_normalized(got: SignedSequence) -> CheckResult:
    return CheckResult("normalized", is_normalized(got))


def _run_check(entry: CatalogEntry, name: str, memo: _Levels) -> CheckResult:
    """The one place a declared check becomes a ``CheckResult``."""
    fn = _CHECKS.get(name)
    if fn is None:
        return CheckResult(name, False, "unknown check")
    passed, detail = fn(entry, memo)
    return CheckResult(name, passed, detail)


def _check_extending(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    return extending(memo.raw(k)[0] for k in range(level + 1)), ""


def _check_closed(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    for k in range(level + 1):
        if not trace(memo.seq(k), entry.grid).closed:
            return False, f"open at level {k}"
    return True, ""


def _check_box_covering(entry: CatalogEntry, memo: _Levels, level: int, drop_exit: bool) -> tuple[bool, str]:
    """The level's vertices, less the exit edge (the connector out of the
    box) when ``drop_exit``, fill a box of side 2**(level + start level)
    once each."""
    p = trace(memo.seq(level, -1 if drop_exit else None), entry.grid)
    lo = tuple(min(v[i] for v in p.vertices) for i in range(p.dim))
    hi = tuple(max(v[i] for v in p.vertices) for i in range(p.dim))
    side = 2 ** (level + entry.system.start_level)
    rep = coverage_report(p, lo, hi)
    box_ok = all(h - l + 1 == side for l, h in zip(lo, hi))
    return rep.each_exactly_once and box_ok, f"box {lo}..{hi}, visited {rep.visited}/{rep.total}"


def _check_hamiltonian_cube(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    """The level less its exit edge, the steps of the reflected Gray code
    on ``level`` bits, visits each vertex of the box {0,1}^level once and
    nothing else."""
    p = trace(memo.seq(level, -1), cubic_grid(level))
    rep = coverage_report(p, (0,) * level, (1,) * level)
    return rep.each_exactly_once and len(p.vertices) == rep.total, ""


def _check_edge_covering(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    # no doubled edge and no vertex visited 3+ times: a vertex with four
    # distinct incident edges is then visited exactly twice
    ok = self_avoidance_report(trace(memo.seq(level), entry.grid)).edge_covering
    return ok, "" if ok else "an edge is doubled or a vertex seen 3+ times"


def _check_edge_simple(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    rep = self_avoidance_report(trace(memo.seq(level), entry.grid))
    return rep.max_edge_multiplicity <= 1, (
        f"max edge multiplicity {rep.max_edge_multiplicity}, "
        f"partial overlap pairs {rep.partial_overlap_pairs}")


def _check_successor_constraint(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    bad = successor_violations(memo.seq(level), TRUNCATED_SQUARE_SUCCESSORS)
    return not bad, "" if not bad else f"first violation {bad[0]}"


def _check_partial_overlap_expected(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    rep = self_avoidance_report(trace(memo.seq(level), entry.grid))
    return rep.has_overlap and rep.partial_overlap_pairs > 0, f"partial overlap pairs: {rep.partial_overlap_pairs}"


def _check_lattice_vertices(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    lengths = [sqrt2_pow(e) for e in memo.raw(level)[1]]
    p = trace(memo.seq(level), entry.grid, lengths)
    off = next((i for i, v in enumerate(p.lattice_points()) if v is None), None)
    return off is None, "" if off is None else f"vertex {off} has a non-integer coordinate"


def ternary_ones(n: int) -> int:
    """Count of 1 digits in the base-3 expansion of n."""
    c = 0
    while n:
        n, r = divmod(n, 3)
        c += r == 1
    return c


def _check_length_log_oracle(entry: CatalogEntry, memo: _Levels, level: int) -> tuple[bool, str]:
    exps = memo.raw(level)[1]
    ok = list(exps) == [ternary_ones(i // 2) for i in range(len(exps))]
    if ok and entry.length_log_prefix is not None:
        ok = tuple(exps[: len(entry.length_log_prefix)]) == entry.length_log_prefix
    return ok, ""


def _check_hyper_orthogonal(entry: CatalogEntry, memo: _Levels, level: int, order: int,
                            drop_exit: bool = False) -> tuple[bool, str]:
    return is_hyper_orthogonal(memo.seq(level, -1 if drop_exit else None), order), ""


_CHECKS = {
    "extending": partial(_check_extending, level=3),
    "closed": partial(_check_closed, level=3),
    "vertex-covering": partial(_check_box_covering, level=3, drop_exit=False),
    "vertex-covering-sans-exit": partial(_check_box_covering, level=3, drop_exit=True),
    "edge-covering": partial(_check_edge_covering, level=2),
    "edge-simple": partial(_check_edge_simple, level=2),
    "successor-constraint": partial(_check_successor_constraint, level=2),
    "partial-overlap-expected": partial(_check_partial_overlap_expected, level=4),
    "lattice-vertices": partial(_check_lattice_vertices, level=5),
    "length-log-oracle": partial(_check_length_log_oracle, level=6),
    # 3D curves at level 3, 4D curves at level 2: windows up to 2**order
    "hyper-orthogonal:1": partial(_check_hyper_orthogonal, level=3, order=1),
    "hyper-orthogonal:2": partial(_check_hyper_orthogonal, level=2, order=2),
    "cube-covering": partial(_check_box_covering, level=2, drop_exit=True),
    "hamiltonian-cube": partial(_check_hamiltonian_cube, level=6),
    # level 6 less its exit edge is the 6-bit Gray code, hyper-orthogonal to order 5
    "gray-hyper-orthogonal": partial(_check_hyper_orthogonal, level=6, order=5, drop_exit=True),
}


# streams that are an entry's base-sqrt2 length logarithms, not its digits
_LENGTH_STREAMS = {"v1-dragon-lengths": "v1-dragon-sqdiag"}


def stream_ids() -> tuple[str, ...]:
    """Every exportable stream: each entry's digits, plus the dragon's
    length logarithms."""
    return tuple(e.id for e in catalog_list()) + tuple(_LENGTH_STREAMS)


def stream_values(stream_id: str, count: int, level: int | None = None):
    """A stream's first ``count`` terms or, given ``level``, all of that
    level, as (values, length exponents beside them or None).  A length
    stream's values are its entry's length exponents."""
    source = _LENGTH_STREAMS.get(stream_id, stream_id)
    if level is None:
        seq, exps = generate_entry(source, count)
    else:
        seq, exps = iterate_full(get_entry(source).system, level)
    return (exps, None) if source != stream_id else (seq.items, exps)


def export_bfile(stream_id: str, count: int) -> bytes:
    """The first ``count`` terms of a stream as a b-file."""
    return format_bfile(stream_values(stream_id, count)[0])


def format_bfile(values) -> bytes:
    """OEIS interchange format: ``n value`` per line, n from 1."""
    return "".join(f"{n} {v}\n" for n, v in enumerate(values, start=1)).encode("ascii")


def parse_bfile(data: bytes) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for raw in data.decode("ascii").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        n_str, v_str = line.split()
        out.append((int(n_str), int(v_str)))
    for i, (n, _) in enumerate(out, start=1):
        if n != i:
            raise CatalogError(f"b-file indices must be contiguous from 1, got {n} at row {i}")
    return out
