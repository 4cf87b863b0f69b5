"""The curve encyclopedia: fifteen named sequences as executable data.

Each entry bundles a digiset, a substitution system, a grid and the
frozen expected prefix its generator must reproduce exactly.  Entries are
listed in the total order on sequences (positives before negatives,
smaller magnitudes first), under which the Mandelbrot island sorts
immediately before the Mandelbrot flowsnake: the two share seven leading
terms and differ first at position eight (2 versus -2).

``verify_entry`` re-derives everything checkable at desk scale: prefix
equality, normalization, the extending property, and the per-curve
geometric claims (coverage, edge multiplicities, closedness,
hyper-orthogonality, lattice alignment, expected partial overlaps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .geometry import (
    Grid,
    Polyline,
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
from .sequences import Digiset, SignedSequence, UNBOUNDED, is_normalized, sort_key
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
    check_extending,
    iterate,
    iterate_full,
)


class CatalogError(ValueError):
    pass


IOTA2 = identity(2)
MU2 = SignedPermutation((2, -1))
TAU_Y = SignedPermutation((1, -2))
TAU_X = SignedPermutation((-1, 2))
TAU_D = SignedPermutation((2, 1))


def _terms(*specs) -> tuple[Term, ...]:
    """specs: (sign, perm) or (sign, perm, reverse) or Term."""
    out = []
    for s in specs:
        if isinstance(s, Term):
            out.append(s)
        else:
            sign, p = s[0], s[1]
            rev = s[2] if len(s) > 2 else False
            out.append(Term(p, sign=sign, reverse=rev))
    return tuple(out)


def dekking_flowsnake_system() -> SubstitutionSystem:
    t = _terms(
        (1, IOTA2), (1, IOTA2), (1, TAU_D), (-1, TAU_Y), (1, MU2),
        (1, IOTA2), (1, TAU_D), (-1, TAU_Y), (-1, IOTA2), (1, TAU_D),
        (1, IOTA2), (1, IOTA2), (1, TAU_Y), (1, MU2), (1, TAU_Y),
        (-1, MU2), (-1, MU2), (-1, TAU_Y), (-1, MU2), (-1, TAU_D),
        (1, TAU_Y), (1, MU2), (1, IOTA2), (-1, TAU_D), (-1, TAU_D),
    )
    return SubstitutionSystem(
        kind="edgewise", digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
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
        kind="edgewise", digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
        name="mandelbrot-flowsnake",
    )


def mandelbrot_island_system() -> SubstitutionSystem:
    t = _terms((1, IOTA2), (1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2))
    return SubstitutionSystem(
        kind="edgewise", digiset=Digiset(2), rule=EdgewiseRule(t), start=(1, 2, -1, -2),
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
        kind="edgewise", digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,), name="box4",
    )


def box4_digit_system() -> SubstitutionSystem:
    rule = DigitRule({
        (1, 0): ((1, 0), (2, 0), (1, 1), (-2, 1)),
        (1, 1): ((1, 1), (-2, 1), (1, 0), (2, 0)),
        (2, 0): ((1, 1), (-2, 1), (-1, 0), (-2, 0)),
        (2, 1): ((-1, 0), (-2, 0), (1, 1), (-2, 1)),
    })
    return SubstitutionSystem(
        kind="digitwise", digiset=Digiset(2), rule=rule, start=((1, 0),), name="box4-digits",
    )


def arndt_peano_system() -> SubstitutionSystem:
    t = _terms(
        (1, IOTA2), (1, MU2), (1, IOTA2), (-1, MU2), (-1, IOTA2),
        (-1, MU2), (1, IOTA2), (1, MU2), (1, IOTA2),
    )
    return SubstitutionSystem(
        kind="edgewise", digiset=Digiset(2), rule=EdgewiseRule(t), start=(1,),
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
        kind="pairlift", digiset=Digiset(4), rule=TRUNCATED_SQUARE_PAIRS,
        base=arndt_peano_system(), name="arndt-peano-truncated",
    )


V1_MU = SignedPermutation((-4, 3, -1, -2))


def v1_dragon_system() -> SubstitutionSystem:
    t = (Term(identity(4)), Term(power(V1_MU, 2), reverse=True), Term(power(V1_MU, 3)))
    return SubstitutionSystem(
        kind="edgewise", digiset=Digiset(4), rule=EdgewiseRule(t), start=(1,),
        name="v1-dragon",
    )


def v1_dragon_length_system() -> SubstitutionSystem:
    """The V1 dragon with its third block sqrt(2) longer, which gives the
    system a length stream."""
    first, second, third = v1_dragon_system().rule.terms
    t = (first, second, replace(third, scale_pow=1))
    return SubstitutionSystem(
        kind="edgewise", digiset=Digiset(4), rule=EdgewiseRule(t), start=(1,),
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
        kind="wholecurve", digiset=Digiset(2), rule=rule, start_level=1,
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
        kind="wholecurve", digiset=Digiset(2), rule=rule, start_level=1,
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
        kind="digitwise", digiset=Digiset(2), rule=rule, start=((1, 0),),
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
        kind="digitwise", digiset=Digiset(2), rule=rule, start=((1, 0),), name="beta-omega",
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
        kind="wholecurve", digiset=Digiset(2), rule=rule, start_level=1,
        name="beta-omega-states",
    )


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    digiset: Digiset
    system: SubstitutionSystem
    grid: Grid | None
    expected_prefix: tuple[int, ...]
    oeis: str | None = None
    notes: str = ""
    checks: tuple[str, ...] = ()
    length_log_prefix: tuple[int, ...] | None = None


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="dekking-flowsnake",
        title="Dekking's flowsnake",
        digiset=Digiset(2),
        system=dekking_flowsnake_system(),
        grid=square_grid(),
        expected_prefix=(1, 1, 2, -1, 2, 1, 2, -1, -1, 2, 1, 1, 1, 2, 1, -2, -2, -1, -2, -2,
                         1, 2, 1, -2, -2, 1, 1, 2, -1, 2),
        checks=("extending",),
    ),
    CatalogEntry(
        id="mandelbrot-flowsnake",
        title="Mandelbrot's 4x3 flowsnake",
        digiset=Digiset(2),
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
        digiset=Digiset(2),
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
        digiset=Digiset(2),
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
        digiset=Digiset(2),
        system=arndt_peano_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, 1, -2, -1, -2, 1, 2, 1, 2, -1, 2, 1, -2, 1, 2, -1, 2, 1, 2,
                         1, -2, -1, -2, 1, 2, 1, -2, 1, -2),
        checks=("extending", "edge-covering"),
    ),
    CatalogEntry(
        id="arndt-peano-truncated",
        title="Arndt's Peano curve on the truncated square grid",
        digiset=Digiset(4),
        system=arndt_truncated_system(),
        grid=truncated_square_grid(),
        expected_prefix=(1, 2, 3, 2, 1, 4, -3, -2, -1, -2, -3, 4, 1, 2, 3, 2, 1, 2, 3, -4,
                         -1, -4, 3, 2, 1, 4, -3, 4, 1, 2, 3),
        checks=("successor-constraint", "edge-simple"),
    ),
    CatalogEntry(
        id="v1-dragon-8roots",
        title="Ventrella's V1 dragon on the eighth-roots grid",
        digiset=Digiset(4),
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
        digiset=Digiset(4),
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
        digiset=Digiset(2),
        system=hilbert_original_system(),
        grid=square_grid(),
        expected_prefix=(1, 2, -1, 2, 2, 1, -2, 1, 2, 1, -2, -2, -1, -2, 1, 1, 2, 1, -2, 1,
                         1, 2, -1, 2, 1, 2, -1, -1, -2, -1),
        checks=("extending", "vertex-covering"),
    ),
    CatalogEntry(
        id="hilbert-3d-origin",
        title="3D hyper-orthogonal Hilbert curve, origin entry",
        digiset=Digiset(3),
        system=hilbert_system(HILBERT_SPECS["3d-origin"]),
        grid=cubic_grid(3),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 3, 1, 3, -1, 2, 1, -3, -1, 2, 1, 3, -1, 2,
                         1, -3, -1, -3, -2),
        checks=("extending", "hyper-orthogonal:1", "cube-covering"),
    ),
    CatalogEntry(
        id="hilbert-4d-origin",
        title="4D hyper-orthogonal Hilbert curve, origin entry",
        digiset=Digiset(4),
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
        digiset=UNBOUNDED,
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
        digiset=Digiset(4),
        system=hilbert_system(HILBERT_SPECS["4d-nonorigin"]),
        grid=cubic_grid(4),
        expected_prefix=(1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, -3, 1, -4, -1, 2,
                         1, 4, -1, -3, 1, -4, -1),
        checks=("extending", "hyper-orthogonal:2", "cube-covering"),
    ),
    CatalogEntry(
        id="hilbert-3d-nonorigin",
        title="3D hyper-orthogonal Hilbert curve, non-origin entry",
        digiset=Digiset(3),
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
        digiset=Digiset(2),
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


def generate_entry(entry_id: str, count: int):
    """First ``count`` terms of the entry's sequence, choosing the iteration
    depth automatically.  Returns (sequence, length_exponents | None)."""
    entry = get_entry(entry_id)
    if count < 0:
        raise CatalogError("count must be nonnegative")
    if count > GENERATION_CAP:
        raise CatalogError(f"count {count} exceeds cap {GENERATION_CAP}")
    seq, exps = _stable_prefix(entry, count)
    return SignedSequence(seq[:count], entry.digiset), (exps[:count] if exps is not None else None)


def _stable_prefix(entry: CatalogEntry, count: int):
    """Iterate until the first ``count`` items agree between two successive
    levels; handles the one catalog curve that is not extending.

    A pairlift cannot read out a one-edge base (no pair context), so its
    level 0 is skipped then.  Any other failure, such as a level over the
    item cap, ends the search at once."""
    system = entry.system
    first = 1 if system.kind == "pairlift" and len(iterate(system.base, 0)) < 2 else 0
    prev = prev_exps = None
    for k in range(first, 64):
        try:
            cur, cur_exps = iterate_full(system, k)
        except RuleError as exc:
            raise CatalogError(f"{entry.id}: {exc}") from None
        if prev is not None and len(prev) >= count and prev.items[:count] == cur.items[:count]:
            return prev.items, prev_exps
        prev, prev_exps = cur, cur_exps
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
    not in an exception."""
    entry = get_entry(entry_id)
    got, _ = generate_entry(entry.id, len(entry.expected_prefix))
    results = [_check_prefix(entry, got), _check_normalized(got)]
    for name in entry.checks:
        results.append(_run_check(entry, name))
    return EntryReport(entry_id=entry_id, checks=tuple(results))


def _check_prefix(entry: CatalogEntry, got: SignedSequence) -> CheckResult:
    want = entry.expected_prefix
    ok = got.items == want
    detail = "" if ok else f"first difference at {next(i for i, (a, b) in enumerate(zip(got.items, want)) if a != b)}"
    return CheckResult("prefix", ok, detail)


def _check_normalized(got: SignedSequence) -> CheckResult:
    return CheckResult("normalized", is_normalized(got))


def _run_check(entry: CatalogEntry, name: str) -> CheckResult:
    try:
        fn = _CHECKS[name.split(":")[0]]
    except KeyError:
        return CheckResult(name, False, "unknown check")
    return fn(entry, name)


def _check_extending(entry: CatalogEntry, name: str) -> CheckResult:
    return CheckResult(name, check_extending(entry.system, 3))


def _check_closed(entry: CatalogEntry, name: str) -> CheckResult:
    for k in range(0, 4):
        p = trace(iterate(entry.system, k), entry.grid)
        if not p.closed:
            return CheckResult(name, False, f"open at level {k}")
    return CheckResult(name, True)


def _check_vertex_covering(entry: CatalogEntry, name: str, drop_exit: bool = False) -> CheckResult:
    level = 3
    s = iterate(entry.system, level)
    items = s.items[:-1] if drop_exit else s.items
    p = trace(SignedSequence(items, s.digiset), entry.grid)
    lo = tuple(min(v[i] for v in p.vertices) for i in range(p.dim))
    hi = tuple(max(v[i] for v in p.vertices) for i in range(p.dim))
    side = 2 ** (level + entry.system.start_level)
    rep = coverage_report(p, lo, hi)
    box_ok = all(h - l + 1 == side for l, h in zip(lo, hi))
    ok = rep.each_exactly_once and box_ok
    return CheckResult(name, ok, f"box {lo}..{hi}, visited {rep.visited}/{rep.total}")


def _check_vertex_covering_sans_exit(entry: CatalogEntry, name: str) -> CheckResult:
    return _check_vertex_covering(entry, name, drop_exit=True)


def _check_edge_covering(entry: CatalogEntry, name: str) -> CheckResult:
    s = iterate(entry.system, 2)
    p = trace(s, entry.grid)
    rep = self_avoidance_report(p, check_partial=False)
    if not rep.edge_covering:
        return CheckResult(name, False, "an edge is doubled or a vertex seen 3+ times")
    ok = _interior_vertices_twice(p)
    return CheckResult(name, ok, "" if ok else "an interior vertex is not visited exactly twice")


def _interior_vertices_twice(p: Polyline) -> bool:
    from collections import Counter, defaultdict

    vcount = Counter(p.vertices)
    incident = defaultdict(set)
    for a, b in zip(p.vertices, p.vertices[1:]):
        incident[a].add((a, b))
        incident[a].add((b, a))
        incident[b].add((a, b))
        incident[b].add((b, a))
    for v, edges in incident.items():
        if len(edges) // 2 == 4 and vcount[v] != 2:
            return False
    return True


def _check_edge_simple(entry: CatalogEntry, name: str) -> CheckResult:
    s = iterate(entry.system, 2)
    p = trace(s, entry.grid)
    rep = self_avoidance_report(p, check_partial=False)
    return CheckResult(name, rep.max_edge_multiplicity <= 1,
                       f"max edge multiplicity {rep.max_edge_multiplicity}")


def _check_successor_constraint(entry: CatalogEntry, name: str) -> CheckResult:
    s = iterate(entry.system, 2)
    bad = successor_violations(s, TRUNCATED_SQUARE_SUCCESSORS)
    return CheckResult(name, not bad, "" if not bad else f"first violation {bad[0]}")


def _check_partial_overlap_expected(entry: CatalogEntry, name: str) -> CheckResult:
    s = iterate(entry.system, 4)
    p = trace(s, entry.grid)
    rep = self_avoidance_report(p)
    return CheckResult(name, rep.has_overlap and rep.partial_overlap_pairs > 0,
                       f"partial overlap pairs: {rep.partial_overlap_pairs}")


def _check_lattice_vertices(entry: CatalogEntry, name: str) -> CheckResult:
    seq, exps = iterate_full(entry.system, 5)
    lengths = [sqrt2_pow(e) for e in exps]
    p = trace(seq, entry.grid, lengths)
    off = next((i for i, v in enumerate(p.lattice_points()) if v is None), None)
    if off is not None:
        return CheckResult(name, False, f"vertex {off} has a non-integer coordinate")
    return CheckResult(name, True)


def ternary_ones(n: int) -> int:
    """Count of 1 digits in the base-3 expansion of n."""
    c = 0
    while n:
        n, r = divmod(n, 3)
        c += r == 1
    return c


def _check_length_log_oracle(entry: CatalogEntry, name: str) -> CheckResult:
    _, exps = iterate_full(entry.system, 6)
    want = [ternary_ones(i // 2) for i in range(len(exps))]
    ok = list(exps) == want
    if ok and entry.length_log_prefix is not None:
        ok = tuple(exps[: len(entry.length_log_prefix)]) == entry.length_log_prefix
    return CheckResult(name, ok)


def _check_hyper_orthogonal(entry: CatalogEntry, name: str) -> CheckResult:
    order = int(name.split(":")[1])
    level = 3 if entry.system.digiset.size == 3 else 2
    s = iterate(entry.system, level)
    return CheckResult(name, is_hyper_orthogonal(s, order))


def _check_cube_covering(entry: CatalogEntry, name: str) -> CheckResult:
    level = 2
    s = iterate(entry.system, level)
    d = entry.digiset.size
    items = s.items[:-1]  # the final edge is the connector out of the cube
    p = trace(SignedSequence(items, s.digiset), entry.grid)
    lo = tuple(min(v[i] for v in p.vertices) for i in range(d))
    hi = tuple(max(v[i] for v in p.vertices) for i in range(d))
    rep = coverage_report(p, lo, hi)
    side = 2 ** (level + entry.system.start_level)
    side_ok = all(h - l + 1 == side for l, h in zip(lo, hi))
    return CheckResult(name, rep.each_exactly_once and side_ok,
                       f"visited {rep.visited}/{rep.total}")


def _check_hamiltonian_cube(entry: CatalogEntry, name: str) -> CheckResult:
    from .gray import gray_sequence

    d = 6
    s = gray_sequence(d)
    p = trace(s, cubic_grid(d))
    verts = set(p.vertices)
    ok = len(p.vertices) == 2**d and len(verts) == 2**d and all(
        all(c in (0, 1) for c in v) for v in verts
    )
    return CheckResult(name, ok)


def _check_gray_hyper_orthogonal(entry: CatalogEntry, name: str) -> CheckResult:
    from .gray import gray_sequence

    d = 6
    return CheckResult(name, is_hyper_orthogonal(gray_sequence(d), d - 1))


_CHECKS = {
    "extending": _check_extending,
    "closed": _check_closed,
    "vertex-covering": _check_vertex_covering,
    "vertex-covering-sans-exit": _check_vertex_covering_sans_exit,
    "edge-covering": _check_edge_covering,
    "edge-simple": _check_edge_simple,
    "successor-constraint": _check_successor_constraint,
    "partial-overlap-expected": _check_partial_overlap_expected,
    "lattice-vertices": _check_lattice_vertices,
    "length-log-oracle": _check_length_log_oracle,
    "hyper-orthogonal": _check_hyper_orthogonal,
    "cube-covering": _check_cube_covering,
    "hamiltonian-cube": _check_hamiltonian_cube,
    "gray-hyper-orthogonal": _check_gray_hyper_orthogonal,
}


def stream_ids() -> tuple[str, ...]:
    """Every exportable stream: each entry's digits, plus the dragon's
    length logarithms."""
    return tuple(e.id for e in catalog_list()) + ("v1-dragon-lengths",)


def export_bfile(stream_id: str, count: int) -> bytes:
    """The first ``count`` terms of a stream as a b-file."""
    if stream_id == "v1-dragon-lengths":
        _, values = generate_entry("v1-dragon-sqdiag", count)
    else:
        values = generate_entry(stream_id, count)[0].items
    return format_bfile(values)


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
