import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from radical_reference import GENERATORS, Radical, declaration, dependent, spans

from fracseq.catalog import (
    arndt_peano_system,
    beta_omega_system,
    hilbert_original_system,
    mandelbrot_island_system,
    v1_dragon_length_system,
    v1_dragon_system,
)
from fracseq.geometry import (
    Grid,
    GridError,
    Polyline,
    _Ring,
    _sign4,
    coverage_report,
    cubic_grid,
    dragon_axes_grid,
    eighth_roots_grid,
    honeycomb_grid,
    orientation,
    self_avoidance_report,
    sqrt2_pow,
    square_diagonal_grid,
    square_grid,
    successor_violations,
    trace,
    triangular_grid,
    truncated_square_grid,
    HONEYCOMB_SUCCESSORS,
    TRUNCATED_SQUARE_SUCCESSORS,
)
from fracseq.gray import gray_sequence
from fracseq.perms import SignedPermutation, apply
from fracseq.sequences import Digiset, SignedSequence, inverse, reverse
from fracseq.substitution import iterate, iterate_full


def s(*items, digiset=Digiset(4)):
    return SignedSequence(tuple(items), digiset)


# ---------------------------------------------------------------- radical

# integer coefficients over the basis 1, sqrt2, sqrt3, sqrt6
RING = _Ring((1, 2, 3, 6))
ONE, R2, R3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def test_radical_arithmetic():
    mul = RING.mul
    assert mul(R2, R2) == (2, 0, 0, 0)
    assert mul(R3, R3) == (3, 0, 0, 0)
    r6 = mul(R2, R3)
    assert mul(r6, r6) == (6, 0, 0, 0)
    assert r6 == (0, 0, 0, 1)
    x = tuple(map(add, ONE, R2))
    assert mul(x, x) == (3, 2, 0, 0)
    assert RING.sign(tuple(map(sub, x, x))) == 0


def test_radical_exact_sign():
    assert _sign4(0, 1, 1, 0) == 1  # sqrt2 + sqrt3
    assert _sign4(0, 1, -1, 0) == -1  # sqrt2 - sqrt3
    assert _sign4(17, -12, 0, 0) == 1  # 17/12 > sqrt2
    assert _sign4(7, -5, 0, 0) == -1  # 7/5 < sqrt2
    # sqrt6 pulls in the cross term: 1 + sqrt2 ~ 2.414 < sqrt6 ~ 2.449
    assert _sign4(1, 1, 0, -1) == -1
    assert sorted([R3, ONE, R2], key=RING.sort_key()) == [ONE, R2, R3]


def test_sqrt2_pow():
    assert sqrt2_pow(0) == (1, 0)
    assert sqrt2_pow(1) == (0, 1)
    assert sqrt2_pow(2) == (2, 0)
    assert sqrt2_pow(5) == (0, 4)
    a, b = sqrt2_pow(3)
    assert a + b * math.sqrt(2) == pytest.approx(2 ** 1.5)
    with pytest.raises(ValueError):
        sqrt2_pow(-1)


# ------------------------------------------------------------------ grids

BUILTIN_GRIDS = (square_grid, triangular_grid, honeycomb_grid, square_diagonal_grid, eighth_roots_grid,
                 truncated_square_grid, dragon_axes_grid, *(lambda d=d: cubic_grid(d) for d in range(1, 9)))


def test_builtin_grid_matrices():
    tri = triangular_grid()
    # (1, 0), (1/2, sqrt3/2), (-1/2, sqrt3/2) over 1, sqrt3 with denominator 2
    assert (tri.denominator, tri.basis) == (2, (1, 3))
    assert tri.generators == ((2, 0, 0, 0), (1, 0, 0, 1), (-1, 0, 0, 1))
    sq = square_diagonal_grid()
    assert sq.generators == ((1, 0), (1, 1), (0, 1), (-1, 1))
    assert sq.is_integral() and not tri.is_integral()
    # every grid's declaration against its generators written from the geometry
    for make in BUILTIN_GRIDS:
        g = make()
        assert (g.denominator, g.basis, g.generators) == declaration(GENERATORS[g.name]), g.name
        assert g.is_integral() == (g.basis == (1,) and g.denominator == 1)


def test_eighth_roots_unit_lengths():
    g = eighth_roots_grid()
    ring = g.ring
    for gen in g.generators:
        x, y = gen[:2], gen[2:]
        norm = tuple(map(add, ring.mul(x, x), ring.mul(y, y)))
        assert norm == (g.denominator ** 2, 0)


def test_grid_validation():
    with pytest.raises(GridError, match="generators 1 and 2 are dependent"):
        Grid(2, ((1, 0), (2, 0)))
    with pytest.raises(GridError, match="do not span"):
        Grid(2, ((1, 0),))
    with pytest.raises(GridError, match="dimension mismatch"):
        Grid(2, ((1, 0, 0),))
    with pytest.raises(GridError, match="integer coefficients"):
        Grid(2, ((1, 0), (0.0, 1)))
    with pytest.raises(GridError, match="basis"):
        Grid(2, ((1, 0, 0, 0), (0, 0, 1, 0)), basis=(1, 2, 3))
    with pytest.raises(GridError, match="denominator"):
        Grid(2, ((1, 0), (0, 1)), denominator=0)
    g = Grid(2, [[2, 0, 0, 0], [1, 0, 0, 1]], denominator=2, basis=[1, 3])
    assert (g.generators, g.basis) == (((2, 0, 0, 0), (1, 0, 0, 1)), (1, 3))


def test_grid_validation_rejects_dependent_radical_pairs():
    # (1/2, sqrt3/2) and (1, sqrt3): the second is twice the first
    with pytest.raises(GridError, match="generators 1 and 2 are dependent"):
        Grid(2, ((1, 0, 0, 1), (2, 0, 0, 2)), denominator=2, basis=(1, 3))
    # (sqrt2/2, sqrt2/2) and (1, 1): the second is sqrt2 times the first
    with pytest.raises(GridError, match="generators 2 and 3 are dependent"):
        Grid(2, ((2, 0, 0, 0), (0, 1, 0, 1), (2, 0, 2, 0)), denominator=2, basis=(1, 2))
    # three pairwise independent directions in the plane z = 0
    with pytest.raises(GridError, match="do not span"):
        Grid(3, ((2, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (-1, 0, 0, 1, 0, 0)), denominator=2, basis=(1, 3))


# coordinates of random generators: 0, +-1, +-1/2, +-sqrt2/2, +-sqrt3/2, sqrt6/4, 2, sqrt2
_H = Fraction(1, 2)
COORDS = (Radical(), Radical.of(1), Radical.of(-1), Radical.of(_H), Radical.of(-_H),
          Radical.sqrt2(_H), Radical.sqrt2(-_H), Radical.sqrt3(_H), Radical.sqrt3(-_H),
          Radical(0, 0, 0, Fraction(1, 4)), Radical.of(2), Radical.sqrt2())


def _expected_rejection(gens, dim) -> str | None:
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if dependent(gens[i], gens[j]):
                return f"generators {i + 1} and {j + 1} are dependent"
    return None if spans(gens, dim) else "generators do not span the space"


def test_grid_validation_matches_radical_reference():
    rng = random.Random("grid-validation")
    outcomes = set()
    for _ in range(300):
        dim = rng.randint(1, 3)
        gens = [tuple(rng.choice(COORDS) for _ in range(dim)) for _ in range(rng.randint(max(1, dim - 1), dim + 2))]
        if len(gens) > 1 and rng.random() < 0.3:  # force a dependent pair
            i, j = rng.sample(range(len(gens)), 2)
            scalar = rng.choice(COORDS[1:])
            gens[j] = tuple(scalar * c for c in gens[i])
        want = _expected_rejection(gens, dim)
        den, basis, ints = declaration(gens)
        try:
            Grid(dim, ints, denominator=den, basis=basis)
            got = None
        except GridError as exc:
            got = str(exc)
        assert got == want, (dim, gens)
        outcomes.add(want if want is None else want.split()[-1])
    assert outcomes == {None, "dependent", "space"}


# ------------------------------------------------------------------ trace

def test_trace_square_example():
    p = trace(SignedSequence((1, 2, -1), Digiset(2)), square_grid())
    assert p.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert not p.closed


def test_trace_island_closed():
    p = trace(SignedSequence((1, 2, -1, -2), Digiset(2)), square_grid())
    assert p.closed
    assert p.edge_count == 4


def test_trace_length_mismatch():
    with pytest.raises(GridError):
        trace(SignedSequence((1, 2), Digiset(2)), square_grid(), [(1, 0)])


def test_trace_digit_out_of_range():
    with pytest.raises(GridError, match="out of range"):
        trace(SignedSequence((1, 3), Digiset(3)), square_grid())


def test_trace_v1_dragon_on_lattice():
    seq, exps = iterate_full(v1_dragon_length_system(), 4)
    lengths = [sqrt2_pow(e) for e in exps]
    p = trace(seq, dragon_axes_grid(), lengths)
    assert None not in p.lattice_points()


def test_orientation_examples():
    assert orientation(gray_sequence(2), cubic_grid(2)) == (0, 1)
    assert orientation(gray_sequence(4), cubic_grid(4)) == (0, 0, 0, 1)
    z = orientation(SignedSequence((1, 2, -1, -2), Digiset(2)), square_grid())
    assert z == (0, 0)


def test_exact_vertices_only_on_integer_lattices():
    seq = SignedSequence((1, 2), Digiset(3))
    p = trace(seq, triangular_grid())
    for read in (lambda: p.vertices, lambda: orientation(seq, triangular_grid())):
        with pytest.raises(GridError, match="use float_vertices, lattice_points or points"):
            read()
    assert p.lattice_points() == [(0, 0), (1, 0), None]
    # the dragon's sqrt2 lengths land back on the lattice, but the embedding keeps its basis
    q = trace(SignedSequence((1, 3), Digiset(4)), dragon_axes_grid(), [sqrt2_pow(0), sqrt2_pow(1)])
    assert q.lattice_points() == [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(GridError, match="float_vertices"):
        q.vertices


# ---------------------------------------------------------- self-avoidance

def test_hilbert_vertex_covering():
    p = trace(iterate(hilbert_original_system(), 2), square_grid())
    rep = self_avoidance_report(p)
    assert rep.vertex_covering
    assert rep.max_vertex_multiplicity == 1
    assert not rep.has_overlap


def test_arndt_edge_covering():
    p = trace(iterate(arndt_peano_system(), 2), square_grid())
    rep = self_avoidance_report(p, check_partial=False)
    assert rep.edge_covering
    assert rep.max_edge_multiplicity == 1
    assert rep.max_vertex_multiplicity == 2


def test_v1_dragon_partial_overlap_detected():
    p = trace(iterate(v1_dragon_system(), 4), dragon_axes_grid())
    rep = self_avoidance_report(p)
    assert rep.has_overlap
    assert rep.partial_overlap_pairs > 0
    assert rep.max_edge_multiplicity <= 1  # overlaps are partial, not doubled


def test_partial_overlap_simple_case():
    # two horizontal edges sharing half their extent
    p = Polyline(((0, 0), (2, 0), (2, 1), (1, 1), (1, 0), (3, 0)))
    rep = self_avoidance_report(p)
    assert rep.partial_overlap_pairs == 1
    assert rep.has_overlap


# ---------------------------------------------------------------- coverage

def test_coverage_examples():
    p = trace(iterate(hilbert_original_system(), 2), square_grid())
    rep = coverage_report(p, (0, 0), (7, 7))
    assert (rep.visited, rep.total) == (64, 64)
    assert rep.each_exactly_once

    g = trace(gray_sequence(3), cubic_grid(3))
    rep = coverage_report(g, (0, 0, 0), (1, 1, 1))
    assert (rep.visited, rep.total) == (8, 8)

    beta = iterate(beta_omega_system(), 2)
    body = SignedSequence(beta.items[:-1], beta.digiset)
    p = trace(body, square_grid())
    lo = tuple(min(v[i] for v in p.vertices) for i in range(2))
    hi = tuple(max(v[i] for v in p.vertices) for i in range(2))
    rep = coverage_report(p, lo, hi)
    assert (rep.visited, rep.total) == (16, 16)
    assert rep.each_exactly_once


def test_coverage_missed_listing():
    p = trace(SignedSequence((1,), Digiset(2)), square_grid())
    rep = coverage_report(p, (0, 0), (1, 1))
    assert rep.visited == 2
    assert set(rep.missed) == {(0, 1), (1, 1)}
    # missed points come in lexicographic order, at most 32 of them
    assert rep.missed == ((0, 1), (1, 1))
    assert len(coverage_report(p, (0, 0), (2, 2)).missed) == 7
    big = coverage_report(p, (0, 0), (5, 5))
    assert (big.total, big.visited) == (36, 2)
    assert big.missed[:7] == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2))
    assert len(big.missed) == 32 and big.missed[-1] == (5, 3)


# ------------------------------------------------------------- invariants

def test_trace_inverse_retraces():
    seq = SignedSequence((1, 2, -1, 2, 2), Digiset(2))
    p = trace(seq, square_grid())
    q = trace(inverse(seq), square_grid())
    # the inverse starts where the original ends: translate and compare
    exit_ = p.vertices[-1]
    translated = tuple(tuple(c + e for c, e in zip(v, exit_)) for v in q.vertices)
    assert translated == tuple(reversed(p.vertices))


def test_trace_reverse_keeps_exit():
    seq = SignedSequence((1, 2, -1, 2, 1), Digiset(2))
    a = trace(seq, square_grid())
    b = trace(reverse(seq), square_grid())
    assert a.vertices[-1] == b.vertices[-1]
    steps_a = sorted((tuple(y - x for x, y in zip(u, v))) for u, v in zip(a.vertices, a.vertices[1:]))
    steps_b = sorted((tuple(y - x for x, y in zip(u, v))) for u, v in zip(b.vertices, b.vertices[1:]))
    assert steps_a == steps_b


def test_isometry_preserves_distances():
    seq = SignedSequence((1, 2, -1, 2, 2, 1), Digiset(2))
    mu = SignedPermutation((2, -1))
    a = trace(seq, square_grid()).vertices
    b = trace(apply(mu, seq), square_grid()).vertices

    def d2(u, v):
        return sum((x - y) ** 2 for x, y in zip(u, v))

    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            assert d2(a[i], a[j]) == d2(b[i], b[j])


# --------------------------------------------------- successor constraints

def test_truncated_square_successors():
    from fracseq.catalog import arndt_truncated_system

    lifted = iterate(arndt_truncated_system(), 2)
    assert successor_violations(lifted, TRUNCATED_SQUARE_SUCCESSORS) == []
    bad = SignedSequence((1, 3), Digiset(4))
    assert successor_violations(bad, TRUNCATED_SQUARE_SUCCESSORS) == [(0, 1, 3)]


def test_honeycomb_successors():
    ok = SignedSequence((1, 2, 3, -1, -2, -3, 1), Digiset(3))
    assert successor_violations(ok, HONEYCOMB_SUCCESSORS) == []
    rev = SignedSequence((1, -1), Digiset(3))
    assert successor_violations(rev, HONEYCOMB_SUCCESSORS) == [(0, 1, -1)]
    assert honeycomb_grid().n == 3
    assert truncated_square_grid().n == 4


def test_island_closed_at_levels():
    sys_ = mandelbrot_island_system()
    for k in range(4):
        assert trace(iterate(sys_, k), square_grid()).closed
