from fractions import Fraction

import pytest

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
    Radical,
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

def test_radical_arithmetic():
    r2 = Radical.sqrt2()
    r3 = Radical.sqrt3()
    assert r2 * r2 == Radical.of(2)
    assert r3 * r3 == Radical.of(3)
    assert (r2 * r3) * (r2 * r3) == Radical.of(6)
    assert r2 * r3 == Radical(Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    x = Radical.of(1) + r2
    assert x * x == Radical.of(3) + Radical.sqrt2(2)
    assert (x - x).is_zero()


def test_radical_exact_sign():
    r2 = Radical.sqrt2()
    r3 = Radical.sqrt3()
    assert (r2 + r3).sign() == 1
    assert (r2 - r3).sign() == -1
    assert (Radical.of(Fraction(17, 12)) - r2).sign() == 1  # 17/12 > sqrt2
    assert (Radical.of(Fraction(7, 5)) - r2).sign() == -1  # 7/5 < sqrt2
    # sqrt6 pulls in the cross term: 1 + sqrt2 ~ 2.414 < sqrt6 ~ 2.449
    assert (Radical.of(1) + r2 - r2 * r3).sign() == -1
    assert sorted([r3, Radical.of(1), r2]) == [Radical.of(1), r2, r3]


def test_sqrt2_pow():
    assert sqrt2_pow(0) == Radical.of(1)
    assert sqrt2_pow(1) == Radical.sqrt2()
    assert sqrt2_pow(2) == Radical.of(2)
    assert sqrt2_pow(5) == Radical.sqrt2(4)
    assert float(sqrt2_pow(3)) == pytest.approx(2 ** 1.5)


# ------------------------------------------------------------------ grids

def test_builtin_grid_matrices():
    tri = triangular_grid()
    h = Fraction(1, 2)
    assert tri.generators == (
        (Radical.of(1), Radical.of(0)),
        (Radical.of(h), Radical.sqrt3(h)),
        (Radical.of(-h), Radical.sqrt3(h)),
    )
    sq = square_diagonal_grid()
    assert [[c.as_int() for c in g] for g in sq.generators] == [
        [1, 0], [1, 1], [0, 1], [-1, 1]]


def test_eighth_roots_unit_lengths():
    g = eighth_roots_grid()
    for gen in g.generators:
        norm = gen[0] * gen[0] + gen[1] * gen[1]
        assert norm == Radical.of(1)


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(2, ((Radical.of(1), Radical.of(0)), (Radical.of(2), Radical.of(0))))
    with pytest.raises(GridError):
        Grid(2, ((Radical.of(1), Radical.of(0)),))


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
        trace(SignedSequence((1, 2), Digiset(2)), square_grid(), [Radical.of(1)])


def test_trace_digit_out_of_range():
    with pytest.raises(GridError, match="out of range"):
        trace(SignedSequence((1, 3), Digiset(3)), square_grid())


def test_trace_v1_dragon_on_lattice():
    seq, exps = iterate_full(v1_dragon_length_system(), 4)
    lengths = [sqrt2_pow(e) for e in exps]
    p = trace(seq, dragon_axes_grid(), lengths)
    for v in p.vertices:
        assert all(c.as_int() is not None for c in v)


def test_orientation_examples():
    assert orientation(gray_sequence(2), cubic_grid(2)) == (0, 1)
    assert orientation(gray_sequence(4), cubic_grid(4)) == (0, 0, 0, 1)
    z = orientation(SignedSequence((1, 2, -1, -2), Digiset(2)), square_grid())
    assert z == (0, 0)


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
    vs = ((Radical.of(0), Radical.of(0)), (Radical.of(2), Radical.of(0)))
    vs2 = ((Radical.of(1), Radical.of(0)),)
    from fracseq.geometry import Polyline

    p = Polyline.of((vs[0], vs[1], (Radical.of(2), Radical.of(1)),
                     (Radical.of(1), Radical.of(1)), vs2[0]))
    # last edge runs from (1,1) down to (1,0)? build a clean overlap instead
    p = Polyline.of((
        (Radical.of(0), Radical.of(0)), (Radical.of(2), Radical.of(0)),
        (Radical.of(2), Radical.of(1)), (Radical.of(1), Radical.of(1)),
        (Radical.of(1), Radical.of(0)), (Radical.of(3), Radical.of(0)),
    ))
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
    rep = coverage_report(p, (0, 0), (1, 1), missed_cap=10)
    assert rep.visited == 2
    assert set(rep.missed) == {(0, 1), (1, 1)}


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
