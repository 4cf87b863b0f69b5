"""Differential tests for the integer-embedded geometry.

``trace`` walks every grid on integer coefficient vectors and
``self_avoidance_report`` counts partial overlaps by an exact line key and
a sweep.  The references in ``radical_reference`` are the slow exact
paths they replace: a walk in ``Radical`` arithmetic on generators written
from each grid's geometry, and an all-pairs collinear-overlap test.
"""

import random
from fractions import Fraction

import pytest
from radical_reference import Radical, radical_vertices, reference_partial_pairs, reference_trace

from fracseq.catalog import catalog_entries, get_entry
from fracseq.geometry import (
    GridError,
    Polyline,
    cubic_grid,
    dragon_axes_grid,
    eighth_roots_grid,
    honeycomb_grid,
    self_avoidance_report,
    sqrt2_pow,
    square_diagonal_grid,
    square_grid,
    trace,
    triangular_grid,
    truncated_square_grid,
)
from fracseq.sequences import Digiset, SignedSequence
from fracseq.substitution import iterate, iterate_full

GRIDS = {
    "square": square_grid(),
    **{f"cubic-{d}": cubic_grid(d) for d in range(2, 7)},
    "triangular": triangular_grid(),
    "honeycomb": honeycomb_grid(),
    "square-diagonal": square_diagonal_grid(),
    "eighth-roots": eighth_roots_grid(),
    "dragon-axes": dragon_axes_grid(),
    "truncated-square": truncated_square_grid(),
}


def assert_same_walk(p: Polyline, ref) -> None:
    assert p.edge_count == len(ref) - 1
    assert radical_vertices(p) == ref
    if p.is_integral():
        assert p.vertices is p.points
    else:
        with pytest.raises(GridError, match="float_vertices, lattice_points or points"):
            p.vertices
    # bit for bit, -0.0 included
    assert [tuple(x.hex() for x in v) for v in p.float_vertices()] == \
           [tuple(float(c).hex() for c in v) for v in ref]
    ints = [tuple(c.as_int() for c in v) for v in ref]
    assert p.lattice_points() == [None if None in v else v for v in ints]
    numeric = [tuple(float(c) if i is None else i for c, i in zip(v, iv)) for v, iv in zip(ref, ints)]
    assert [tuple(map(repr, v)) for v in p.numeric_vertices()] == [tuple(map(repr, v)) for v in numeric]
    assert p.dim == len(ref[0])
    assert p.closed == (len(ref) > 1 and ref[0] == ref[-1])


def random_walk(rng: random.Random, n_gens: int, edges: int) -> SignedSequence:
    items = tuple(rng.choice((1, -1)) * rng.randint(1, n_gens) for _ in range(edges))
    return SignedSequence(items, Digiset(n_gens))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_trace_matches_radical_walk_on_random_digits(name):
    grid = GRIDS[name]
    rng = random.Random(f"trace:{name}")
    # three short walks; then, since trace sums each coefficient column on
    # its own, walks of 0, 1 and 100 edges
    for i in range(6):
        seq = random_walk(rng, grid.n, rng.randint(0, 40) if i < 3 else (0, 1, 100)[i - 3])
        assert_same_walk(trace(seq, grid), reference_trace(seq.items, grid.name))
        lengths = [sqrt2_pow(rng.randrange(5)) for _ in seq.items]
        assert_same_walk(trace(seq, grid, lengths), reference_trace(seq.items, grid.name, lengths))


def test_integer_grids_keep_plain_int_vertices():
    for d in range(2, 7):
        p = trace(random_walk(random.Random(d), d, 40), cubic_grid(d))
        assert p.is_integral() and p.vertices is p.points
        assert all(type(c) is int for v in p.vertices for c in v)
    p = trace(SignedSequence((1, 3, -2), Digiset(4)), square_diagonal_grid())
    assert p.vertices == ((0, 0), (1, 0), (1, 1), (0, 0))


def test_embedding_bases():
    seq = SignedSequence((1, 2, 3), Digiset(3))
    assert trace(seq, triangular_grid()).basis == (1, 3)
    assert trace(seq, triangular_grid(), [sqrt2_pow(1)] * 3).basis == (1, 2, 3, 6)
    four = SignedSequence((1, 2, 3, 4), Digiset(4))
    for grid in (eighth_roots_grid(), dragon_axes_grid(), truncated_square_grid()):
        p = trace(four, grid)
        assert (p.basis, p.denominator) == ((1, 2), 2)
    p = trace(four, square_diagonal_grid(), [sqrt2_pow(e) for e in (0, 1, 2, 3)])
    assert (p.basis, p.denominator) == ((1, 2), 1)


# the Radical walk costs tens of microseconds per vertex, so long levels are
# compared on their first edges (a prefix traces to a prefix of the walk)
HEAD = 128


def test_trace_matches_radical_walk_on_catalog_entries():
    # each entry on its own grid, with its own length stream where it has one;
    # the random-digit test above covers every grid with and without lengths
    for entry in catalog_entries():
        for k in range(4):
            if entry.system.kind == "pairlift" and k == 0:
                continue  # a pair lift has no one-edge level
            seq, exps = iterate_full(entry.system, k)
            grid = entry.grid if entry.grid is not None else cubic_grid(max(abs(d) for d in seq.items))
            head = SignedSequence(seq.items[:HEAD], seq.digiset)
            lengths = [sqrt2_pow(e) for e in exps[:HEAD]] if exps is not None else None
            assert_same_walk(trace(head, grid, lengths), reference_trace(head.items, grid.name, lengths))


def test_trace_accepts_plain_and_uncached_lengths():
    seq = SignedSequence((1, 2, 4, 3, -1), Digiset(4))
    lengths = [(1, 0), (2, 0), tuple([0, 1]), tuple([0, 1]), (1, 1)]  # equal values, distinct objects
    assert lengths[2] == lengths[3] and lengths[2] is not lengths[3]
    grid = dragon_axes_grid()
    assert_same_walk(trace(seq, grid, lengths), reference_trace(seq.items, grid.name, lengths))


def test_trace_grid_errors():
    with pytest.raises(GridError, match="out of range"):
        trace(SignedSequence((1, 2, 5), Digiset(5)), dragon_axes_grid())
    with pytest.raises(GridError, match="digit -6 out of range"):
        trace(SignedSequence((1, -6, 5), Digiset(6)), dragon_axes_grid(), [sqrt2_pow(0)] * 3)
    with pytest.raises(GridError, match="length stream has 1 entries for 2 edges"):
        trace(SignedSequence((1, 2), Digiset(2)), dragon_axes_grid(), [sqrt2_pow(1)])
    with pytest.raises(GridError, match="integer coefficient tuples") as exc:
        Polyline(((0.0, 0),))
    assert "Polyline.of" not in str(exc.value)
    with pytest.raises(GridError, match="int pair"):
        trace(SignedSequence((1, 2), Digiset(2)), square_grid(), [(1, 0), 1])


def test_polyline_checks_every_point():
    with pytest.raises(GridError, match="of one length"):
        Polyline(((0, 0), (1,), (2, 0)))  # ragged point
    with pytest.raises(GridError, match="integer coefficient tuples"):
        Polyline(((0, 0), (1, 0), (2.5, 0)))  # non-int coordinate past the first point
    with pytest.raises(GridError):
        Polyline(((0, 0), (1,), (2.5, "x")))


def test_trace_builds_a_valid_polyline():
    p = trace(SignedSequence((1, 2, 3, -1), Digiset(4)), dragon_axes_grid())
    assert p == Polyline(p.points, p.denominator, p.basis)


# ------------------------------------------------------------ partial overlap

def entry_polyline(entry_id: str, level: int, with_lengths: bool) -> Polyline:
    entry = get_entry(entry_id)
    seq, exps = iterate_full(entry.system, level)
    lengths = [sqrt2_pow(e) for e in exps] if with_lengths else None
    return trace(seq, entry.grid, lengths)


@pytest.mark.parametrize("entry_id, levels, with_lengths", [
    ("v1-dragon-8roots", range(2, 6), False),
    ("v1-dragon-sqdiag", range(2, 5), True),
    ("arndt-peano-truncated", range(1, 3), False),
])
def test_partial_overlaps_match_all_pairs(entry_id, levels, with_lengths):
    for level in levels:
        p = entry_polyline(entry_id, level, with_lengths)
        got = self_avoidance_report(p, check_partial=True).partial_overlap_pairs
        assert got == reference_partial_pairs(radical_vertices(p)), (entry_id, level)
    if entry_id == "arndt-peano-truncated":
        assert got == 10


def test_partial_overlaps_match_all_pairs_on_triangular_walks():
    rng = random.Random("overlap:triangular")
    grid = triangular_grid()
    seen = 0
    for _ in range(3):
        seq = random_walk(rng, 3, 40)
        # lengths 1 and 2 overlap partially; sqrt2 brings in the full basis
        lengths = [sqrt2_pow(rng.choice((0, 0, 2, 1))) for _ in seq.items]
        for p in (trace(seq, grid), trace(seq, grid, lengths)):
            got = self_avoidance_report(p).partial_overlap_pairs
            assert got == reference_partial_pairs(radical_vertices(p))
            seen += got
    assert seen > 0


def test_partial_overlap_far_from_origin():
    # edges [0, 2] and [1, 4] (in unit diagonals) on the line y = -x + sqrt2/2
    # through (1e8, -1e8 + sqrt2/2): an offset near 1.4e8 is not exact to nine
    # decimal places in floats, so a rounded float line key splits this pair
    h = Radical.sqrt2(Fraction(1, 2))
    x0, y0 = Radical.of(10**8), Radical.of(-10**8) + h

    def at(t):
        return (x0 + h * t, y0 + h * t)

    verts = [at(0), at(2), (x0 + 5, y0), at(1), at(4)]
    # over basis (1, 2) with denominator 2, at(t) is x = (2e8 + t*sqrt2) / 2,
    # y = (-2e8 + (1 + t)*sqrt2) / 2
    def point(t):
        return (2 * 10**8, t, -2 * 10**8, 1 + t)

    p = Polyline((point(0), point(2), (2 * 10**8 + 10, 0, -2 * 10**8, 1), point(1), point(4)), 2, (1, 2))
    assert radical_vertices(p) == verts
    assert reference_partial_pairs(verts) == 1
    assert self_avoidance_report(p).partial_overlap_pairs == 1


def test_partial_overlap_counted_beyond_4096_edges():
    # [0, 2] and [1, 3] overlap on the x axis, then a staircase of 5000 edges
    # climbs away without touching either line again
    pts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 0), (3, 0)]
    x, y = 3, 0
    for i in range(5000):
        if i % 2:
            x += 1
        else:
            y += 1
        pts.append((x, y))
    p = Polyline(tuple(pts))
    assert p.edge_count > 4096
    rep = self_avoidance_report(p)
    assert rep.partial_overlap_pairs == 1
    assert rep.has_overlap and rep.max_edge_multiplicity == 1
    assert self_avoidance_report(p, check_partial=False).partial_overlap_pairs == 0


def test_doubled_edges_are_not_partial_overlaps():
    # one diagonal edge walked three times, its extension, and a long way back
    verts = [(0, 0), (1, 1), (0, 0), (1, 1), (2, 2), (Fraction(1, 2), Fraction(1, 2))]
    p = Polyline(tuple(tuple(int(2 * c) for c in v) for v in verts), 2)
    rep = self_avoidance_report(p)
    assert rep.max_edge_multiplicity == 3
    # the last edge, from (2, 2) back to (1/2, 1/2), overlaps each of the others
    assert rep.partial_overlap_pairs == reference_partial_pairs(verts) == 4
    hilbert = trace(iterate(get_entry("hilbert-original").system, 3), square_grid())
    assert self_avoidance_report(hilbert).partial_overlap_pairs == 0
