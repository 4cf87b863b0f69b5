"""Dual-route checks: the same curve derived two independent ways."""

import random
from itertools import chain

from fracseq.catalog import (
    box4_digit_system,
    box4_system,
    beta_omega_system,
    catalog_entries,
    hilbert_digit_system,
    hilbert_original_system,
    v1_dragon_system,
    verify_entry,
)
from fracseq.geometry import coverage_report, cubic_grid, square_grid, trace
from fracseq.gray import HILBERT_SPECS, gray_sequence, hilbert_system
from fracseq.perms import SignedPermutation, power
from fracseq.sequences import Digiset, SignedSequence, negate, normalize
from fracseq.substitution import (
    EdgewiseRule,
    SubstitutionSystem,
    Term,
    iterate,
    project,
)


def expand_digitwise(rule, stream):
    """One digitwise level from a variant start: the rule's images of the
    variants, whose digits one ``iterate`` step must reproduce."""
    variants = tuple(chain.from_iterable(map(rule.image, stream)))
    sys_ = SubstitutionSystem(digiset=Digiset(None), rule=rule, start=stream)
    assert iterate(sys_, 1).items == project(variants)
    return variants


def test_box4_digit_rule_matches_term_rule():
    a = iterate(box4_system(), 4)
    b = iterate(box4_digit_system(), 4)
    assert a.items == b.items


def test_hilbert_digit_rule_matches_wholecurve():
    a = iterate(hilbert_original_system(), 3)  # 4^4 - 1 edges
    b = iterate(hilbert_digit_system(), 4)  # 4^4 edges, one exit connector more
    assert b.items[: len(a)] == a.items


def test_v1_dragon_base_change():
    # the same dragon written on the original axis numbering is carried to
    # the catalog sequence by its characteristic permutation
    mu = SignedPermutation((2, 3, 4, -1))
    rule = EdgewiseRule((Term(SignedPermutation((1, 2, 3, 4))),
                         Term(power(mu, 2), reverse=True),
                         Term(power(mu, 3))))
    original = SubstitutionSystem(digiset=Digiset(4), rule=rule, start=(1,))
    raw = iterate(original, 4)
    assert raw.items[:4] == (1, 3, 4, -2)
    assert normalize(raw).items == iterate(v1_dragon_system(), 4).items


def test_digit_rules_negation_symmetry():
    rng = random.Random(11)
    for sys_ in (beta_omega_system(), hilbert_digit_system()):
        variants = sorted(sys_.rule.alphabet())
        for _ in range(300):
            stream = tuple(rng.choice(variants) for _ in range(rng.randrange(12)))
            neg = tuple((-x, m) for x, m in stream)
            a = expand_digitwise(sys_.rule, neg)
            b = tuple((-x, m) for x, m in expand_digitwise(sys_.rule, stream))
            assert a == b


def test_hilbert_cube_coverage_full_depth():
    # 3D curves fill the 16-cube at level 4, 4D curves the 8-cube at level 3
    for key, apps, side in (
        ("3d-origin", 3, 16), ("3d-nonorigin", 3, 16),
        ("4d-origin", 2, 8), ("4d-nonorigin", 2, 8),
    ):
        spec = HILBERT_SPECS[key]
        s = iterate(hilbert_system(spec), apps)
        p = trace(SignedSequence(s.items[:-1], s.digiset), cubic_grid(spec.d))
        lo = tuple(min(v[i] for v in p.vertices) for i in range(spec.d))
        hi = tuple(max(v[i] for v in p.vertices) for i in range(spec.d))
        rep = coverage_report(p, lo, hi)
        assert rep.each_exactly_once, key
        assert all(h - l + 1 == side for l, h in zip(lo, hi)), key


def test_gray_hamiltonian_path_high_dimensions():
    for d in (4, 8, 12, 16):
        p = trace(gray_sequence(d), cubic_grid(d))
        assert len(p.vertices) == 2**d
        verts = set(p.vertices)
        assert len(verts) == 2**d
        assert all(c in (0, 1) for v in verts for c in v)
        # exit is one step along the last axis
        assert p.vertices[-1] == (0,) * (d - 1) + (1,)


def test_every_entry_verifies():
    for e in catalog_entries():
        rep = verify_entry(e.id)
        assert rep.passed, (e.id, [(c.name, c.detail) for c in rep.checks if not c.passed])


def test_negate_carries_curves():
    # relabeling all axes negatively mirrors a traced curve through the origin
    s = iterate(box4_system(), 3)
    a = trace(s, square_grid())
    b = trace(negate(s), square_grid())
    assert b.vertices == tuple(tuple(-c for c in v) for v in a.vertices)
