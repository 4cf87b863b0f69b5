import pytest

from fracseq.gray import (
    HILBERT_SPECS,
    TYPE1_STATE,
    TYPE2_STATE,
    entry_point,
    gray_extended,
    gray_function,
    gray_sequence,
    hilbert_system,
    is_hyper_orthogonal,
    validate_hilbert_spec,
)
from fracseq.perms import SignedPermutation, apply
from fracseq.sequences import SignedSequence, UNBOUNDED, fold, inverse
from fracseq.substitution import check_extending, iterate


def test_gray_sequence_examples():
    assert gray_sequence(0).items == ()
    assert gray_sequence(1).items == (1,)
    assert gray_sequence(3).items == (1, 2, -1, 3, 1, -2, -1)
    assert gray_sequence(5).items[:16] == (
        1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 5)
    assert len(gray_sequence(10)) == 2**10 - 1


def test_gray_function_examples():
    assert gray_function(2, 3) == -1
    assert gray_function(4, 8) == 4
    assert gray_function(3, 5) == 1
    with pytest.raises(ValueError):
        gray_function(2, 4)


def test_gray_function_assembles_sequence():
    for d in range(1, 9):
        got = tuple(gray_function(d, n) for n in range(1, 2**d))
        assert got == gray_sequence(d).items


def test_fold_equals_gray():
    for d in range(1, 13):
        assert fold(range(1, d + 1)).items == gray_sequence(d).items


def test_gray_reverse_identity():
    # -R(G(d)) relabels d to -d and nothing else
    for d in range(1, 9):
        g = gray_sequence(d)
        omega = SignedPermutation(tuple(range(1, d)) + (-d,))
        assert inverse(g).items == apply(omega, g).items


def test_gray_extended_examples():
    assert gray_extended(3, 1).items == (3, 1, 2, -1, 3, 1, -2, -1, -2)
    assert gray_extended(3, 2).items == (2, 1, 2, -1, 3, 1, -2, -1, 3)
    assert gray_extended(4, 2).items == (
        3, 1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 4)
    with pytest.raises(ValueError):
        gray_extended(1, 1)


def test_gray_extended_isometric_pair():
    # omega composed with the path inverse carries type 2 onto type 1
    for d in (3, 4, 5):
        omega = SignedPermutation(tuple(range(1, d)) + (-d,))
        g2 = gray_extended(d, 2)
        assert apply(omega, inverse(g2)).items == gray_extended(d, 1).items


def test_hyper_orthogonality_examples():
    assert is_hyper_orthogonal(gray_sequence(5), 4)
    assert not is_hyper_orthogonal(SignedSequence((1, 1), UNBOUNDED), 1)
    h3 = iterate(hilbert_system(HILBERT_SPECS["3d-origin"]), 2)
    assert is_hyper_orthogonal(h3, 1)


def test_gray_extended_stays_hyper_orthogonal():
    for d in (3, 4, 5):
        for type_ in (1, 2):
            assert is_hyper_orthogonal(gray_extended(d, type_), d - 2)


def test_gray_is_fully_hyper_orthogonal():
    for d in range(2, 11):
        assert is_hyper_orthogonal(gray_sequence(d), d - 1)


def test_hilbert_specs_validate():
    for spec in HILBERT_SPECS.values():
        validate_hilbert_spec(spec)


def test_hilbert_row_types():
    spec = HILBERT_SPECS["3d-origin"]
    types = [spec.row_type(TYPE2_STATE, i) for i in range(8)]
    assert types == [2, 2, 1, 2, 1, 2, 1, 1]
    spec4 = HILBERT_SPECS["4d-origin"]
    types4 = [spec4.row_type(TYPE1_STATE, i) for i in range(16)]
    assert types4 == [2, 2] + [1, 2] * 6 + [1, 1]


def test_hilbert_prefixes():
    want = {
        "3d-origin": (1, 2, -1, 3, 1, -2, -1, 3, 1, 3, -1, 2, 1, -3, -1, 2, 1, 3, -1, 2,
                      1, -3, -1, -3, -2),
        "3d-nonorigin": (1, 2, -1, 3, 1, -2, -1, -2, -3, 1, 3, -2, -3, -1, 3, -1, -3, -1,
                         3, 2, -3, 1, 3, 2, -1, -3, 1),
        "4d-origin": (1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 4, 1, 3, -1, 4,
                      1, -3, -1, 2, 1, 3, -1, -4, 1),
        "4d-nonorigin": (1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, -3, 1, -4,
                         -1, 2, 1, 4, -1, -3, 1, -4, -1),
    }
    for key, prefix in want.items():
        got = iterate(hilbert_system(HILBERT_SPECS[key]), 2)
        assert got.items[: len(prefix)] == prefix, key


def test_hilbert_systems_extend():
    for key in HILBERT_SPECS:
        assert check_extending(hilbert_system(HILBERT_SPECS[key]), 3), key


def test_hilbert_3d_level2_covers_cube():
    # the second-level state has 64 edges (63 in the cube plus the exit
    # connector) and visits each vertex of the 4x4x4 cube exactly once
    from collections import Counter

    from fracseq.geometry import cubic_grid, trace

    s = iterate(hilbert_system(HILBERT_SPECS["3d-origin"]), 1)
    assert len(s) == 64
    p = trace(SignedSequence(s.items[:-1], s.digiset), cubic_grid(3))
    counts = Counter(p.vertices)
    assert len(counts) == 64 and max(counts.values()) == 1
    assert all(0 <= c <= 3 for v in counts for c in v)


def test_entry_point_examples():
    assert entry_point(3, 2, 2, "1/3") == (1, 0, 1)
    assert entry_point(3, 1, 1, "1/3") == (0, 0, 0)
    assert entry_point(4, 3, 1, "1/3") == (2, 2, 2, 0)
    assert entry_point(3, 2, 1, "2/3") == (2, 2, 0)


def test_entry_point_recurrence_matches_closed_form():
    # oracle: e_k = floor(2**k / 3) for x = 1/3, floor(2**(k+1) / 3) for 2/3
    for k in range(1, 12):
        e_third = entry_point(3, k, 1, "1/3")[0]
        assert e_third == (2**k) // 3
        e_two_thirds = entry_point(3, k, 1, "2/3")[0]
        assert e_two_thirds == (2 ** (k + 1)) // 3
    first = [entry_point(3, k, 1, "1/3")[0] for k in range(1, 7)]
    assert first == [0, 1, 2, 5, 10, 21]


def test_entry_point_validation():
    with pytest.raises(ValueError):
        entry_point(2, 1, 1, "1/3")
    with pytest.raises(ValueError):
        entry_point(3, 1, 3, "1/3")
    with pytest.raises(ValueError):
        entry_point(3, 1, 1, "1/2")


def test_corrupted_table_fails_closure_check():
    import dataclasses

    from fracseq.perms import PermError

    spec = HILBERT_SPECS["3d-origin"]
    rows = list(spec.tables[TYPE2_STATE])
    rows[4] = SignedPermutation((1, 2, 3))
    bad = dataclasses.replace(
        spec, tables={TYPE1_STATE: spec.tables[TYPE1_STATE], TYPE2_STATE: tuple(rows)})
    with pytest.raises(PermError):
        hilbert_system(bad)


def test_corrupted_table_fails_row_count_and_glue_checks():
    import dataclasses

    from fracseq.perms import PermError

    spec = HILBERT_SPECS["3d-origin"]

    def with_type2(rows):
        return dataclasses.replace(spec, tables={TYPE1_STATE: spec.tables[TYPE1_STATE], TYPE2_STATE: rows})

    with pytest.raises(PermError, match=r"^H'' table must have 8 rows, got 7$"):
        validate_hilbert_spec(with_type2(spec.tables[TYPE2_STATE][:7]))
    # [-2,-1,-3] still exits block 4 along edge 1, but enters it along -3
    rows = list(spec.tables[TYPE2_STATE])
    rows[4] = SignedPermutation((-2, -1, -3))
    with pytest.raises(PermError, match=r"^H'' blocks 3 and 4 do not glue: exit 3 vs entry -3$"):
        validate_hilbert_spec(with_type2(tuple(rows)))


def test_wholecurve_missing_state():
    from fracseq.substitution import RuleError, StateAtom, Term, expand_wholecurve

    sys_ = hilbert_system(HILBERT_SPECS["3d-origin"])
    with pytest.raises(RuleError, match="missing state"):
        expand_wholecurve(sys_.rule, 1, {})
