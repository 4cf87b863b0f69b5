import itertools

import pytest
from hypothesis import given, strategies as st

from fracseq.sequences import (
    Digiset,
    DigisetError,
    SignedSequence,
    UNBOUNDED,
    abs_seq,
    characteristic_perm,
    characteristic_perm_info,
    compare,
    concat,
    fold,
    inverse,
    is_normalized,
    minimal_normalized,
    negate,
    normalize,
    parse_sequence,
    reverse,
    seq,
    sort_key,
)
from fracseq.perms import SignedPermutation, apply, invert


def s(*items, digiset=UNBOUNDED):
    return SignedSequence(tuple(items), digiset)


# ---------------------------------------------------------------- digisets

def test_digiset_membership():
    d3 = Digiset(3)
    assert 1 in d3 and -3 in d3
    assert 0 not in d3 and 4 not in d3 and -4 not in d3
    assert -1 not in Digiset(3, positive_only=True)
    assert 10**9 in UNBOUNDED and 0 not in UNBOUNDED


def test_sequence_validation():
    with pytest.raises(DigisetError):
        s(1, 0, digiset=Digiset(2))
    with pytest.raises(DigisetError):
        s(1, 3, digiset=Digiset(2))
    # each distinct item is checked once, and the message still names the
    # first bad item at its first position
    with pytest.raises(DigisetError, match=r"^item 5 at position 3 not in D4$"):
        s(1, -2, 3, 5, 4, 5, -7, digiset=Digiset(4))
    with pytest.raises(DigisetError, match=r"^item -2 at position 2 not in \+D3$"):
        s(1, 3, -2, 2, -2, -1, digiset=Digiset(3, positive_only=True))
    with pytest.raises(DigisetError, match=r"^item 0 at position 1 not in D\*$"):
        s(10**9, 0, -5, 0)
    assert s(10**9, -1, 10**9).items == (10**9, -1, 10**9)


# ---------------------------------------------------------------- concat

def test_concat_examples():
    assert concat(s(1, 2), s(-1)).items == (1, 2, -1)
    assert concat(s(), s(2, 1)).items == (2, 1)
    # no cancellation: <1>,<-1> stays length 2
    assert concat(s(1), s(-1)).items == (1, -1)
    assert len(concat(s(1), s(-1))) == 2


def test_concat_digiset_mismatch():
    with pytest.raises(DigisetError):
        concat(s(1, digiset=Digiset(2)), s(1, digiset=Digiset(3)))


# ------------------------------------------------- reverse/negate/inverse

def test_reverse_examples():
    assert reverse(s(5, 7, -2)).items == (-2, 7, 5)
    assert reverse(s(1, 2, -1)).items == (-1, 2, 1)
    assert reverse(s()).items == ()


def test_negate_examples():
    assert negate(s(1, 2, -1)).items == (-1, -2, 1)
    assert negate(s()).items == ()
    assert negate(negate(s(2, -3))).items == (2, -3)


def test_inverse_examples():
    assert inverse(s(1, 2, -1)).items == (1, -2, -1)
    assert inverse(s(5)).items == (-5,)
    assert inverse(s()).items == ()


def test_abs_examples():
    assert abs_seq(s(1, 2, -1, 3)).items == (1, 2, 1, 3)
    # Gray prefix projects to the ruler function
    assert abs_seq(s(1, 2, -1, 3, 1, -2, -1, 4)).items == (1, 2, 1, 3, 1, 2, 1, 4)
    assert abs_seq(s()).items == ()


@given(st.lists(st.integers(-9, 9).filter(lambda x: x != 0), max_size=40))
def test_involutions_and_composition(xs):
    a = s(*xs)
    assert reverse(reverse(a)) == a
    assert negate(negate(a)) == a
    assert inverse(inverse(a)) == a
    assert inverse(a) == negate(reverse(a))


@given(
    st.lists(st.integers(-9, 9).filter(lambda x: x != 0), max_size=20),
    st.lists(st.integers(-9, 9).filter(lambda x: x != 0), max_size=20),
)
def test_reverse_anti_morphism(xs, ys):
    a, b = s(*xs), s(*ys)
    assert reverse(concat(a, b)) == concat(reverse(b), reverse(a))


# ---------------------------------------------------------- normalization

def test_is_normalized_examples():
    assert is_normalized(s(1, 2, -1, 2))
    assert not is_normalized(s(1, 3, 4, -2, -1, 3))
    assert is_normalized(s())
    assert not is_normalized(s(-1))
    assert not is_normalized(s(2, 1))
    assert is_normalized(s(1, 3))  # skipped magnitudes are allowed


def test_characteristic_perm_paper_example():
    # first new-axis occurrences 1,3,4,-2
    sigma = characteristic_perm(s(1, 3, 4, -2, -1, 3, 4, -2))
    assert sigma.images == (1, -4, 2, 3)


def test_characteristic_perm_identity_case():
    assert characteristic_perm(s(1, 2, -1)).images == (1, 2)


def brute_normalizing_perms(items, n):
    """All signed perms of size n that normalize the given items."""
    out = []
    for mags in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            p = SignedPermutation(tuple(m * sg for m, sg in zip(mags, signs)))
            if is_normalized(apply(p, SignedSequence(items))):
                out.append(p)
    return out


def test_characteristic_perm_exhaustive_length2():
    # oracle: for every length-2 sequence on {+-1,+-2} covering both axes,
    # the returned perm must be among the brute-force normalizers
    digits = (1, -1, 2, -2)
    for a in digits:
        for b in digits:
            if {abs(a), abs(b)} != {1, 2}:
                continue
            t = s(a, b, digiset=Digiset(2))
            sigma = characteristic_perm(t)
            assert sigma in brute_normalizing_perms((a, b), 2)
            assert is_normalized(apply(sigma, t))
    # frozen instance from the exhaustive oracle
    sigma = characteristic_perm(s(-1, 2))
    assert sigma.images == (-1, 2)
    assert invert(sigma).images == (-1, 2)
    assert apply(sigma, s(-1, 2)).items == (1, 2)


def test_characteristic_perm_missing_magnitudes_flagged():
    sigma, missing = characteristic_perm_info(s(1, 3, digiset=Digiset(3)))
    assert missing == (2,)
    assert is_normalized(apply(sigma, s(1, 3, digiset=Digiset(3))))


@given(st.lists(st.integers(-5, 5).filter(lambda x: x != 0), min_size=1, max_size=64))
def test_characteristic_perm_normalizes(xs):
    mags = {abs(x) for x in xs}
    n = max(mags)
    if mags != set(range(1, n + 1)):
        xs = xs + [m for m in range(1, n + 1) if m not in mags]
    t = s(*xs)
    assert is_normalized(apply(characteristic_perm(t), t))


def test_minimal_normalized_examples():
    assert minimal_normalized(s(1, 2, 1, 1)).items == (1, 1, 2, 1)
    assert minimal_normalized(s(1)).items == (1,)
    # oracle: enumerate both candidates by hand
    cand = {normalize(s(-2, -1)).items, normalize(reverse(s(-2, -1))).items}
    assert cand == {(1, 2)}
    assert minimal_normalized(s(-2, -1)).items == (1, 2)


# ----------------------------------------------------------------- order

def test_compare_examples():
    assert compare(s(1, 1, 2), s(1, 2, 1)) == -1
    assert compare(s(1, 2, 3), s(1, 2, -1)) == -1
    assert compare(s(1), s(1, 1)) == -1  # prefix precedes extension
    assert compare(s(2, 1), s(2, 1)) == 0
    assert compare(s(-1), s(-2)) == 1


def test_digit_order():
    digits = [1, 2, 3, -3, -2, -1]
    keys = [sort_key(s(d)) for d in digits]
    assert keys == sorted(keys)


@given(
    st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=8),
    st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=8),
    st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=8),
)
def test_compare_total_order(xs, ys, zs):
    a, b, c = s(*xs), s(*ys), s(*zs)
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    assert (compare(a, b) == 0) == (a.items == b.items)


# ------------------------------------------------------------------ fold

def test_fold_examples():
    assert fold([1]).items == (1,)
    assert fold([1, 2]).items == (1, 2, -1)
    assert fold([1, 2, 3, 4]).items == (
        1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1)


# ----------------------------------------------------------------- parse

def test_parse_sequence():
    assert parse_sequence("<1, 2, -1>").items == (1, 2, -1)
    assert parse_sequence("1,2,-1").items == (1, 2, -1)
    assert parse_sequence("⟨1, -2⟩").items == (1, -2)
    assert parse_sequence("<>").items == ()
    with pytest.raises(ValueError):
        parse_sequence("<1, x>")
