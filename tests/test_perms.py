import itertools
import random

import pytest
from hypothesis import given, strategies as st

from fracseq import perms
from fracseq.geometry import eighth_roots_grid, square_diagonal_grid, square_grid
from fracseq.perms import (
    PermError,
    PermMatrix,
    SignedPermutation,
    apply,
    apply_items,
    compose,
    from_matrix,
    generate_group,
    identity,
    invert,
    is_grid_isometry,
    named_perm,
    parity,
    parse_perm,
    power,
    to_matrix,
)
from fracseq.sequences import SignedSequence


def p(*images):
    return SignedPermutation(tuple(images))


def all_signed_perms(n):
    for mags in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(m * sg for m, sg in zip(mags, signs)))


def cofactor_det(rows):
    """Independent determinant oracle: Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        if rows[0][col] == 0:
            continue
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        total += (-1) ** col * rows[0][col] * cofactor_det(minor)
    return total


# ------------------------------------------------------------- validation

def test_rejects_non_bijections():
    with pytest.raises(PermError, match="magnitude 2"):
        SignedPermutation((2, -2))
    with pytest.raises(PermError):
        SignedPermutation((1, 3))
    with pytest.raises(PermError):
        SignedPermutation((0, 1))


# ------------------------------------------------------------------ apply

def test_apply_examples():
    assert apply(p(-2, 4, -1, 3), SignedSequence((-3,))).items == (1,)
    assert apply(identity(2), SignedSequence((1, -2))).items == (1, -2)
    got = apply(p(2, -1), SignedSequence((1, 2, -1)))
    assert got.items == (2, -1, -2)


def test_apply_matches_matrix_action():
    # oracle: multiply the matrix against each signed unit vector
    sigma = p(2, -1)
    m = to_matrix(sigma)
    for digit in (1, 2, -1, -2):
        col = [0, 0]
        col[abs(digit) - 1] = 1 if digit > 0 else -1
        out = [sum(m.rows[r][c] * col[c] for c in range(2)) for r in range(2)]
        axis = next(i for i, v in enumerate(out) if v != 0)
        expected = (axis + 1) * out[axis]
        assert apply(sigma, SignedSequence((digit,))).items == (expected,)


def test_apply_range_error():
    with pytest.raises(PermError):
        apply(p(2, -1), SignedSequence((3,)))
    sigma = p(2, -3, 1)
    assert apply_items(sigma, (1, -1, 2, -2, 3, -3)) == (2, -2, -3, 3, 1, -1)
    # 0 is no signed digit: it must not read as the negated last image
    for bad in (0, 4, -4):
        with pytest.raises(PermError, match=f"^digit {bad} outside dimension 3$"):
            apply_items(sigma, (1, bad, 0, 5))


# ---------------------------------------------------------------- compose

def test_compose_paper_example():
    assert compose(p(-2, 4, -1, 3), p(3, -1, 4, -2)).images == (-1, 2, 3, -4)


def test_compose_identity():
    a = p(2, -1)
    assert compose(a, identity(2)) == a
    assert compose(identity(2), a) == a


def test_mu_order_four():
    mu = p(2, -1)
    assert power(mu, 4) == identity(2)
    assert power(mu, 2) == p(-1, -2)


def test_compose_dimension_mismatch():
    with pytest.raises(PermError):
        compose(p(2, -1), p(1, 2, 3))


# ----------------------------------------------------------------- invert

def test_invert_examples():
    assert invert(p(1, 3, 4, -2)).images == (1, -4, 2, 3)
    assert invert(identity(3)) == identity(3)
    # oracle: brute-force search for the inverse
    target = p(2, -1)
    brute = [q for q in all_signed_perms(2) if compose(target, q) == identity(2)]
    assert brute == [p(-2, 1)]
    assert invert(target) == p(-2, 1)


@given(st.integers(1, 6), st.integers(0, 10**6))
def test_invert_round_trip(n, seed):
    rng = random.Random(seed)
    mags = list(range(1, n + 1))
    rng.shuffle(mags)
    q = SignedPermutation(tuple(m * rng.choice((1, -1)) for m in mags))
    assert compose(q, invert(q)) == identity(n)
    assert compose(invert(q), q) == identity(n)


# ----------------------------------------------------------------- parity

def test_parity_examples():
    m = to_matrix(p(-2, 4, -1, 3))
    assert cofactor_det([list(r) for r in m.rows]) == -1
    assert parity(p(-2, 4, -1, 3)) == -1
    assert parity(identity(3)) == 1
    assert parity(p(2, -1)) == 1  # one negative image, one inversion


def test_parity_equals_determinant_exhaustive_small():
    for n in (1, 2, 3):
        for q in all_signed_perms(n):
            m = to_matrix(q)
            assert parity(q) == m.determinant() == cofactor_det([list(r) for r in m.rows])


def test_parity_homomorphism():
    rng = random.Random(7)
    perms = list(all_signed_perms(3))
    for _ in range(300):
        a, b = rng.choice(perms), rng.choice(perms)
        assert parity(compose(a, b)) == parity(a) * parity(b)


# ----------------------------------------------------------------- matrix

def test_to_matrix_paper_example():
    assert to_matrix(p(-2, 4, -1, 3)).rows == (
        (0, 0, -1, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 1, 0, 0),
    )


def test_matrix_identity():
    assert to_matrix(identity(3)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrix_round_trip_exhaustive_n3():
    count = 0
    for q in all_signed_perms(3):
        assert from_matrix(to_matrix(q)) == q
        count += 1
    assert count == 48


def test_matrix_validation():
    with pytest.raises(PermError):
        PermMatrix(((1, 1), (0, 0)))


# ------------------------------------------------------------ named perms

def test_named_perm_examples():
    assert named_perm("mu", 2).images == (2, -1)
    assert named_perm("tau_d", 2).images == (2, 1)
    assert named_perm("mu", 4).images == (2, 3, 4, -1)
    assert named_perm("mu", 3, positive_only=True).images == (2, 3, 1)
    assert named_perm("negation", 2).images == (-1, -2)
    with pytest.raises(PermError):
        named_perm("tau_x", 3)
    with pytest.raises(PermError):
        named_perm("tau_y", 2, positive_only=True)


# ---------------------------------------------------------------- groups

def test_group_of_24():
    g = generate_group([p(3, -2, -1), p(-1, -3, 2)])
    assert len(g) == 24


def test_group_identity_only():
    assert generate_group([identity(3)]) == frozenset({identity(3)})


def test_group_of_192():
    g = generate_group([p(4, 3, 1, 2), p(4, -2, -1, 3)])
    assert len(g) == 192


def test_dihedral_group_matches_table():
    g = generate_group([p(2, -1), p(1, -2)])
    expected = {
        (1, 2), (2, -1), (-1, -2), (-2, 1),  # rotations
        (-1, 2), (1, -2), (2, 1), (-2, -1),  # reflections
    }
    assert {q.images for q in g} == expected


def test_hyperoctahedral_order():
    for n in (1, 2, 3, 4):
        gens = [SignedPermutation(tuple(-1 if k == 1 else k for k in range(1, n + 1)))]
        for i in range(1, n):
            img = list(range(1, n + 1))
            img[i - 1], img[i] = img[i], img[i - 1]
            gens.append(SignedPermutation(tuple(img)))
        assert len(generate_group(gens)) == 2**n * __import__("math").factorial(n)


def test_group_cap(monkeypatch):
    monkeypatch.setattr(perms, "GROUP_CAP", 3)
    with pytest.raises(PermError):
        generate_group([p(2, -1), p(1, -2)])


# -------------------------------------------------------------- isometry

def test_is_grid_isometry():
    mu4 = p(2, 3, 4, -1)
    assert is_grid_isometry(mu4, eighth_roots_grid())  # octagon rotation
    # mixed generator lengths: rotating by one step maps a unit axis onto
    # a sqrt2 axis, so this is not an isometry of the square-diagonal grid
    assert not is_grid_isometry(mu4, square_diagonal_grid())
    assert is_grid_isometry(p(2, 1), square_grid())
    assert not is_grid_isometry(p(1, 3, 2, 4), square_diagonal_grid())


# -------------------------------------------------------- morphism laws

@given(
    st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=16),
    st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=16),
    st.integers(0, 10**6),
)
def test_apply_is_a_morphism(xs, ys, seed):
    from fracseq.sequences import concat, reverse

    rng = random.Random(seed)
    mags = [1, 2, 3]
    rng.shuffle(mags)
    q = SignedPermutation(tuple(m * rng.choice((1, -1)) for m in mags))
    a, b = SignedSequence(tuple(xs)), SignedSequence(tuple(ys))
    assert apply(q, concat(a, b)) == concat(apply(q, a), apply(q, b))
    assert apply(q, reverse(a)) == reverse(apply(q, a))


# ------------------------------------------------------------------ parse

def test_parse_perm():
    assert parse_perm("[2,-1]").images == (2, -1)
    assert parse_perm(" [3, 1, 2] ").images == (3, 1, 2)
    with pytest.raises(PermError, match="magnitude 1"):
        parse_perm("[1,-1]")
    with pytest.raises(PermError):
        parse_perm("2,-1")
