import random
from itertools import chain

import pytest

from fracseq import substitution
from fracseq.catalog import (
    arndt_peano_system,
    arndt_truncated_system,
    beta_omega_state_system,
    beta_omega_system,
    box4_system,
    hilbert_digit_system,
    hilbert_drawing_system,
    hilbert_original_system,
    mandelbrot_island_system,
    v1_dragon_length_system,
    TRUNCATED_SQUARE_PAIRS,
)
from fracseq.gray import gray_sequence, gray_t1_system, gray_t2_system
from fracseq.perms import SignedPermutation, identity
from fracseq.sequences import Digiset, SignedSequence, normalize
from fracseq.substitution import (
    DigitRule,
    EdgewiseRule,
    PostTransform,
    RuleError,
    StateAtom,
    Term,
    WholeCurveRule,
    check_commutation,
    check_extending,
    SubstitutionSystem,
    expand_pairwise,
    expand_wholecurve,
    is_expansive,
    iterate,
    iterate_full,
    project,
)

MU = SignedPermutation((2, -1))
TAU_D = SignedPermutation((2, 1))
IOTA = identity(2)

ARNDT_RULE = arndt_peano_system().rule


def expand_edgewise(rule, s):
    """One iterate step of an edgewise rule from start ``s``."""
    return iterate(SubstitutionSystem(digiset=s.digiset, rule=rule, start=s.items), 1)


def expand_digitwise(rule, stream):
    """One digitwise level from a variant start: the rule's images of the
    variants, whose digits one ``iterate`` step must reproduce."""
    variants = tuple(chain.from_iterable(map(rule.image, stream)))
    sys_ = SubstitutionSystem(digiset=Digiset(None), rule=rule, start=stream)
    assert iterate(sys_, 1).items == project(variants)
    return variants


def test_expand_edgewise_arndt():
    got = expand_edgewise(ARNDT_RULE, SignedSequence((1,), Digiset(2)))
    assert got.items == (1, 2, 1, -2, -1, -2, 1, 2, 1)
    got2 = expand_edgewise(ARNDT_RULE, SignedSequence((2,), Digiset(2)))
    assert got2.items == (2, -1, 2, 1, -2, 1, 2, -1, 2)
    assert expand_edgewise(ARNDT_RULE, SignedSequence((), Digiset(2))).items == ()


def test_expand_edgewise_is_morphism():
    rng = random.Random(1)
    for _ in range(100):
        a = tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randrange(6)))
        b = tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randrange(6)))
        ab = SignedSequence(a + b, Digiset(2))
        got = expand_edgewise(ARNDT_RULE, ab)
        parts = (expand_edgewise(ARNDT_RULE, SignedSequence(a, Digiset(2))).items
                 + expand_edgewise(ARNDT_RULE, SignedSequence(b, Digiset(2))).items)
        assert got.items == parts
        # negation symmetry
        neg = SignedSequence(tuple(-x for x in ab.items), Digiset(2))
        assert expand_edgewise(ARNDT_RULE, neg).items == tuple(-x for x in got.items)


def test_expand_digitwise_examples():
    hilbert = hilbert_digit_system().rule
    got = expand_digitwise(hilbert, ((1, 0),))
    assert got == ((1, 0), (2, 0), (-1, 1), (2, 1))
    assert project(got) == (1, 2, -1, 2)

    beta = beta_omega_system().rule
    assert expand_digitwise(beta, ((-1, 2),)) == ((2, 0), (1, 0), (-2, 1), (1, 2))

    t2 = gray_t2_system().rule
    assert project(expand_digitwise(t2, ((1, 0),))) == (1, 2, -1)


def test_digit_rule_negation_enforced():
    with pytest.raises(RuleError):
        DigitRule({(1, 0): ((1, 0),), (-1, 0): ((1, 0),)})


def _where(build):
    with pytest.raises(RuleError) as exc:
        build()
    return str(exc.value), exc.value.where


def test_construction_errors_name_the_part_at_fault():
    # the variant stored second completes the broken pair
    assert _where(lambda: DigitRule({(-1, 1): ((1, 0),), (2, 0): ((2, 0),), (1, 1): ((1, 0),)})) == (
        "digit rule breaks T(-x) = -T(x) at (1, 1)", ("digit", (1, 1)))
    assert _where(lambda: EdgewiseRule((Term(MU), Term(TAU_D), Term(identity(3))))) == (
        "all terms must share one dimension", ("term", 2))
    h = (StateAtom("H", Term(IOTA)), StateAtom("H", Term(MU)))
    assert _where(lambda: WholeCurveRule({"H": h, "G": h + (StateAtom("F", Term(MU)),)}, {"H": (1,)}, "H")) == (
        "production of 'G' references unknown state 'F'", ("atom", "G", 2))
    assert _where(lambda: WholeCurveRule({"H": h}, {"H": (1,)}, "G")) == (
        "unknown output state 'G'", ("output",))
    assert _where(lambda: WholeCurveRule({"H": h, "G": h}, {"H": (1,)}, "H")) == (
        "state 'G' has no start sequence", ("rule", "G"))
    # an error with no part to name
    assert _where(lambda: Term(MU, sign=2)) == ("term sign must be +1 or -1", None)


def test_expand_wholecurve_hilbert_drawing():
    sys_ = hilbert_drawing_system()
    nxt = expand_wholecurve(sys_.rule, 1, {"H": (1, 2, -1)})
    two = nxt["H"]
    assert len(two) == 15
    assert two == (2, 1, -2, 1, 1, 2, -1, 2, 1, 2, -1, -1, -2, -1, 2)
    assert normalize(SignedSequence(two, Digiset(2))).items[:8] == (1, 2, -1, 2, 2, 1, -2, 1)


def test_expand_wholecurve_beta():
    sys_ = beta_omega_state_system()
    nxt = expand_wholecurve(sys_.rule, 1, dict(sys_.rule.starts))
    # the reference level-2 curves are the post-transformed states
    tx = PostTransform(SignedPermutation((-1, 2)), "k")
    assert tx.apply_at(1, nxt["beta"]) == (1, 2, -1, -1, -2, -1, 2, 2, 2, 1, -2, 1, 2, 1, -2, 1)
    assert tx.apply_at(1, nxt["beta'"]) == (2, -1, -2, -1, 2, -1, -2, -2, -2, 1, 2, 1, 1, -2, -1, -2)
    assert tx.apply_at(1, nxt["omega"]) == (1, 2, -1, -1, -2, -1, 2, 2, 2, 1, -2, 1, 1, 2, -1, 2)


def test_beta_state_system_matches_digit_system():
    a = iterate(beta_omega_state_system(), 3)
    b = iterate(beta_omega_system(), 4)
    assert b.items[: len(a)] == a.items


def test_expand_pairwise_examples():
    rule = TRUNCATED_SQUARE_PAIRS
    assert rule.image((1, 2), 0) == (1, 2)
    assert rule.image((2, -1), 0) == (3, -4)
    assert rule.image((-2, 1), 0) == (-3, 4)  # negation closure
    lifted = expand_pairwise(rule, SignedSequence((1, 2, 1, -2, -1, -2, 1, 2, 1, 2), Digiset(2)))
    assert lifted.items[:18] == (1, 2, 3, 2, 1, 4, -3, -2, -1, -2, -3, 4, 1, 2, 3, 2, 1, 2)


def test_expand_pairwise_uncovered_pair():
    with pytest.raises(RuleError, match="position 1"):
        expand_pairwise(TRUNCATED_SQUARE_PAIRS, SignedSequence((1, 2, 2), Digiset(2)))


def test_expand_pairwise_closed_wraps():
    rule = TRUNCATED_SQUARE_PAIRS
    square = SignedSequence((1, 2, -1, -2), Digiset(2))
    out = expand_pairwise(rule, square, closed=True)
    assert len(out) == 8
    assert out.items[-2:] == rule.image((-2, 1), 0)


def test_iterate_examples():
    assert iterate(gray_t2_system(), 2).items == (1, 2, -1, 3, 1, -2, -1)
    assert iterate(box4_system(), 2).items == (
        1, 2, 1, -2, 1, -2, -1, -2, 1, -2, 1, 2, 1, 2, -1, 2)
    assert iterate(box4_system(), 0).items == (1,)
    assert iterate(mandelbrot_island_system(), 0).items == (1, 2, -1, -2)


def test_iterate_length_law():
    sys_ = arndt_peano_system()
    for k in range(4):
        assert len(iterate(sys_, k + 1)) == 9 * len(iterate(sys_, k))


def test_iterate_cap(monkeypatch):
    monkeypatch.setattr(substitution, "ITEM_CAP", 10**4)
    with pytest.raises(RuleError):
        iterate(arndt_peano_system(), 8)


def test_iterate_with_lengths():
    seq, exps = iterate_full(v1_dragon_length_system(), 2)
    assert seq.items == (1, 2, 3, 4, -1, 2, 3, 4, -2)
    assert exps == (0, 0, 1, 1, 0, 0, 1, 1, 2)


def test_check_extending():
    assert check_extending(hilbert_original_system(), 4)
    assert not check_extending(hilbert_drawing_system(), 2)
    assert check_extending(gray_t2_system(), 6)
    assert check_extending(box4_system(), 4)
    # island approximants restart relative to their square start
    assert not check_extending(mandelbrot_island_system(), 1)


def test_check_commutation():
    assert check_commutation(ARNDT_RULE, MU)
    assert check_commutation(ARNDT_RULE, identity(2))
    dekking = __import__("fracseq.catalog", fromlist=["dekking_flowsnake_system"])
    assert not check_commutation(dekking.dekking_flowsnake_system().rule, MU)
    # the Hilbert digit rule commutes with the mark-preserving diagonal swap
    assert check_commutation(hilbert_digit_system().rule, TAU_D)


def test_is_expansive():
    assert is_expansive(arndt_peano_system())
    assert is_expansive(beta_omega_system())
    assert is_expansive(gray_t1_system())
    assert not is_expansive(gray_t2_system())  # single-digit images off axis 1
    from fracseq.catalog import arndt_truncated_system

    assert is_expansive(arndt_truncated_system())  # re-coding, exempt


def test_term_validation():
    with pytest.raises(RuleError):
        Term(MU, sign=2)
    with pytest.raises(RuleError):
        Term(MU, alt_sign="j")
    with pytest.raises(RuleError):
        EdgewiseRule(())


def test_post_transform_requires_involution():
    with pytest.raises(RuleError):
        PostTransform(SignedPermutation((2, 3, 1)), "k")


def test_gray_t1_t2_agree():
    a = iterate(gray_t1_system(), 8)
    b = iterate(gray_t2_system(), 8)
    n = min(len(a), len(b))
    assert a.items[:n] == b.items[:n]
    assert a.items[:n] == gray_sequence(9).items[:n][:n]


def test_kind_and_start_level_come_from_the_rule_type():
    cases = (
        (arndt_peano_system(), "edgewise", 0),
        (hilbert_digit_system(), "digitwise", 0),
        (hilbert_original_system(), "wholecurve", 1),
        (arndt_truncated_system(), "pairlift", 0),
    )
    for sys_, kind, start_level in cases:
        assert (sys_.kind, sys_.rule.kind, sys_.start_level) == (kind, kind, start_level)
    # neither can be given, so neither can disagree with the rule
    with pytest.raises(TypeError):
        SubstitutionSystem(kind="digitwise", digiset=Digiset(2), rule=ARNDT_RULE, start=(1,))
    with pytest.raises(TypeError):
        SubstitutionSystem(digiset=Digiset(2), rule=hilbert_original_system().rule, start_level=0)


def test_system_needs_a_substitution_rule():
    for rule in ("edgewise", ARNDT_RULE.terms, TRUNCATED_SQUARE_PAIRS.mapping):
        with pytest.raises(RuleError, match="not a substitution rule"):
            SubstitutionSystem(digiset=Digiset(2), rule=rule, start=(1,))
