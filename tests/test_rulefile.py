import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fracseq.perms import SignedPermutation
from fracseq.rulefile import ParseError, parse_rule_file
from fracseq.substitution import PostTransform, check_extending, is_expansive, iterate

ARNDT = """\
# Peano curve on the square grid
name arndt-peano
digiset 2
kind edgewise
start 1
term [1,2]
term [2,-1]
term [1,2]
term -[2,-1]
term -[1,2]
term -[2,-1]
term [1,2]
term [2,-1]
term [1,2]
"""

BOX4 = """\
name box4
digiset 2
kind edgewise
start 1
term [1,2]
term ~k[2,1]*R
term [1,-2]
term ~k+1[2,-1]*R
"""

V1 = """\
name v1
digiset 4
kind edgewise
start 1
term [1,2,3,4]
term [2,-1,4,-3]*R
term [3,4,-2,1]*sqrt2
"""

HILBERT_DIGITS = """\
name hilbert
digiset 2
kind digitwise
start 1
digit 1 -> 1,2,-1',2'
digit 1' -> -2,-1,2',2
digit 2 -> 2,1,-2',1'
digit 2' -> -1,-2,1',1
"""

HILBERT_WHOLECURVE = """\
name hilbert-original
digiset 2
kind wholecurve
start H 1,2,-1
rule H
atom H [1,2]
atom connector 1 [2,1]^k
atom H [2,1]
atom connector 2 [2,1]^k
atom H [2,1]
atom connector -1 [2,1]^k
atom H -[1,2]
output H
"""

PAIRS = """\
name truncated
digiset 4
kind pairlift
start 1,2,1,-2,-1,-2,1,2,1
pair 1,2 -> 1,2
pair 1,-2 -> 1,4
pair 2,1 -> 3,2
pair 2,-1 -> 3,-4
"""


def test_parse_arndt():
    parsed = parse_rule_file(ARNDT)
    assert parsed.name == "arndt-peano"
    assert parsed.kind == "edgewise"
    assert iterate(parsed, 1).items == (1, 2, 1, -2, -1, -2, 1, 2, 1)
    assert is_expansive(parsed)


def test_parse_box4_alternating_signs():
    parsed = parse_rule_file(BOX4)
    assert iterate(parsed, 2).items == (
        1, 2, 1, -2, 1, -2, -1, -2, 1, -2, 1, 2, 1, 2, -1, 2)
    assert check_extending(parsed, 3)


def test_parse_v1_scale():
    parsed = parse_rule_file(V1)
    terms = parsed.rule.terms
    assert terms[1].reverse and terms[1].scale_pow == 0
    assert terms[2].scale_pow == 1


def test_parse_digit_rule():
    parsed = parse_rule_file(HILBERT_DIGITS)
    assert iterate(parsed, 1).items == (1, 2, -1, 2)
    assert iterate(parsed, 2).items[:8] == (1, 2, -1, 2, 2, 1, -2, 1)


def test_parse_wholecurve():
    parsed = parse_rule_file(HILBERT_WHOLECURVE)
    assert iterate(parsed, 1).items == (
        1, 2, -1, 2, 2, 1, -2, 1, 2, 1, -2, -2, -1, -2, 1)


def test_parse_pairlift():
    parsed = parse_rule_file(PAIRS)
    out = iterate(parsed, 0)
    assert out.items[:12] == (1, 2, 3, 2, 1, 4, -3, -2, -1, -2, -3, 4)


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_rule_file("digiset 2\nkind edgewise\nterm [1,1]\n")
    assert exc.value.line == 3
    assert "magnitude 1" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_rule_file("digiset 2\nkind digitwise\ndigit 1 -> 1,x\n")
    assert exc.value.line == 3

    with pytest.raises(ParseError, match="unknown directive"):
        parse_rule_file("frobnicate 1\n")

    # a connector's digit and its perm are located like any other token
    head = "digiset 2\nkind wholecurve\nrule H\n"
    with pytest.raises(ParseError, match="bad connector digit 'tor'") as exc:
        parse_rule_file(head + "atom connector tor [2,1]^k\n")
    assert (exc.value.line, exc.value.col) == (4, 16)
    with pytest.raises(ParseError, match="magnitude 2 appears twice") as exc:
        parse_rule_file(head + "atom connector 1 [2,2]^k\n")
    assert (exc.value.line, exc.value.col) == (4, 18)


def test_state_is_an_unknown_directive():
    text = HILBERT_WHOLECURVE.replace("kind wholecurve\n", "kind wholecurve\n  state H\n")
    with pytest.raises(ParseError, match="unknown directive 'state'") as exc:
        parse_rule_file(text)
    assert (exc.value.line, exc.value.col) == (4, 3)
    assert str(exc.value).startswith("line 4, column 3: ")


def test_missing_sections():
    with pytest.raises(ParseError, match="missing digiset"):
        parse_rule_file("kind edgewise\nterm [1,2]\n")
    with pytest.raises(ParseError, match="missing kind"):
        parse_rule_file("digiset 2\n")
    with pytest.raises(ParseError, match="no terms"):
        parse_rule_file("digiset 2\nkind edgewise\n")


def test_unbounded_digiset():
    parsed = parse_rule_file("digiset unbounded\nkind edgewise\nstart 1\nterm [1,2]\nterm [2,-1]\n")
    assert parsed.digiset.size is None


# the directives each kind reads, besides name, digiset and kind
READS = {
    "edgewise": ("start", "term", "post"),
    "digitwise": ("start", "digit", "post"),
    "wholecurve": ("start", "rule", "atom", "output", "post"),
    "pairlift": ("start", "pair"),
}
KIND_TEXTS = {"edgewise": ARNDT, "digitwise": HILBERT_DIGITS, "wholecurve": HILBERT_WHOLECURVE, "pairlift": PAIRS}
DIRECTIVE_LINES = {
    "start": "start 1",
    "term": "term [1,2]",
    "digit": "digit 1 -> 1,2",
    "pair": "pair 1,2 -> 1,2",
    "rule": "rule H",
    "atom": "atom H [1,2]",
    "output": "output H",
    "post": "post [2,1]^k",
}
FOREIGN = [(kind, d) for kind, reads in READS.items() for d in DIRECTIVE_LINES if d not in reads]


@pytest.mark.parametrize("kind,directive", FOREIGN)
def test_foreign_directive_is_an_error_at_its_line(kind, directive):
    text = KIND_TEXTS[kind]
    with pytest.raises(ParseError, match=f"a {kind} rule does not read '{directive}'") as exc:
        parse_rule_file(text + "  " + DIRECTIVE_LINES[directive] + "\n")
    assert (exc.value.line, exc.value.col) == (len(text.splitlines()) + 1, 3)


def test_kind_comes_once():
    with pytest.raises(ParseError, match="second kind line") as exc:
        parse_rule_file(ARNDT + "kind edgewise\n")
    assert (exc.value.line, exc.value.col) == (len(ARNDT.splitlines()) + 1, 1)


def test_kind_comes_before_its_directives():
    text = HILBERT_WHOLECURVE.replace("kind wholecurve\nstart H 1,2,-1\n", "start H 1,2,-1\nkind wholecurve\n")
    with pytest.raises(ParseError, match="'start' before the kind line") as exc:
        parse_rule_file(text)
    assert (exc.value.line, exc.value.col) == (3, 1)
    # name and digiset may stand anywhere
    assert parse_rule_file(ARNDT.replace("name arndt-peano\ndigiset 2\n", "") + "digiset 2\nname x\n").name == "x"


# every digit a file states lies in its digiset, sign included, and every
# perm has its dimension, wherever the digiset line stands:
# (file, line, column, message)
OUTSIDE_DIGISET = [
    ("digiset 2\nkind edgewise\nstart 1,3\nterm [1,2]\nterm [2,-1]\n", 3, 9, "digit 3 outside digiset D2"),
    ("kind edgewise\nstart 1\nterm [1,2,3]\nterm [2,3,1]\ndigiset 2\n", 3, 6,
     "perm [1,2,3] of dimension 3 outside digiset D2"),
    ("digiset 2\nkind digitwise\nstart 1\ndigit 1 -> 1,3\n", 4, 14, "digit 3 outside digiset D2"),
    ("digiset 2\nkind digitwise\nstart 1\ndigit 3 -> 1,2\n", 4, 7, "digit 3 outside digiset D2"),
    ("digiset 2\nkind digitwise\nstart 1,  -3'\ndigit 1 -> 1,2\n", 3, 11, "digit -3 outside digiset D2"),
    ("digiset 2\nkind pairlift\nstart 1,2\npair 1,3 -> 1,2\n", 4, 8, "digit 3 outside digiset D2"),
    ("digiset 2\nkind pairlift\nstart 1,2\npair 1,2 -> <1, -4>\n", 4, 17, "digit -4 outside digiset D2"),
    ("digiset 2\nkind wholecurve\nstart H 2,13\nrule H\natom H [1,2]\natom H [2,1]\n", 3, 11,
     "digit 13 outside digiset D2"),
    ("digiset 2\nkind wholecurve\nstart H 1\nrule H\natom H [1,2]\natom connector 3\n", 6, 16,
     "digit 3 outside digiset D2"),
    ("digiset 2\nkind wholecurve\nstart H 1\nrule H\natom H [1,2]\natom connector 1 [3,2,1]^k\n", 6, 18,
     "perm [3,2,1] of dimension 3 outside digiset D2"),
    ("digiset 2\nkind wholecurve\nstart H 1\nrule H\natom H [1,2]\natom H [1,2,3]\n", 6, 6,
     "perm [1,2,3] of dimension 3 outside digiset D2"),
    ("digiset 2\nkind edgewise\nstart 1\nterm [1,2]\npost [3,2,1]^k\n", 5, 6,
     "perm [3,2,1] of dimension 3 outside digiset D2"),
    ("digiset 2\nkind edgewise\nstart 1,2\nterm [1]\nterm [1]\n", 4, 6,
     "perm [1] of dimension 1 short of digiset D2"),
    ("digiset 2 positive\nkind edgewise\nstart 1,-2\nterm [1,2]\nterm [2,1]\n", 3, 9,
     "digit -2 outside digiset +D2"),
]


@pytest.mark.parametrize("text, line, col, message", OUTSIDE_DIGISET, ids=[
    "start", "term-before-digiset", "digit-image", "digit-variant", "digitwise-start", "pair-context",
    "pair-image", "wholecurve-start", "connector-digit", "connector-perm", "atom-perm", "post-perm",
    "term-below-digiset", "positive-digiset"])
def test_digits_outside_the_digiset_name_their_token(text, line, col, message):
    assert _error_at(text) == (f"line {line}, column {col}: {message}", line, col)
    # an unbounded digiset bounds nothing
    parse_rule_file(text.replace("digiset 2", "digiset unbounded"))


# a directive stated twice is an error at the second line, the line after
# the text: (text, second line, column, message)
STATED_TWICE = [
    (ARNDT, "name other", 1, "a second name line"),
    (ARNDT, "digiset 3", 1, "a second digiset line"),
    (ARNDT, "  start 1", 3, "a second start line"),
    (ARNDT + "post [2,1]^k\n", "post [2,1]^k", 1, "a second post line"),
    (HILBERT_WHOLECURVE, "output H", 1, "a second output line"),
    (HILBERT_WHOLECURVE, "start H 1", 7, "a second start line for state 'H'"),
    (HILBERT_DIGITS, "digit 1' -> -2,-1,2',2", 7, "a second digit line for 1'"),
    (PAIRS, "pair 1,2 -> 2,1", 6, "a second pair line for 1,2"),
]


@pytest.mark.parametrize("text, second, col, message", STATED_TWICE, ids=[
    "name", "digiset", "start", "post", "output", "wholecurve-start", "digit", "pair"])
def test_directive_stated_twice_is_an_error_at_its_line(text, second, col, message):
    line = len(text.splitlines()) + 1
    assert _error_at(text + second + "\n") == (f"line {line}, column {col}: {message}", line, col)


def test_rule_and_accumulating_directives_may_repeat():
    # a rule line may reopen its state; terms and atoms accumulate
    text = HILBERT_WHOLECURVE.replace("output H\n", "rule H\natom H [1,2]\noutput H\n")
    assert len(parse_rule_file(text).rule.productions["H"]) == 8
    assert parse_rule_file(ARNDT + "term [1,2]\n").rule.width == 10


def test_wholecurve_post_is_the_normalizer():
    sys_ = parse_rule_file(HILBERT_WHOLECURVE + "post [2,1]^k+1\n")
    assert sys_.rule.normalizer == PostTransform(SignedPermutation((2, 1)), "k+1")
    assert sys_.post is None
    assert parse_rule_file(ARNDT + "post [2,1]^k+1\n").post == PostTransform(SignedPermutation((2, 1)), "k+1")


def _error_at(text):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(text)
    return str(exc.value), exc.value.line, exc.value.col


def test_system_errors_name_their_line():
    assert _error_at(HILBERT_WHOLECURVE.replace("atom H [2,1]", "atom G [2,1]", 1)) == (
        "line 8, column 6: production of 'H' references unknown state 'G'", 8, 6)
    assert _error_at(HILBERT_WHOLECURVE.replace("output H", "output G")) == (
        "line 13, column 8: unknown output state 'G'", 13, 8)
    assert _error_at(HILBERT_WHOLECURVE.replace("rule H", "rule H\nrule G")) == (
        "line 6, column 6: state 'G' has no start sequence", 6, 6)
    # atoms before any rule line feed a state S of their own
    assert _error_at("digiset 2\nkind wholecurve\nstart H 1\n atom S [1,2]\n") == (
        "line 4, column 2: state 'S' has no start sequence", 4, 2)
    assert _error_at("digiset 2\nkind edgewise\nterm [1,2]\nterm  [1,2,3]\n") == (
        "line 4, column 7: all terms must share one dimension", 4, 7)
    assert _error_at("digiset 2\nkind digitwise\ndigit 1 -> 1,2\ndigit -1 -> 1,2\n") == (
        "line 4, column 7: digit rule breaks T(-x) = -T(x) at (-1, 0)", 4, 7)
    assert _error_at(PAIRS.replace("start 1,2,1,-2,-1,-2,1,2,1\n", "")) == (
        "line 1, column 1: pairlift needs a start", 1, 1)


def test_numbers_int_refuses_name_their_line():
    long = "9" * 5000  # over int()'s 4,300-digit limit
    for kind, line in (
        ("edgewise", "term [1,2]*sqrt2^" + long),
        ("edgewise", "term [1,2]*" + long),
        ("edgewise", "term [1,2]*\u00b2"),  # a superscript two is a digit to str.isdigit only
        ("digitwise", "digit 1 -> 1," + long),
        ("edgewise", "start 1," + long),
    ):
        with pytest.raises(ParseError) as exc:
            parse_rule_file(f"digiset 2\nkind {kind}\n{line}\n")
        assert exc.value.line == 3 and exc.value.col >= 6


RULE_FILES = [p.read_text() for p in sorted((Path(__file__).resolve().parent.parent / "rules").glob("*.rules"))]
VOCABULARY = sorted({tok for text in RULE_FILES for tok in text.split()} | {
    "name", "digiset", "kind", "start", "term", "digit", "pair", "rule", "atom", "output", "post",
    "edgewise", "digitwise", "wholecurve", "pairlift", "connector", "unbounded", "positive",
    "S", "G", "->", "1,2", "-1'", "[1,2,3]", "[2,1]^k", "0", "\n",
})


@st.composite
def mutated_rule_files(draw):
    """A rule file with one to four of its tokens deleted, replaced,
    inserted or swapped, drawing new tokens from every rule file and the
    grammar's words."""
    toks = re.findall(r"\S+|\s+", draw(st.sampled_from(RULE_FILES)))
    for _ in range(draw(st.integers(1, 4))):
        words = [i for i, t in enumerate(toks) if not t.isspace()]
        if not words:
            break
        i = draw(st.sampled_from(words))
        op = draw(st.sampled_from(("delete", "replace", "insert", "swap")))
        if op == "delete":
            del toks[i]
        elif op == "replace":
            toks[i] = draw(st.sampled_from(VOCABULARY))
        elif op == "insert":
            toks.insert(i, draw(st.sampled_from(VOCABULARY)) + " ")
        else:
            j = draw(st.sampled_from(words))
            toks[i], toks[j] = toks[j], toks[i]
    return "".join(toks)


@settings(max_examples=600, deadline=None)
@given(mutated_rule_files())
def test_mutated_rule_files_parse_or_name_their_line(text):
    try:
        parse_rule_file(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
