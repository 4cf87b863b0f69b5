import pytest

from fracseq.rulefile import ParseError, parse_rule_file
from fracseq.substitution import check_extending, is_expansive, iterate

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
    assert parsed.system.kind == "edgewise"
    assert iterate(parsed.system, 1).items == (1, 2, 1, -2, -1, -2, 1, 2, 1)
    assert is_expansive(parsed.system)


def test_parse_box4_alternating_signs():
    parsed = parse_rule_file(BOX4)
    assert iterate(parsed.system, 2).items == (
        1, 2, 1, -2, 1, -2, -1, -2, 1, -2, 1, 2, 1, 2, -1, 2)
    assert check_extending(parsed.system, 3)


def test_parse_v1_scale():
    parsed = parse_rule_file(V1)
    terms = parsed.system.rule.terms
    assert terms[1].reverse and terms[1].scale_pow == 0
    assert terms[2].scale_pow == 1


def test_parse_digit_rule():
    parsed = parse_rule_file(HILBERT_DIGITS)
    assert iterate(parsed.system, 1).items == (1, 2, -1, 2)
    assert iterate(parsed.system, 2).items[:8] == (1, 2, -1, 2, 2, 1, -2, 1)


def test_parse_wholecurve():
    parsed = parse_rule_file(HILBERT_WHOLECURVE)
    assert iterate(parsed.system, 1).items == (
        1, 2, -1, 2, 2, 1, -2, 1, 2, 1, -2, -2, -1, -2, 1)


def test_parse_pairlift():
    parsed = parse_rule_file(PAIRS)
    out = iterate(parsed.system, 0)
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
    assert parsed.system.digiset.size is None
