"""Differential tests: the ``levels`` stream and ``iterate_full`` against a
plain reference expansion.

The reference below shares no code with the two kernels.  A morphism is
expanded digit by digit; a production system (a wholecurve rule, or an
edgewise rule with a reversing term as its one state) concatenates whole
transformed copies of its states, connector by connector.  Signs, post
relabelings and the length stream are applied one item at a time.
"""

from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from fracseq import substitution
from fracseq.catalog import (
    arndt_peano_system,
    arndt_truncated_system,
    beta_omega_state_system,
    box4_digit_system,
    catalog_entries,
    hilbert_digit_system,
    hilbert_drawing_system,
    hilbert_original_system,
    v1_dragon_length_system,
)
from fracseq.cli import main
from fracseq.gray import gray_t1_system, gray_t2_system
from fracseq.perms import PermError, SignedPermutation
from fracseq.rulefile import ParseError, parse_rule_file
from fracseq.sequences import Digiset
from fracseq.substitution import (
    ConnectorAtom,
    DigitRule,
    EdgewiseRule,
    PostTransform,
    RuleError,
    StateAtom,
    SubstitutionSystem,
    Term,
    WholeCurveRule,
    iterate,
    iterate_full,
    levels,
)

RULES_DIR = Path(__file__).resolve().parent.parent / "rules"


def _flip(post, level) -> bool:
    """Does a post transform act (an odd exponent) at this level?"""
    if post is None:
        return False
    return (level + (post.exponent == "k+1")) % 2 == 1


def _relabel(post, level, x):
    return post.perm.of_digit(x) if _flip(post, level) else x


def reference(sys_, k):
    """(digits, length exponents or None) after k applications."""
    if sys_.kind == "pairlift":
        base = reference(sys_.base, k)[0] if sys_.base is not None else list(sys_.start)
        out = []
        for i in range(len(base)):
            a, b = (base[i], base[i + 1]) if i + 1 < len(base) else (base[i - 1], base[i])
            if (a, b) in sys_.rule.mapping:
                out += sys_.rule.mapping[(a, b)]
            else:
                c, d = sys_.rule.mapping[(-a, -b)]
                out += [-c, -d]
        return out, None
    levels = range(sys_.start_level, sys_.start_level + k)
    post = sys_.post
    if sys_.kind == "digitwise":
        stream = list(sys_.start)
        for level in levels:
            nxt = []
            for v in stream:
                for x, m in sys_.rule.image(v):
                    nxt.append((_relabel(post, level + 1, x), m))
            stream = nxt
        return [x for x, _ in stream], None
    if sys_.kind == "edgewise" and not any(t.reverse for t in sys_.rule.terms):
        terms = sys_.rule.terms
        items = list(sys_.start)
        exps = [0] * len(items) if any(t.scale_pow for t in terms) else None
        for level in levels:
            nxt, nexps = [], []
            for i, x in enumerate(items):
                for t in terms:
                    nxt.append(_relabel(post, level + 1, t.sign_at(level) * t.perm.of_digit(x)))
                    if exps is not None:
                        nexps.append(exps[i] + t.scale_pow)
            items, exps = nxt, (nexps if exps is not None else None)
        return items, exps
    if sys_.kind == "edgewise":
        productions = {"S": [("S", t) for t in sys_.rule.terms]}
        states = {"S": list(sys_.start)}
        output, normalizer = "S", None
    else:
        productions = {
            name: [a if isinstance(a, ConnectorAtom) else (a.state, a.term) for a in atoms]
            for name, atoms in sys_.rule.productions.items()
        }
        states = {name: list(v) for name, v in sys_.rule.starts.items()}
        output, normalizer = sys_.rule.output_state, sys_.rule.normalizer
    terms = [a[1] for atoms in productions.values() for a in atoms if not isinstance(a, ConnectorAtom)]
    scaled = any(t.scale_pow for t in terms)
    exps = {name: [0] * len(v) for name, v in states.items()} if scaled else None
    for level in levels:
        new, new_exps = {}, {}
        for name, atoms in productions.items():
            out, out_exps = [], []
            for a in atoms:
                if isinstance(a, ConnectorAtom):
                    out.append(a.value_at(level))
                    out_exps.append(0)
                    continue
                state, term = a
                src = list(range(len(states[state])))
                if term.reverse:
                    src.reverse()
                for i in src:
                    out.append(term.sign_at(level) * term.perm.of_digit(states[state][i]))
                    if exps is not None:
                        out_exps.append(exps[state][i] + term.scale_pow)
            new[name] = [_relabel(post, level + 1, x) for x in out]
            new_exps[name] = out_exps
        states, exps = new, (new_exps if exps is not None else None)
    items = [_relabel(normalizer, sys_.start_level + k, x) for x in states[output]]
    return items, (exps[output] if exps is not None else None)


def _rule(text):
    return parse_rule_file(text)


ALT_MORPHISM = """\
digiset 2
kind edgewise
start 1,2,-1
term [1,2]
term ~k[2,1]
term -~k+1[1,-2]
"""

ALT_PRODUCTION = ALT_MORPHISM.replace("term -~k+1[1,-2]", "term -~k+1[1,-2]*R")

POST_EDGEWISE = """\
digiset 2
kind edgewise
start 1,-2
term [1,2]
term [2,-1]
term -[1,2]
post [2,1]^k
"""

POST_PRODUCTION = POST_EDGEWISE.replace("term -[1,2]", "term -[1,2]*R").replace("^k", "^k+1")

POST_DIGITWISE = """\
digiset 2
kind digitwise
start 1,2'
digit 1 -> 1,2,-1',2'
digit 1' -> -2,-1,2',2
digit 2 -> 2,1,-2',1'
digit 2' -> -1,-2,1',1
post [-1,2]^kmod2
"""

LENGTH_MORPHISM = """\
digiset 2
kind edgewise
start 1,2
term [1,2]*sqrt2
term [2,-1]
"""

LENGTH_REVERSE = """\
digiset 2
kind edgewise
start 1,2
term [1,2]*sqrt2
term [2,-1]*R
term -[1,2]*2
"""

LENGTH_WHOLECURVE = """\
digiset 2
kind wholecurve
start H 1,2,-1
rule H
atom H [2,1]*sqrt2
atom connector 1 [2,1]^k
atom H -[2,1]*R
"""

# a wholecurve's post is its read-out normalizer, applied to the output state only
POST_WHOLECURVE = """\
digiset 2
kind wholecurve
start H 1,2,-1
start G 2,1,-2
rule H
atom G [2,1]
atom connector 1
atom H [1,2]
rule G
atom H [2,1]
atom connector 2 [2,1]^k
atom G -[1,2]*R
output H
post [-1,2]^k+1
"""

SMALL_RULES = {
    "alt-morphism": ALT_MORPHISM,
    "alt-production": ALT_PRODUCTION,
    "post-edgewise": POST_EDGEWISE,
    "post-production": POST_PRODUCTION,
    "post-digitwise": POST_DIGITWISE,
    "post-wholecurve": POST_WHOLECURVE,
    "length-morphism": LENGTH_MORPHISM,
    "length-reverse": LENGTH_REVERSE,
    "length-wholecurve": LENGTH_WHOLECURVE,
}

SYSTEMS = {
    **{e.id: e.system for e in catalog_entries()},
    "box4-digits": box4_digit_system(),
    "hilbert-drawing": hilbert_drawing_system(),
    # rule files turn a wholecurve post into the read-out normalizer; built
    # directly, a wholecurve post relabels every state after each step
    "hilbert-drawing-post": replace(
        hilbert_drawing_system(), post=PostTransform(SignedPermutation((2, 1)), "k")
    ),
    "hilbert-digits": hilbert_digit_system(),
    "beta-omega-states": beta_omega_state_system(),
    "v1-dragon-lengths": v1_dragon_length_system(),
    "gray-t1": gray_t1_system(),
    "gray-t2": gray_t2_system(),
    **{f"rules/{p.name}": _rule(p.read_text()) for p in sorted(RULES_DIR.glob("*.rules"))},
    **{name: _rule(text) for name, text in SMALL_RULES.items()},
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_kernels_match_reference(name):
    """Levels 0-3 of one ``levels`` stream and of ``iterate_full``."""
    sys_ = SYSTEMS[name]
    for k, (items, exps) in enumerate(islice(levels(sys_), 4)):
        if sys_.kind == "pairlift" and k == 0 and len(iterate(sys_.base, 0)) == 1:
            # one edge has no pair context to lift
            assert (items, exps) == (None, None)
            with pytest.raises(RuleError):
                iterate_full(sys_, k)
            continue
        want, want_exps = reference(sys_, k)
        seq, seq_exps = iterate_full(sys_, k)
        for got, got_exps in ((seq.items, seq_exps), (items, exps)):
            assert list(got) == want, (name, k)
            assert (None if got_exps is None else list(got_exps)) == want_exps, (name, k)


def test_pairlift_without_base_has_only_its_start_level():
    sys_ = _rule("digiset 4\nkind pairlift\nstart 1,2,1\npair 1,2 -> 1,2\npair 2,1 -> 3,2\n")
    stream = levels(sys_)
    assert next(stream) == ((1, 2, 3, 2, 3, 2), None)
    with pytest.raises(RuleError, match="only has its start level"):
        next(stream)


def test_gray_rules_match_reference_deeper():
    for sys_ in (gray_t1_system(), gray_t2_system()):
        for k in range(4, 9):
            assert list(iterate(sys_, k).items) == reference(sys_, k)[0]


def test_length_stream_follows_morphism_order():
    seq, exps = iterate_full(_rule(LENGTH_MORPHISM), 1)
    assert seq.items == (1, 2, 2, -1)
    assert exps == (1, 0, 1, 0)


def test_length_streams_only_where_terms_scale():
    for name in ("length-morphism", "length-reverse", "length-wholecurve", "v1-dragon-sqdiag"):
        assert iterate_full(SYSTEMS[name], 2)[1] is not None, name
    for name in ("alt-morphism", "alt-production", "v1-dragon-8roots", "hilbert-original"):
        assert iterate_full(SYSTEMS[name], 2)[1] is None, name


_P12, _P21, _P2M1 = SignedPermutation((1, 2)), SignedPermutation((2, 1)), SignedPermutation((2, -1))
_D2 = Digiset(2)

# each rule as a file, and the same system built without the parser
OUTSIDE_ALPHABET = {
    "morphism": (
        "digiset 2\nkind edgewise\nstart 1,3\nterm [1,2]\nterm [2,-1]\n",
        SubstitutionSystem(_D2, EdgewiseRule((Term(_P12), Term(_P2M1))), start=(1, 3)),
    ),
    "edgewise-production": (
        "digiset 2\nkind edgewise\nstart 3\nterm [1,2]\nterm [2,-1]*R\n",
        SubstitutionSystem(_D2, EdgewiseRule((Term(_P12), Term(_P2M1, reverse=True))), start=(3,)),
    ),
    "digitwise": (
        "digiset 2\nkind digitwise\nstart 1''\ndigit 1 -> 1,2\ndigit 2 -> 2,1\n",
        SubstitutionSystem(_D2, DigitRule({(1, 0): ((1, 0), (2, 0)), (2, 0): ((2, 0), (1, 0))}), start=((1, 2),)),
    ),
    "wholecurve": (
        "digiset 2\nkind wholecurve\nstart H 1,3\nrule H\natom H [1,2]\natom H [2,1]\n",
        SubstitutionSystem(_D2, WholeCurveRule(
            {"H": (StateAtom("H", Term(_P12)), StateAtom("H", Term(_P21)))}, {"H": (1, 3)}, "H")),
    ),
    "connector": (
        "digiset 2\nkind wholecurve\nstart H 1\nrule H\natom H [1,2]\natom connector 3\n",
        SubstitutionSystem(_D2, WholeCurveRule(
            {"H": (StateAtom("H", Term(_P12)), ConnectorAtom(3))}, {"H": (1,)}, "H")),
    ),
}
# where the parser finds the digit 3 outside D2; the digitwise start 1'' is
# in D2 but has no image
OUTSIDE_AT = {"morphism": (3, 9), "edgewise-production": (3, 7), "wholecurve": (3, 11), "connector": (6, 16)}


@pytest.mark.parametrize("name", sorted(OUTSIDE_ALPHABET))
def test_start_outside_alphabet_fails_cleanly(name, tmp_path, capsys):
    text, sys_ = OUTSIDE_ALPHABET[name]
    with pytest.raises((RuleError, PermError)):
        iterate(sys_, 2)
    path = tmp_path / "bad.rules"
    path.write_text(text)
    assert main(["rule", "check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    if name in OUTSIDE_AT:
        line, col = OUTSIDE_AT[name]
        assert (out, err) == ("", f"error: line {line}, column {col}: digit 3 outside digiset D2\n")
        with pytest.raises(ParseError) as exc:
            parse_rule_file(text)
        assert (exc.value.line, exc.value.col) == (line, col)


def test_connector_power_follows_the_orbit_of_a_non_involution():
    # [2,-1] has order 4: 1 -> 2 -> -1 -> -2 -> 1
    orbit = (1, 2, -1, -2)
    perm = SignedPermutation((2, -1))
    for exponent, e in (("k", lambda k: k), ("k+1", lambda k: k + 1), ("kmod2", lambda k: k % 2)):
        atom = ConnectorAtom(1, perm, exponent)
        assert [atom.value_at(k) for k in range(10)] == [orbit[e(k) % 4] for k in range(10)], exponent


def test_kernels_refuse_a_level_before_building_it(monkeypatch):
    monkeypatch.setattr(substitution, "ITEM_CAP", 9**3)
    with pytest.raises(RuleError, match="level 4: it would have 6561 items"):
        iterate(arndt_peano_system(), 6)
    monkeypatch.setattr(substitution, "ITEM_CAP", 20)
    with pytest.raises(RuleError, match="level 2: it would have 63 items"):
        iterate(hilbert_original_system(), 5)
    monkeypatch.setattr(substitution, "ITEM_CAP", 10)
    with pytest.raises(RuleError, match="level 1: it would have 18 items"):
        iterate(arndt_truncated_system(), 1)
