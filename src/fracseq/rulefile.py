"""Line-oriented rule files describing substitution systems.

Grammar (one directive per line, ``#`` starts a comment):

    name <id>
    digiset <n> | unbounded          optional trailing word: positive
    kind edgewise|digitwise|wholecurve|pairlift
    start <sequence>                 edgewise/digitwise/pairlift start
    start <state> <sequence>        wholecurve start, one per state
    term <sign?><perm>[*R][*<scale>]
    digit <variant> -> <variant sequence>
    pair <a,b> -> <c,d>
    rule <state>                     atoms that follow feed this state
    atom <state> <term>
    atom connector <digit> [<perm>^<exp>]
    output <state>
    post <perm>^<exp>                exp: k | k+1 | kmod2

``name`` and ``digiset`` may stand anywhere.  ``kind`` comes once, before
any other directive, and each kind reads only these:

    edgewise     start, term, post
    digitwise    start, digit, post
    wholecurve   start, rule, atom, output, post
    pairlift     start, pair

``post`` relabels the curve after each step; in a wholecurve it is the
rule's read-out normalizer instead.

``name``, ``digiset``, ``kind``, ``output``, ``post`` and ``start`` each
come at most once, except that a wholecurve states one ``start`` per
state; a ``digit`` line comes once per variant and a ``pair`` line once
per pair.  ``rule`` may reopen a state, and ``term`` and ``atom`` lines
accumulate.  Under a bounded digiset every digit the file states (starts,
both sides of ``digit`` and ``pair`` lines, connector digits) lies in it,
sign included, and every term, atom, connector and post perm has the
digiset's dimension.

Terms: an optional leading ``-`` negates; ``~k`` or ``~k+1`` makes the
sign alternate with the level; ``*R`` reverses; a trailing ``*sqrt2``,
``*sqrt2^E`` or ``*2`` scales the parallel length stream (powers of
sqrt2 only).  Variants carry apostrophes: ``1``, ``-2'``, ``1''``.

Sequences are comma-separated signed integers, `<...>` brackets optional.
Errors name the line and column of the offending token, including a
directive the kind does not read or states twice and a digit or perm that
does not fit the digiset.  The rule constructors make the construction
checks and name the part at fault (``RuleError.where``); the parser reports
the error at the ``term``, ``digit``, ``atom``, ``rule`` or ``output`` line
that stated it.  A missing section is reported at line 1, column 1.
"""

from __future__ import annotations

import re
from functools import partial

from .perms import PermError, SignedPermutation, parse_perm
from .sequences import Digiset
from .substitution import (
    ConnectorAtom,
    DigitRule,
    EdgewiseRule,
    PairRule,
    PostTransform,
    RuleError,
    StateAtom,
    SubstitutionSystem,
    Term,
    Variant,
    WholeCurveRule,
)

class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _int(tok: str, what: str, line: int, col: int) -> int:
    """``int(tok)``, or a ParseError naming ``what``: int() also refuses
    a token of more than 4,300 digits."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", line, col) from None


_VARIANT_RE = re.compile(r"^(-?\d+)('*)$")


def _parse_variant(tok: str, line: int, col: int, stated: list) -> Variant:
    m = _VARIANT_RE.match(tok)
    digit = _int(m.group(1), "variant token", line, col) if m else 0
    if digit == 0:
        raise ParseError(f"bad variant token {tok!r}", line, col)
    stated.append((digit, line, col))
    return (digit, len(m.group(2)))


def _tokens(text: str, col: int) -> list[tuple[str, int]]:
    """The comma-separated tokens of ``text``, which starts at column
    ``col``, each with its own column; `<...>` brackets optional."""
    body = text.strip()
    at = col + text.find(body)
    if body.startswith("<") and body.endswith(">"):
        body, at = body[1:-1], at + 1
    out = []
    for tok in body.split(","):
        out.append((tok.strip(), at + len(tok) - len(tok.lstrip())))
        at += len(tok) + 1
    return out


def _parse_int_list(text: str, line: int, col: int, stated: list) -> tuple[int, ...]:
    toks = _tokens(text, col)
    if len(toks) == 1 and not toks[0][0]:
        return ()
    out = []
    for tok, tcol in toks:
        v = _int(tok, "integer", line, tcol)
        if v == 0:
            raise ParseError("0 is not a digit", line, tcol)
        stated.append((v, line, tcol))
        out.append(v)
    return tuple(out)


def _parse_variant_list(text: str, line: int, col: int, stated: list) -> tuple[Variant, ...]:
    return tuple(_parse_variant(tok, line, tcol, stated) for tok, tcol in _tokens(text, col))


def _parse_scale(tok: str, line: int, col: int) -> int:
    if tok == "sqrt2":
        return 1
    m = re.match(r"^sqrt2\^(\d+)$", tok)
    if m:
        return _int(m.group(1), "scale", line, col)
    if tok.isdecimal():
        n = _int(tok, "scale", line, col)
        e = 0
        while n > 1 and n % 2 == 0:
            n //= 2
            e += 2
        if n != 1:
            raise ParseError(f"scale {tok!r} is not a power of sqrt2", line, col)
        return e
    raise ParseError(f"bad scale token {tok!r}", line, col)


def _parse_term(tok: str, line: int, col: int) -> Term:
    rest = tok
    sign = 1
    alt = None
    if rest.startswith("-~k+1"):
        sign, alt, rest = -1, "k+1", rest[5:]
    elif rest.startswith("-~k"):
        sign, alt, rest = -1, "k", rest[3:]
    elif rest.startswith("~k+1"):
        alt, rest = "k+1", rest[4:]
    elif rest.startswith("~k"):
        alt, rest = "k", rest[2:]
    elif rest.startswith("-") and not rest.startswith("-["):
        raise ParseError(f"bad term {tok!r}", line, col)
    if rest.startswith("-["):
        sign, rest = -sign, rest[1:]
    if not rest.startswith("["):
        raise ParseError(f"term must contain a perm literal, got {tok!r}", line, col)
    end = rest.find("]")
    if end < 0:
        raise ParseError("unterminated perm literal", line, col)
    try:
        p = parse_perm(rest[: end + 1])
    except PermError as exc:
        raise ParseError(str(exc), line, col) from None
    rest = rest[end + 1:]
    reverse = False
    scale_pow = 0
    while rest:
        if not rest.startswith("*"):
            raise ParseError(f"unexpected trailing {rest!r} in term", line, col + len(tok) - len(rest))
        rest = rest[1:]
        part = rest.split("*", 1)[0]
        rest = rest[len(part):]
        if part == "R":
            reverse = True
        else:
            scale_pow = _parse_scale(part, line, col)
    return Term(p, sign=sign, reverse=reverse, scale_pow=scale_pow, alt_sign=alt)


_PERM_POWER_RE = re.compile(r"^(\[.*\])\^(k\+1|kmod2|k)$")


def _parse_perm_power(build, text: str, what: str, line: int, col: int):
    """``build(perm, exp)`` from ``[perm]^exp``; ``what`` names the
    directive when the text does not parse."""
    m = _PERM_POWER_RE.match(text.replace(" ", ""))
    if not m:
        raise ParseError(f"bad {what} {text!r}", line, col)
    try:
        return build(parse_perm(m.group(1)), m.group(2))
    except ValueError as exc:
        raise ParseError(str(exc), line, col) from None


# the directives each kind reads; name and digiset are read by every kind
_READS = {
    "edgewise": ("start", "term", "post"),
    "digitwise": ("start", "digit", "post"),
    "wholecurve": ("start", "rule", "atom", "output", "post"),
    "pairlift": ("start", "pair"),
}
_KIND_DIRECTIVES = frozenset(d for reads in _READS.values() for d in reads)
# directives a file states at most once; a wholecurve states one start per state
_ONCE = frozenset({"name", "digiset", "kind", "output", "post"})


def parse_rule_file(text: str) -> SubstitutionSystem:
    name = ""
    digiset: Digiset | None = None
    kind = ""
    start: tuple = ()
    starts: dict[str, tuple[int, ...]] = {}
    terms: list[Term] = []
    digit_map: dict[Variant, tuple[Variant, ...]] = {}
    pair_map: dict[tuple[int, int], tuple[int, int]] = {}
    productions: dict[str, list] = {}
    current_state: str | None = None
    output_state: str | None = None
    post: PostTransform | None = None
    once: set[str] = set()
    # (line, column) of each part a RuleError's ``where`` may name
    at: dict[tuple, tuple[int, int]] = {}
    # (digit or perm, line, column) of every digit and perm the file states
    stated: list[tuple[int | SignedPermutation, int, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split()[0]
        col = line.find(head) + 1
        arg = line[line.find(head) + len(head):].strip()
        arg_col = line.find(arg) + 1 if arg else col
        if head in _KIND_DIRECTIVES:
            if not kind:
                raise ParseError(f"{head!r} before the kind line", line_no, col)
            if head not in _READS[kind]:
                raise ParseError(f"a {kind} rule does not read {head!r}", line_no, col)
        if head in _ONCE or (head == "start" and kind != "wholecurve"):
            if head in once:
                raise ParseError(f"a second {head} line", line_no, col)
            once.add(head)

        if head == "name":
            name = arg
        elif head == "digiset":
            parts = arg.split()
            if not parts:
                raise ParseError("digiset needs a size", line_no, arg_col)
            positive = "positive" in parts[1:]
            if parts[0] == "unbounded":
                digiset = Digiset(None, positive)
            else:
                try:
                    digiset = Digiset(int(parts[0]), positive)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no, arg_col) from None
        elif head == "kind":
            if arg not in _READS:
                raise ParseError(f"unknown kind {arg!r}", line_no, arg_col)
            kind = arg
        elif head == "start":
            parts = arg.split(None, 1)
            if kind == "wholecurve":
                if len(parts) != 2:
                    raise ParseError("wholecurve start needs a state and a sequence", line_no, arg_col)
                if parts[0] in starts:
                    raise ParseError(f"a second start line for state {parts[0]!r}", line_no, arg_col)
                seq_col = arg_col + arg.find(parts[1], len(parts[0]))
                starts[parts[0]] = _parse_int_list(parts[1], line_no, seq_col, stated)
            elif kind == "digitwise":
                start = _parse_variant_list(arg, line_no, arg_col, stated)
            else:
                start = _parse_int_list(arg, line_no, arg_col, stated)
        elif head == "term":
            term = _parse_term(arg, line_no, arg_col)
            stated.append((term.perm, line_no, arg_col))
            at[("term", len(terms))] = (line_no, arg_col)
            terms.append(term)
        elif head == "digit":
            if "->" not in arg:
                raise ParseError("digit rule needs '->'", line_no, arg_col)
            lhs, rhs = (part.strip() for part in arg.split("->", 1))
            v = _parse_variant(lhs, line_no, arg_col, stated)
            if v in digit_map:
                raise ParseError(f"a second digit line for {lhs}", line_no, arg_col)
            digit_map[v] = _parse_variant_list(rhs, line_no, arg_col + arg.find(rhs), stated)
            at[("digit", v)] = (line_no, arg_col)
        elif head == "pair":
            if "->" not in arg:
                raise ParseError("pair rule needs '->'", line_no, arg_col)
            lhs, rhs = (part.strip() for part in arg.split("->", 1))
            a = _parse_int_list(lhs, line_no, arg_col, stated)
            b = _parse_int_list(rhs, line_no, arg_col + arg.find(rhs), stated)
            if len(a) != 2 or len(b) != 2:
                raise ParseError("pairs must have exactly two digits", line_no, arg_col)
            if (a[0], a[1]) in pair_map:
                raise ParseError(f"a second pair line for {lhs}", line_no, arg_col)
            pair_map[(a[0], a[1])] = (b[0], b[1])
        elif head == "rule":
            current_state = arg
            productions.setdefault(current_state, [])
            at.setdefault(("rule", current_state), (line_no, arg_col))
        elif head == "atom":
            parts = arg.split(None, 1)
            if len(parts) != 2:
                raise ParseError("atom needs a target and a payload", line_no, arg_col)
            target, payload = parts
            if target == "connector":
                toks = payload.split(None, 1)
                digit_col = arg_col + arg.find(payload)
                digit = _int(toks[0], "connector digit", line_no, digit_col)
                if digit == 0:
                    raise ParseError("0 is not a digit", line_no, digit_col)
                stated.append((digit, line_no, digit_col))
                if len(toks) == 1:
                    atom = ConnectorAtom(digit)
                else:
                    tcol = digit_col + payload.find(toks[1], len(toks[0]))
                    atom = _parse_perm_power(partial(ConnectorAtom, digit), toks[1], "connector transform",
                                             line_no, tcol)
                    stated.append((atom.perm, line_no, tcol))
            else:
                atom = StateAtom(target, _parse_term(payload, line_no, arg_col))
                stated.append((atom.term.perm, line_no, arg_col))
            if current_state is None:
                # single-state systems may omit `rule`; synthesize one state
                current_state = "S"
                at[("rule", current_state)] = (line_no, col)
            atoms = productions.setdefault(current_state, [])
            at[("atom", current_state, len(atoms))] = (line_no, arg_col)
            atoms.append(atom)
        elif head == "output":
            output_state = arg
            at[("output",)] = (line_no, arg_col)
        elif head == "post":
            post = _parse_perm_power(PostTransform, arg, "post transform", line_no, arg_col)
            stated.append((post.perm, line_no, arg_col))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, col)

    if digiset is None:
        raise ParseError("missing digiset", 1, 1)
    if not kind:
        raise ParseError("missing kind", 1, 1)
    try:
        if kind == "edgewise":
            if not terms:
                raise ParseError("edgewise rule has no terms", 1, 1)
            rule = EdgewiseRule(tuple(terms))
        elif kind == "digitwise":
            if not digit_map:
                raise ParseError("digitwise rule has no digit lines", 1, 1)
            rule = DigitRule(digit_map)
        elif kind == "wholecurve":
            if output_state is None:
                output_state = next(iter(productions), None)
            if output_state is None:
                raise ParseError("wholecurve needs atoms", 1, 1)
            rule = WholeCurveRule(
                productions={s: tuple(a) for s, a in productions.items()},
                starts=starts,
                output_state=output_state,
                normalizer=post,
            )
            # a wholecurve's post is its read-out normalizer, not a per-step relabeling
            post = None
        else:  # pairlift
            if not pair_map:
                raise ParseError("pairlift needs pair lines", 1, 1)
            if not start:
                raise ParseError("pairlift needs a start", 1, 1)
            rule = PairRule(pair_map)
        system = SubstitutionSystem(digiset=digiset, rule=rule, start=start, post=post, name=name)
    except RuleError as exc:
        raise ParseError(str(exc), *at.get(exc.where, (1, 1))) from None

    if digiset.size is not None:
        for value, line_no, col in stated:
            if isinstance(value, SignedPermutation):
                if value.n != digiset.size:
                    fit = "outside" if value.n > digiset.size else "short of"
                    raise ParseError(f"perm {value} of dimension {value.n} {fit} digiset {digiset}", line_no, col)
            elif value not in digiset:
                raise ParseError(f"digit {value} outside digiset {digiset}", line_no, col)
    return system
