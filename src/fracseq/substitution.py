"""Substitution systems and the two kernels that expand them.

A curve grows in one of two ways (Allouche & Shallit, *Automatic
Sequences*, 2003, ch. 6-7), and every rule kind runs on one kernel.  A
system's kind is its rule's type: ``EdgewiseRule``, ``DigitRule``,
``WholeCurveRule`` and ``PairRule`` each name theirs once.

* The morphism kernel rewrites each token in place.  Per level it builds
  one image table from token to image tuple, with the level's alternating
  term signs and the per-step ``post`` relabeling folded in, and expands
  the level in one pass of table lookups.  It runs ``digitwise`` rules
  (tokens are variant-marked digits, so one digit may have several
  images) and ``edgewise`` rules without a reversing term (tokens are
  digits, imaged by (t1(x), ..., tm(x))).
* The production kernel rebuilds named states from transformed copies of
  the states and from connector edges whose value may rotate with the
  level.  It runs ``wholecurve`` rules and, as a single state, ``edgewise``
  rules with a reversing term (reversal has no meaning on one edge, so
  such terms act on the whole approximant).  It applies ``post`` after
  each step and the rule's ``normalizer`` at read-out.

A ``pairlift`` is neither: it re-codes overlapping digit pairs of its base
system's output, one lifted pair per input edge.

``levels`` runs a system as one stream of approximants, levels 0, 1, 2,
..., each built once from the one before; ``iterate_full`` reads one level
off a new stream, ``check_extending`` compares successive levels of one.

Terms with a ``scale_pow`` give a system a parallel length stream: each
edge's length as an integer power of sqrt 2, starting at 0 on every start
edge.  The kernel that runs the digits carries it in the same order.
Both kernels compute the next level's length before building it and refuse
a level over ``ITEM_CAP`` items, which ends the stream.

Levels count applications from the system's start.  `start_level` names
the level of the start itself: 1 for a wholecurve rule, whose starts are
the first approximants, and 0 for every other rule.  Alternating signs,
connector powers and normalizers take the level as argument so that
curves stay normalized and extending where the catalog requires it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, islice, pairwise
from typing import Callable, ClassVar, Iterator, Mapping

from .perms import SignedPermutation, apply_items, compose, identity, power
from .sequences import Digiset, SignedSequence

Variant = tuple[int, int]  # (signed base digit, mark); mark 0 is the plain digit


class RuleError(ValueError):
    """A rule or system that cannot be built or run.  ``where`` names the
    part at fault, or is None: ``("term", i)``, ``("digit", variant)``,
    ``("atom", state, i)`` (the i-th atom of a state's production),
    ``("rule", state)`` or ``("output",)``."""

    def __init__(self, message: str, where: tuple | None = None):
        super().__init__(message)
        self.where = where


_EXPONENTS = ("k", "k+1", "kmod2")


def _exponent_value(spec: str, k: int) -> int:
    if spec == "k":
        return k
    if spec == "k+1":
        return k + 1
    if spec == "kmod2":
        return k % 2
    raise RuleError(f"unknown exponent spec {spec!r}")


def _is_involution(p: SignedPermutation) -> bool:
    return compose(p, p).images == identity(p.n).images


@dataclass(frozen=True)
class PostTransform:
    """A perm raised to a level-dependent exponent: k, k+1 or k mod 2.

    All three exponents alternate with the level, so the perm must be an
    involution; anything else would not return to the identity.
    """

    perm: SignedPermutation
    exponent: str = "k"

    def __post_init__(self) -> None:
        if self.exponent not in _EXPONENTS:
            raise RuleError(f"exponent must be one of {_EXPONENTS}, got {self.exponent!r}")
        if not _is_involution(self.perm):
            raise RuleError(f"post-transform perm {self.perm} must be an involution")

    def apply_at(self, level: int, items: tuple[int, ...]) -> tuple[int, ...]:
        if _exponent_value(self.exponent, level) % 2 == 0:
            return items
        return apply_items(self.perm, items)


@dataclass(frozen=True)
class Term:
    """One constituent of an edgewise rule.

    Acts on a sequence as sign * perm applied to (reverse of) the input.
    `alt_sign` multiplies by an extra (-1)**k or (-1)**(k+1) at level k,
    for rules whose constituents flip orientation every other level.
    `scale_pow` only feeds the parallel length stream: it adds that many
    sqrt(2) factors to every edge length in the block and never touches
    digits.
    """

    perm: SignedPermutation
    sign: int = 1
    reverse: bool = False
    scale_pow: int = 0
    alt_sign: str | None = None

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise RuleError("term sign must be +1 or -1")
        if self.alt_sign is not None and self.alt_sign not in ("k", "k+1"):
            raise RuleError("alt_sign must be None, 'k' or 'k+1'")

    def sign_at(self, level: int) -> int:
        s = self.sign
        if self.alt_sign is not None and _exponent_value(self.alt_sign, level) % 2:
            s = -s
        return s

    def apply(self, items: tuple[int, ...], level: int = 0) -> tuple[int, ...]:
        src = items[::-1] if self.reverse else items
        out = apply_items(self.perm, src)
        if self.sign_at(level) < 0:
            out = tuple(-k for k in out)
        return out

    def of_digit(self, x: int, level: int = 0) -> int:
        v = self.perm.of_digit(x)
        return v if self.sign_at(level) > 0 else -v


@dataclass(frozen=True)
class EdgewiseRule:
    """Expansion of the base edge <1> as an ordered term list."""

    kind: ClassVar[str] = "edgewise"
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise RuleError("edgewise rule needs at least one term")
        n = self.terms[0].perm.n
        for i, t in enumerate(self.terms):
            if t.perm.n != n:
                raise RuleError("all terms must share one dimension", ("term", i))

    @property
    def width(self) -> int:
        return len(self.terms)

    @property
    def has_reverse(self) -> bool:
        return any(t.reverse for t in self.terms)


@dataclass(frozen=True)
class DigitRule:
    """Substitution given directly per variant-marked digit.

    ``mapping`` holds images for variants; a variant (x, m) missing from the
    mapping falls back to the negated image of (-x, m), then to ``default``.
    With ``strict_negation`` (the usual case) the stored images must satisfy
    T(-v) = -T(v) whenever both signs are present; a broken pair is
    reported at the variant stored second.
    """

    kind: ClassVar[str] = "digitwise"
    mapping: Mapping[Variant, tuple[Variant, ...]]
    default: Callable[[int], tuple[Variant, ...]] | None = None
    strict_negation: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        if self.strict_negation:
            seen = set()
            for v, img in self.mapping.items():
                neg = (-v[0], v[1])
                if neg in seen and self.mapping[neg] != _negate_variants(img):
                    raise RuleError(f"digit rule breaks T(-x) = -T(x) at {v}", ("digit", v))
                seen.add(v)

    def image(self, v: Variant) -> tuple[Variant, ...]:
        if v in self.mapping:
            return self.mapping[v]
        neg = (-v[0], v[1])
        if neg in self.mapping:
            return _negate_variants(self.mapping[neg])
        if self.default is not None and v[1] == 0:
            return self.default(v[0])
        raise RuleError(f"variant {v} has no image")

    def alphabet(self) -> frozenset[Variant]:
        out = set(self.mapping)
        out.update((-v[0], v[1]) for v in self.mapping)
        return frozenset(out)


def _negate_variants(vs: tuple[Variant, ...]) -> tuple[Variant, ...]:
    return tuple((-x, m) for x, m in vs)


def project(stream: tuple[Variant, ...]) -> tuple[int, ...]:
    return tuple(x for x, _ in stream)


@dataclass(frozen=True)
class StateAtom:
    state: str
    term: Term


@dataclass(frozen=True)
class ConnectorAtom:
    """A literal digit, optionally rotated by perm**exponent(level)."""

    digit: int
    perm: SignedPermutation | None = None
    exponent: str = "k"

    def value_at(self, level: int) -> int:
        if self.perm is None:
            return self.digit
        return power(self.perm, _exponent_value(self.exponent, level)).of_digit(self.digit)


Atom = StateAtom | ConnectorAtom


@dataclass(frozen=True)
class WholeCurveRule:
    """Multi-state production system with optional read-out normalizer."""

    kind: ClassVar[str] = "wholecurve"
    productions: Mapping[str, tuple[Atom, ...]]
    starts: Mapping[str, tuple[int, ...]]
    output_state: str
    normalizer: PostTransform | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "productions", dict(self.productions))
        object.__setattr__(self, "starts", dict(self.starts))
        for name, atoms in self.productions.items():
            for i, a in enumerate(atoms):
                if isinstance(a, StateAtom) and a.state not in self.productions:
                    raise RuleError(f"production of {name!r} references unknown state {a.state!r}",
                                    ("atom", name, i))
        if self.output_state not in self.productions:
            raise RuleError(f"unknown output state {self.output_state!r}", ("output",))
        for name in self.productions:
            if name not in self.starts:
                raise RuleError(f"state {name!r} has no start sequence", ("rule", name))


def expand_wholecurve(
    rule: WholeCurveRule,
    level: int,
    current: Mapping[str, tuple[int, ...]],
) -> dict[str, tuple[int, ...]]:
    """One production step: every state is rebuilt from the level-`level`
    states; connector powers are evaluated at that same level."""
    nxt: dict[str, tuple[int, ...]] = {}
    for name, atoms in rule.productions.items():
        out: list[int] = []
        for a in atoms:
            if isinstance(a, StateAtom):
                if a.state not in current:
                    raise RuleError(f"missing state {a.state!r}")
                out.extend(a.term.apply(current[a.state], level))
            else:
                out.append(a.value_at(level))
        nxt[name] = tuple(out)
    return nxt


@dataclass(frozen=True)
class PairRule:
    """Overlapping-pair re-coding: each edge, read with its successor as
    context, emits a fixed pair of lifted digits."""

    kind: ClassVar[str] = "pairlift"
    mapping: Mapping[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))

    def image(self, pair: tuple[int, int], position: int) -> tuple[int, int]:
        if pair in self.mapping:
            return self.mapping[pair]
        neg = (-pair[0], -pair[1])
        if neg in self.mapping:
            a, b = self.mapping[neg]
            return (-a, -b)
        raise RuleError(f"pair {pair} at position {position} is not covered by the rule")


def expand_pairwise(rule: PairRule, s: SignedSequence, closed: bool = False) -> SignedSequence:
    """Emit one lifted pair per input edge."""
    if not s.items:
        return SignedSequence((), s.digiset)
    top = max(max(abs(a), abs(b)) for a, b in rule.mapping.values())
    return SignedSequence(_read(_lift(rule, s.items, closed)), Digiset(top))


def _lift(rule: PairRule, items: tuple[int, ...], closed: bool = False) -> tuple[int, ...] | None:
    """One lifted pair per edge.  The final edge has no successor: a closed
    curve wraps around to the first edge, an open one re-emits the image of
    its last covered pair.  One open edge has no pair context: None."""
    n = len(items)
    if n < 2 and not closed:
        return None if items else ()
    out: list[int] = []
    for i in range(n - 1):
        out.extend(rule.image((items[i], items[i + 1]), i))
    last = (items[-1], items[0]) if closed else (items[-2], items[-1])
    out.extend(rule.image(last, n - 1))
    return tuple(out)


@dataclass(frozen=True)
class SubstitutionSystem:
    """A rule bundled with its digiset and start data.

    The rule's type fixes the system's ``kind`` and ``start_level``: a
    wholecurve rule's starts are level 1, every other start is level 0.
    ``start`` is a digit tuple for edgewise systems and a variant tuple for
    digitwise ones; wholecurve systems keep their starts inside the rule.
    ``post`` (optional) is applied to the state right after each
    application, evaluated at the level just produced.
    """

    digiset: Digiset
    rule: EdgewiseRule | DigitRule | WholeCurveRule | PairRule
    start: tuple = ()
    post: PostTransform | None = None
    base: "SubstitutionSystem | None" = None
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.rule, (EdgewiseRule, DigitRule, WholeCurveRule, PairRule)):
            raise RuleError(f"not a substitution rule: {self.rule!r}")
        if self.kind == "pairlift" and self.base is None and not self.start:
            raise RuleError("pairlift needs a base system or an explicit start")

    @property
    def kind(self) -> str:
        return self.rule.kind

    @property
    def start_level(self) -> int:
        return 1 if isinstance(self.rule, WholeCurveRule) else 0


ITEM_CAP = 10**7


def _refuse_over_cap(size: int, k: int) -> None:
    """Raise before building the k-th application's output of ``size`` items."""
    if size > ITEM_CAP:
        raise RuleError(f"item cap {ITEM_CAP} exceeded at level {k}: it would have {size} items")


def _morphism(sys_: SubstitutionSystem):
    """Morphism kernel: (digits, length stream or None) at levels 0, 1, ...

    Token counts give each level's length before the level is built; the
    tokens that occur pick the entries of the next image table.
    """
    post = sys_.post
    if sys_.kind == "edgewise":
        terms = sys_.rule.terms
        scales = tuple(t.scale_pow for t in terms)

        def image(x, level):
            img = tuple(t.of_digit(x, level) for t in terms)
            return img if post is None else post.apply_at(level + 1, img)
    else:
        rule: DigitRule = sys_.rule
        scales = ()

        def image(v, level):
            img = rule.image(v)
            if post is None:
                return img
            return tuple(zip(post.apply_at(level + 1, project(img)), (m for _, m in img)))

    stream = tuple(sys_.start)
    exps = (0,) * len(stream) if any(scales) else None
    counts = Counter(stream)
    for level in count(sys_.start_level):
        yield (stream if sys_.kind == "edgewise" else project(stream)), exps
        table = {v: image(v, level) for v in counts}
        nxt: Counter = Counter()
        for v, c in counts.items():
            for w in table[v]:
                nxt[w] += c
        _refuse_over_cap(nxt.total(), level + 1 - sys_.start_level)
        stream = tuple(chain.from_iterable(map(table.__getitem__, stream)))
        if exps is not None:
            exps = tuple(e + s for e in exps for s in scales)
        counts = nxt


def _production(sys_: SubstitutionSystem):
    """Production kernel: (read-out digits, length stream or None) at levels
    0, 1, ...  An edgewise rule runs as the single state ``""``."""
    if sys_.kind == "edgewise":
        atoms = tuple(StateAtom("", t) for t in sys_.rule.terms)
        rule = WholeCurveRule({"": atoms}, {"": tuple(sys_.start)}, "")
    else:
        rule = sys_.rule
    states = {name: tuple(items) for name, items in rule.starts.items()}
    scaled = any(
        isinstance(a, StateAtom) and a.term.scale_pow for atoms in rule.productions.values() for a in atoms
    )
    exps = {name: (0,) * len(items) for name, items in states.items()} if scaled else None
    for level in count(sys_.start_level):
        out = states[rule.output_state]
        if rule.normalizer is not None:
            out = rule.normalizer.apply_at(level, out)
        yield out, (exps[rule.output_state] if exps is not None else None)
        sizes = [
            sum(len(states[a.state]) if isinstance(a, StateAtom) else 1 for a in atoms)
            for atoms in rule.productions.values()
        ]
        _refuse_over_cap(max(sizes), level + 1 - sys_.start_level)
        states = expand_wholecurve(rule, level, states)
        if sys_.post is not None:
            states = {name: sys_.post.apply_at(level + 1, items) for name, items in states.items()}
        if exps is not None:
            exps = {
                name: tuple(chain.from_iterable(_atom_lengths(a, exps) for a in atoms))
                for name, atoms in rule.productions.items()
            }


def _atom_lengths(a: Atom, exps: Mapping[str, tuple[int, ...]]) -> tuple[int, ...]:
    """Length-stream counterpart of one atom: a connector is one unscaled
    edge; a state copy reorders like its digits and adds its sqrt(2) power."""
    if isinstance(a, ConnectorAtom):
        return (0,)
    src = exps[a.state][::-1] if a.term.reverse else exps[a.state]
    return tuple(e + a.term.scale_pow for e in src)


def levels(sys_: SubstitutionSystem) -> Iterator[tuple]:
    """The system's approximants as raw ``(digits, length exponents or None)``
    tuples for levels 0, 1, 2, ..., each built from the one before.

    Digitwise rules and edgewise rules without a reversing term run on the
    morphism kernel, the rest on the production kernel; a pairlift lifts
    each level of its base system (or only its own start), and a level it
    cannot lift, one open edge without pair context, comes out as
    ``(None, None)``.  A level over ``ITEM_CAP`` items raises ``RuleError``
    before it is built, which ends the stream.
    """
    if sys_.kind == "pairlift":
        base = levels(sys_.base) if sys_.base is not None else _start_level_only(sys_)
        for k, (items, _) in enumerate(base):
            _refuse_over_cap(2 * len(items), k)
            yield _lift(sys_.rule, items), None
    elif sys_.kind == "digitwise" or (sys_.kind == "edgewise" and not sys_.rule.has_reverse):
        yield from _morphism(sys_)
    else:
        yield from _production(sys_)


def _start_level_only(sys_: SubstitutionSystem):
    yield tuple(sys_.start), None
    raise RuleError("a pairlift without a base system only has its start level")


def _read(items: tuple[int, ...] | None) -> tuple[int, ...]:
    if items is None:
        raise RuleError("cannot lift a single open edge: no pair context")
    return items


def iterate(sys_: SubstitutionSystem, k: int) -> SignedSequence:
    """Apply the system k times to its start and read the result out.

    k = 0 returns the start itself (normalized read-out included for
    wholecurve systems).
    """
    seq, _ = iterate_full(sys_, k)
    return seq


def iterate_full(sys_: SubstitutionSystem, k: int) -> tuple[SignedSequence, tuple[int, ...] | None]:
    """Like ``iterate`` but also returns the sqrt(2)-exponent length stream
    when a term of the system scales, else None: level k of ``levels``."""
    if k < 0:
        raise RuleError("level must be nonnegative")
    items, exps = next(islice(levels(sys_), k, None))
    return SignedSequence(_read(items), sys_.digiset), exps


def check_extending(sys_: SubstitutionSystem, k: int) -> bool:
    """True iff every approximant up to level k starts with the previous one."""
    if k < 1:
        raise RuleError("need k >= 1")
    return extending(items for items, _ in islice(levels(sys_), k + 1))


def extending(approximants) -> bool:
    """True iff each digit tuple starts with the one before it."""
    return all(cur[: len(prev)] == prev for prev, cur in pairwise(map(_read, approximants)))


def check_commutation(rule, p: SignedPermutation) -> bool:
    """Does expanding commute with relabeling by ``p`` on every digit +-1..+-p.n?"""
    if isinstance(rule, EdgewiseRule):
        for x in chain(range(1, p.n + 1), range(-1, -p.n - 1, -1)):
            expanded_then_mapped = apply_items(p, tuple(t.of_digit(x) for t in rule.terms))
            mapped_then_expanded = tuple(t.of_digit(p.of_digit(x)) for t in rule.terms)
            if expanded_then_mapped != mapped_then_expanded:
                return False
        return True
    if isinstance(rule, DigitRule):
        # p must act on variants: relabel the base digit, keep the mark
        for v in sorted(rule.alphabet()):
            image = rule.image(v)
            try:
                mapped = rule.image((p.of_digit(v[0]), v[1]))
            except RuleError:
                return False
            if mapped != tuple((p.of_digit(x), m) for x, m in image):
                return False
        return True
    raise RuleError("commutation check applies to edgewise and digitwise rules")


def is_expansive(sys_: SubstitutionSystem) -> bool:
    """Every digit's one-step image has at least two items.

    Pairlifts are excluded by design: they re-code, they do not grow.
    """
    if sys_.kind == "pairlift":
        return True
    if sys_.kind == "edgewise":
        return sys_.rule.width >= 2
    if sys_.kind == "digitwise":
        rule: DigitRule = sys_.rule
        lengths = [len(rule.image(v)) for v in sorted(rule.alphabet())]
        if rule.default is not None:
            lengths += [len(rule.image((x, 0))) for x in (1, 2, 3, -1, -2, -3)]
        return bool(lengths) and min(lengths) >= 2
    return all(len(atoms) >= 2 for atoms in sys_.rule.productions.values())
