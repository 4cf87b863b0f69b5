"""Differential test: ``is_hyper_orthogonal`` against a brute-force,
window-by-window reading of its definition."""

import random

from fracseq.gray import gray_extended, gray_sequence, is_hyper_orthogonal
from fracseq.sequences import SignedSequence, UNBOUNDED


def hyper_orthogonal_reference(items, n):
    """Walk every window of 2**k edges (k = 1..n, windows that fit) from
    its first vertex; it must use k+1 axes and span at most 1 per axis."""
    for k in range(1, n + 1):
        m = 2**k
        for start in range(len(items) - m + 1):
            window = items[start:start + m]
            if len({abs(x) for x in window}) != k + 1:
                return False
            pos = {}
            lo, hi = {}, {}
            for x in window:
                a = abs(x)
                pos[a] = pos.get(a, 0) + (1 if x > 0 else -1)
                lo[a] = min(lo.get(a, 0), pos[a])
                hi[a] = max(hi.get(a, 0), pos[a])
            if any(hi[a] - lo[a] > 1 for a in pos):
                return False
    return True


def _random_walk(rng):
    d = rng.randint(2, 5)
    length = rng.randint(0, 24)
    return d, [rng.choice((1, -1)) * rng.randint(1, d) for _ in range(length)]


def _perturbed_gray_slice(rng):
    """A slice of a Gray curve, with or without one step replaced."""
    d = rng.randint(2, 5)
    base = gray_sequence(d).items if rng.random() < 0.5 else gray_extended(d, rng.choice((1, 2))).items
    start = rng.randrange(len(base))
    items = list(base[start:rng.randint(start + 1, len(base))])
    if rng.random() < 0.5:
        items[rng.randrange(len(items))] = rng.choice((1, -1)) * rng.randint(1, d)
    return d, items


def test_matches_brute_force_reference():
    rng = random.Random(0x4F7)
    for make in (_random_walk, _perturbed_gray_slice):
        verdicts = set()
        for _ in range(6000):
            d, items = make(rng)
            n = rng.randint(1, d - 1)
            want = hyper_orthogonal_reference(items, n)
            assert is_hyper_orthogonal(SignedSequence(tuple(items), UNBOUNDED), n) == want, (items, n)
            verdicts.add(want)
        assert verdicts == {True, False}, make.__name__


def test_reference_reads_the_definition():
    assert hyper_orthogonal_reference((1, 2, -1, 3, 1, -2, -1), 2)
    assert not hyper_orthogonal_reference((1, 1), 1)  # one axis only
    assert not hyper_orthogonal_reference((1, 2, 1, -2), 2)  # spans 2 along axis 1
    assert not hyper_orthogonal_reference((1, 2, -1, -2), 2)  # two axes in four edges
