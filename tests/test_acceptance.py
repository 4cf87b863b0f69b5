"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
pass; any failure fails the suite with the usual pytest detail.
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from fracseq.catalog import (
    arndt_peano_system,
    beta_omega_system,
    catalog_entries,
    export_bfile,
    generate_entry,
    hilbert_original_system,
    mandelbrot_island_system,
    v1_dragon_length_system,
)
from fracseq.geometry import (
    coverage_report,
    dragon_axes_grid,
    sqrt2_pow,
    square_grid,
    trace,
)
from fracseq.gray import (
    HILBERT_SPECS,
    gray_sequence,
    gray_t1_system,
    gray_t2_system,
    hilbert_system,
    is_hyper_orthogonal,
)
from fracseq.perms import SignedPermutation, apply, compose, generate_group, parity, to_matrix
from fracseq.sequences import (
    Digiset,
    SignedSequence,
    characteristic_perm,
    compare,
    concat,
    fold,
    inverse,
    is_normalized,
    negate,
    reverse,
)
from fracseq.substitution import check_commutation, EdgewiseRule, SubstitutionSystem, Term, iterate, iterate_full

PKG_ROOT = Path(__file__).resolve().parent.parent


def _one_step(rule, s):
    """One iterate step of an edgewise rule from start ``s``."""
    return iterate(SubstitutionSystem(digiset=s.digiset, rule=rule, start=s.items), 1)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------- criterion 1

def test_c1_golden_prefixes():
    t0 = time.perf_counter()
    for e in catalog_entries():
        got, exps = generate_entry(e.id, len(e.expected_prefix))
        assert got.items == e.expected_prefix, e.id
        if e.length_log_prefix is not None:
            _, ex = generate_entry(e.id, len(e.length_log_prefix))
            assert tuple(ex) == e.length_log_prefix, e.id
    elapsed = time.perf_counter() - t0
    report("1 golden prefixes (15 entries, exact)", elapsed < 10.0, f"{elapsed:.2f}s")


# ----------------------------------------------------------- criterion 2

def test_c2_gray_ruler_fold_t1t2():
    g16 = gray_sequence(16)
    ruler_ok = all(
        abs(g16.items[n - 1]) == ((n & -n).bit_length())
        for n in range(1, 2**16)
    )
    fold_ok = all(fold(range(1, d + 1)).items == gray_sequence(d).items for d in range(1, 13))
    a = iterate(gray_t1_system(), 12)
    b = iterate(gray_t2_system(), 12)
    agree_ok = a.items[: 2**12] == b.items[: 2**12] and len(a) >= 2**12 and len(b) >= 2**12
    report("2 gray ruler / fold / T1=T2", ruler_ok and fold_ok and agree_ok)


# ----------------------------------------------------------- criterion 3

def all_signed_perms(n):
    for mags in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(m * sg for m, sg in zip(mags, signs)))


def bubble_sign(images):
    """Third route for small n: explicit transposition counting plus
    negative-image count."""
    mags = [abs(v) for v in images]
    swaps = 0
    for i in range(len(mags)):
        for j in range(len(mags) - 1 - i):
            if mags[j] > mags[j + 1]:
                mags[j], mags[j + 1] = mags[j + 1], mags[j]
                swaps += 1
    negs = sum(1 for v in images if v < 0)
    return -1 if (swaps + negs) % 2 else 1


def test_c3_parity_theorem():
    total = 0
    for n in (1, 2, 3, 4):
        for q in all_signed_perms(n):
            det = to_matrix(q).determinant()
            assert parity(q) == det == bubble_sign(list(q.images))
            total += 1
    assert total == 442  # of which 440 have n in {2, 3, 4}
    rng = random.Random(20240117)
    for _ in range(10**4):
        n = rng.randint(1, 8)
        mags = list(range(1, n + 1))
        rng.shuffle(mags)
        q = SignedPermutation(tuple(m * rng.choice((1, -1)) for m in mags))
        assert parity(q) == to_matrix(q).determinant()
    report("3 parity = determinant (442 exhaustive + 10^4 random)", True)


# ----------------------------------------------------------- criterion 4

def test_c4_group_sizes():
    g24 = generate_group([SignedPermutation((3, -2, -1)), SignedPermutation((-1, -3, 2))])
    g192 = generate_group([SignedPermutation((4, 3, 1, 2)), SignedPermutation((4, -2, -1, 3))])
    mu, tau_y = SignedPermutation((2, -1)), SignedPermutation((1, -2))
    d4 = generate_group([mu, tau_y])
    table = {
        (1, 2), (2, -1), (-1, -2), (-2, 1),
        (-1, 2), (1, -2), (2, 1), (-2, -1),
    }
    # dihedral structure: composing the rotation and the vertical
    # reflection in either order gives the two diagonal reflections
    products_ok = (compose(mu, tau_y).images == (2, 1)
                   and compose(tau_y, mu).images == (-2, -1))
    ok = (len(g24) == 24 and len(g192) == 192
          and {q.images for q in d4} == table and products_ok)
    report("4 group orders 24 / 192 / 8 (table match)", ok)


# ----------------------------------------------------------- criterion 5

def test_c5_space_filling():
    # 2D Hilbert: the level-k curve has 4^k - 1 edges and visits every
    # vertex of the 2^k x 2^k box exactly once
    hil = hilbert_original_system()
    for k in range(1, 9):
        p = trace(iterate(hil, k - 1), square_grid())
        rep = coverage_report(p, (0, 0), (2**k - 1, 2**k - 1))
        assert rep.each_exactly_once, f"hilbert k={k}"

    arndt = arndt_peano_system()
    for k in range(1, 6):
        p = trace(iterate(arndt, k), square_grid())
        edges = Counter()
        incident = defaultdict(set)
        for a, b in zip(p.vertices, p.vertices[1:]):
            e = (a, b) if a <= b else (b, a)
            edges[e] += 1
            incident[a].add(e)
            incident[b].add(e)
        assert max(edges.values()) == 1, f"arndt k={k} doubles an edge"
        vcount = Counter(p.vertices)
        for v, es in incident.items():
            if len(es) == 4:
                assert vcount[v] == 2, f"arndt k={k} interior vertex {v}"

    beta = beta_omega_system()
    for k in range(1, 7):
        s = iterate(beta, k)
        p = trace(SignedSequence(s.items[:-1], s.digiset), square_grid())
        lo = tuple(min(v[i] for v in p.vertices) for i in range(2))
        hi = tuple(max(v[i] for v in p.vertices) for i in range(2))
        rep = coverage_report(p, lo, hi)
        assert rep.each_exactly_once and all(h - l + 1 == 2**k for l, h in zip(lo, hi)), f"beta k={k}"
    report("5 space filling: hilbert k<=8, arndt k<=5, beta-omega k<=6", True)


# ----------------------------------------------------------- criterion 6

def test_c6_hyper_orthogonality():
    for key in ("3d-origin", "3d-nonorigin"):
        sys_ = hilbert_system(HILBERT_SPECS[key])
        for k in range(1, 5):
            assert is_hyper_orthogonal(iterate(sys_, k - 1), 1), f"{key} k={k}"
    for key in ("4d-origin", "4d-nonorigin"):
        sys_ = hilbert_system(HILBERT_SPECS[key])
        for k in range(1, 4):
            assert is_hyper_orthogonal(iterate(sys_, k - 1), 2), f"{key} k={k}"
    for d in range(2, 11):
        assert is_hyper_orthogonal(gray_sequence(d), d - 1), f"gray d={d}"
    report("6 hyper-orthogonality: 3D order 1, 4D order 2, gray order d-1", True)


# ----------------------------------------------------------- criterion 7

def ternary_ones_oracle(n: int) -> int:
    # independent route: build the base-3 digit string
    if n == 0:
        return 0
    digits = ""
    while n:
        digits += str(n % 3)
        n //= 3
    return digits.count("1")


PRINTED_LOG_PREFIX = (0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1,
                      2, 2, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 2, 2)


def test_c7_geometry_cross_checks():
    island = mandelbrot_island_system()
    for k in range(0, 5):
        assert trace(iterate(island, k), square_grid()).closed, f"island k={k}"

    v1 = v1_dragon_length_system()
    seq, exps = iterate_full(v1, 5)
    lengths = [sqrt2_pow(e) for e in exps]
    p = trace(seq, dragon_axes_grid(), lengths)
    assert None not in p.lattice_points()

    assert len(exps) >= 200
    want = [ternary_ones_oracle(i // 2) for i in range(200)]  # each value twice
    assert list(exps[:200]) == want
    assert tuple(exps[: len(PRINTED_LOG_PREFIX)]) == PRINTED_LOG_PREFIX
    report("7 island closed, dragon on Z^2, length log = doubled ternary ones", True)


# ----------------------------------------------------------- criterion 8

def random_sequence(rng, n=5, max_len=32):
    k = rng.randrange(max_len + 1)
    return SignedSequence(
        tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(k)), Digiset(n))


def test_c8_randomized_properties():
    rng = random.Random(0xF5C)
    cases = 0

    for _ in range(25_000):  # involutions and inverse composition
        s = random_sequence(rng)
        assert reverse(reverse(s)) == s
        assert negate(negate(s)) == s
        assert inverse(inverse(s)) == s
        assert inverse(s) == negate(reverse(s))
        cases += 1

    for _ in range(20_000):  # anti-morphism law
        a, b = random_sequence(rng, max_len=16), random_sequence(rng, max_len=16)
        assert reverse(concat(a, b)) == concat(reverse(b), reverse(a))
        cases += 1

    for _ in range(15_000):  # substitutions commute with rotations
        n = rng.randint(2, 4)
        mu = SignedPermutation(tuple(range(2, n + 1)) + (-1,))
        powers = [mu]
        while len(powers) < 2 * n:
            powers.append(compose(mu, powers[-1]))
        rule = EdgewiseRule(tuple(
            Term(rng.choice(powers), sign=rng.choice((1, -1)))
            for _ in range(rng.randint(2, 5))))
        sigma = rng.choice(powers)
        assert check_commutation(rule, sigma)
        x = rng.choice((1, -1)) * rng.randint(1, n)
        s = SignedSequence((x,), Digiset(n))
        assert _one_step(rule, apply(sigma, s)) == apply(sigma, _one_step(rule, s))
        cases += 1

    for _ in range(20_000):  # characteristic perm normalizes
        n = rng.randint(1, 5)
        body = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randrange(1, 64))]
        mags = {abs(x) for x in body}
        body += [m for m in range(1, n + 1) if m not in mags]
        s = SignedSequence(tuple(body), Digiset(n))
        assert is_normalized(apply(characteristic_perm(s), s))
        cases += 1

    for _ in range(20_000):  # total order
        a, b, c = (random_sequence(rng, max_len=10) for _ in range(3))
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        cases += 1

    report("8 randomized algebra properties", cases == 100_000, f"{cases} cases")


# ----------------------------------------------------------- criterion 9

def run_cli(args, hash_seed, tmp_path):
    env = {
        "PYTHONPATH": str(PKG_ROOT / "src"),
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
    }
    return subprocess.run(
        [sys.executable, "-m", "fracseq.cli", *args],
        capture_output=True, env=env, cwd=tmp_path, check=True,
    ).stdout


def test_c9_determinism(tmp_path):
    # two runs under different hash seeds; generation is single-threaded
    # and pure, so there is no thread count for output to depend on
    outputs = []
    for seed in ("1", "2"):
        gen = run_cli(["gen", "gray", "--terms", "64"], seed, tmp_path)
        svg_path = tmp_path / f"out-{seed}.svg"
        run_cli(["render", "box4", "--level", "4", "--out", str(svg_path), "--rounded"], seed, tmp_path)
        bfile = export_bfile("beta-omega", 64)
        outputs.append((gen, svg_path.read_bytes(), bfile))
    ok = outputs[0] == outputs[1]
    report("9 determinism: gen/render/bfile byte-identical across runs", ok)
