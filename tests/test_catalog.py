import pytest

from fracseq.catalog import (
    CatalogError,
    catalog_entries,
    catalog_list,
    export_bfile,
    generate_entry,
    get_entry,
    parse_bfile,
    stream_ids,
    ternary_ones,
    verify_entry,
)
from fracseq.sequences import SignedSequence, compare, is_normalized


def test_fifteen_entries():
    assert len(catalog_entries()) == 15
    assert len({e.id for e in catalog_entries()}) == 15


def test_catalog_order_strictly_increasing():
    # strictly increasing except the dragon pair, which shares one digit
    # sequence (same curve on two grids) and ties
    entries = catalog_list()
    for a, b in zip(entries, entries[1:]):
        c = compare(SignedSequence(a.expected_prefix), SignedSequence(b.expected_prefix))
        if {a.id, b.id} == {"v1-dragon-8roots", "v1-dragon-sqdiag"}:
            assert c == 0
        else:
            assert c == -1


def test_catalog_order_endpoints():
    entries = catalog_list()
    assert entries[0].id == "dekking-flowsnake"
    assert entries[0].expected_prefix[:3] == (1, 1, 2)
    assert entries[-1].id == "beta-omega"
    assert entries[-1].expected_prefix[:4] == (1, 2, -1, -1)


def test_catalog_order_island_before_flowsnake():
    # the island (position 8 = 2) sorts before the flowsnake (position 8 = -2)
    ids = [e.id for e in catalog_list()]
    assert ids.index("mandelbrot-island") == ids.index("mandelbrot-flowsnake") - 1


def test_catalog_expected_order():
    assert [e.id for e in catalog_list()] == [
        "dekking-flowsnake",
        "mandelbrot-island",
        "mandelbrot-flowsnake",
        "box4",
        "arndt-peano",
        "arndt-peano-truncated",
        "v1-dragon-8roots",
        "v1-dragon-sqdiag",
        "hilbert-original",
        "hilbert-3d-origin",
        "hilbert-4d-origin",
        "gray",
        "hilbert-4d-nonorigin",
        "hilbert-3d-nonorigin",
        "beta-omega",
    ]


def test_all_prefixes_long_enough():
    for e in catalog_entries():
        assert len(e.expected_prefix) >= 25


def test_generate_entry_examples():
    got, _ = generate_entry("hilbert-original", 8)
    assert got.items == (1, 2, -1, 2, 2, 1, -2, 1)
    got, _ = generate_entry("gray", 16)
    assert got.items == (1, 2, -1, 3, 1, -2, -1, 4, 1, 2, -1, -3, 1, -2, -1, 5)
    digits, exps = generate_entry("v1-dragon-sqdiag", 8)
    assert digits.items == (1, 2, 3, 4, -1, 2, 3, 4)
    assert exps == (0, 0, 1, 1, 0, 0, 1, 1)


def test_generate_entry_prefixes_are_normalized():
    for e in catalog_entries():
        got, _ = generate_entry(e.id, len(e.expected_prefix))
        assert got.items == e.expected_prefix, e.id
        assert is_normalized(got), e.id


def test_generate_entry_errors():
    with pytest.raises(CatalogError):
        generate_entry("nope", 10)
    with pytest.raises(CatalogError):
        generate_entry("gray", -1)
    with pytest.raises(CatalogError):
        generate_entry("gray", 10**9)


def test_verify_entry_reports():
    for entry_id in ("hilbert-original", "arndt-peano", "gray"):
        rep = verify_entry(entry_id)
        assert rep.passed, [(c.name, c.detail) for c in rep.checks if not c.passed]
    names = [c.name for c in verify_entry("arndt-peano").checks]
    assert names[:2] == ["prefix", "normalized"]
    assert "edge-covering" in names


def test_bfile_examples():
    assert export_bfile("gray", 4) == b"1 1\n2 2\n3 -1\n4 3\n"
    assert export_bfile("v1-dragon-lengths", 4) == b"1 0\n2 0\n3 1\n4 1\n"
    assert export_bfile("gray", 0) == b""


def test_bfile_round_trip():
    data = export_bfile("beta-omega", 30)
    rows = parse_bfile(data)
    assert [v for _, v in rows] == list(get_entry("beta-omega").expected_prefix[:30])
    assert parse_bfile(b"# comment\n1 5\n2 -3\n") == [(1, 5), (2, -3)]
    with pytest.raises(CatalogError):
        parse_bfile(b"1 5\n3 2\n")


def test_stream_ids():
    ids = stream_ids()
    assert "v1-dragon-lengths" in ids
    assert len(ids) == 16


def test_ternary_ones():
    # 12 = 110_3 has two ones, 13 = 111_3 has three
    assert [ternary_ones(n) for n in range(8)] == [0, 1, 0, 1, 2, 1, 0, 1]
    assert ternary_ones(12) == 2
    assert ternary_ones(13) == 3


def test_all_catalog_systems_expansive():
    from fracseq.substitution import is_expansive

    for e in catalog_entries():
        assert is_expansive(e.system), e.id


def test_prefix_check_reports_failure():
    import dataclasses

    from fracseq.catalog import _check_prefix

    entry = get_entry("gray")
    doctored = dataclasses.replace(entry, expected_prefix=(1, 2, -1, 99))
    result = _check_prefix(doctored, generate_entry("gray", 4)[0])
    assert not result.passed
    assert "difference at 3" in result.detail


def test_verify_entry_generates_once(monkeypatch):
    from fracseq import catalog

    calls = []
    original = catalog.generate_entry

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(catalog, "generate_entry", counting)
    assert verify_entry("box4").passed
    assert len(calls) == 1


def test_verify_entry_reads_one_level_stream(monkeypatch):
    from fracseq import catalog

    opened, built = [], []
    original = catalog.levels

    def recording(system, *rest):
        opened.append(system.name)
        for k, level in enumerate(original(system, *rest)):
            built.append((system.name, k))
            yield level

    monkeypatch.setattr(catalog, "levels", recording)
    for entry_id in ("gray", "v1-dragon-sqdiag", "arndt-peano-truncated", "hilbert-3d-origin"):
        opened.clear()
        built.clear()
        assert verify_entry(entry_id).passed, entry_id
        assert len(opened) == 1, entry_id
        assert len(built) == len(set(built)), entry_id


def test_generate_entry_validates_only_the_terms_it_returns(monkeypatch):
    validated = []
    original = SignedSequence.__post_init__

    def counting(self):
        validated.append(len(self.items))
        original(self)

    monkeypatch.setattr(SignedSequence, "__post_init__", counting)
    got, _ = generate_entry("dekking-flowsnake", 3873)
    assert len(got) == 3873
    assert sum(validated) <= 2 * 3873


def test_gray_checks_read_the_entry_system(monkeypatch):
    import dataclasses

    from fracseq import catalog
    from fracseq.catalog import box4_system

    entry = get_entry("gray")
    assert {c.name: c.passed for c in verify_entry("gray").checks}["hamiltonian-cube"]
    wrong = dataclasses.replace(entry, system=box4_system())
    monkeypatch.setitem(catalog._BY_ID, "gray", wrong)
    results = {c.name: c.passed for c in verify_entry("gray").checks}
    assert results["hamiltonian-cube"] is False
    assert results["gray-hyper-orthogonal"] is False


def test_generate_entry_stops_at_first_failure(monkeypatch):
    from fracseq import catalog
    from fracseq.substitution import RuleError

    calls = []

    def over_cap(system, *rest):
        # a stream whose level 0 is over the cap: a search that opened it
        # again to try later levels would record more calls
        calls.append(0)
        raise RuleError("item cap 10 exceeded at level 0: it would have 99 items")
        yield  # a generator, like the real stream

    monkeypatch.setattr(catalog, "levels", over_cap)
    with pytest.raises(CatalogError, match="hilbert-4d-origin: item cap 10 exceeded at level 0"):
        generate_entry("hilbert-4d-origin", 100)
    assert calls == [0]


def test_generate_entry_skips_only_the_one_edge_pairlift_level(monkeypatch):
    from fracseq import catalog

    levels = []
    original = catalog.levels

    def recording(system, *rest):
        # the stream gives level 0, whose base is one edge, as None: not lifted
        for k, (items, exps) in enumerate(original(system, *rest)):
            if items is not None:
                levels.append(k)
            yield items, exps

    monkeypatch.setattr(catalog, "levels", recording)
    got, _ = generate_entry("arndt-peano-truncated", 20)
    assert got.items == get_entry("arndt-peano-truncated").expected_prefix[:20]
    assert levels == [1, 2, 3]


def test_edge_simple_reports_partial_overlaps():
    # the verdict reads whole-edge multiplicity; the partial overlaps show in the detail
    checks = {c.name: c for c in verify_entry("arndt-peano-truncated").checks}
    assert checks["edge-simple"].passed
    assert checks["edge-simple"].detail == "max edge multiplicity 1, partial overlap pairs 10"


def test_unknown_check_fails_in_the_report(monkeypatch):
    import dataclasses

    from fracseq import catalog

    entry = dataclasses.replace(get_entry("box4"), checks=("extending", "no-such-check"))
    monkeypatch.setitem(catalog._BY_ID, "box4", entry)
    results = {c.name: (c.passed, c.detail) for c in verify_entry("box4").checks}
    assert results["extending"] == (True, "")
    assert results["no-such-check"] == (False, "unknown check")


def test_entry_digiset_is_its_system_digiset():
    sizes = {e.id: e.digiset.size for e in catalog_entries()}
    assert sizes == {
        "dekking-flowsnake": 2, "mandelbrot-flowsnake": 2, "mandelbrot-island": 2, "box4": 2,
        "arndt-peano": 2, "arndt-peano-truncated": 4, "v1-dragon-8roots": 4, "v1-dragon-sqdiag": 4,
        "hilbert-original": 2, "hilbert-3d-origin": 3, "hilbert-4d-origin": 4, "gray": None,
        "hilbert-4d-nonorigin": 4, "hilbert-3d-nonorigin": 3, "beta-omega": 2,
    }
    assert all(e.digiset is e.system.digiset for e in catalog_entries())
