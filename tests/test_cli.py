import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracseq.cli import main

PKG_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, **kw):
    env = {"PYTHONPATH": str(PKG_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    env.update(kw.pop("env", {}))
    return subprocess.run(
        [sys.executable, "-m", "fracseq.cli", *args],
        capture_output=True, text=True, env=env, **kw,
    )


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("dekking-flowsnake")
    assert len(out.strip().splitlines()) == 15


def test_gen_terms(capsys):
    assert main(["gen", "gray", "--terms", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1,2,-1,3,1,-2,-1,4"


def test_gen_level(capsys):
    assert main(["gen", "box4", "--level", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,1,-2,1,-2,-1,-2,1,-2,1,2,1,2,-1,2"


def test_gen_lengths_line(capsys):
    assert main(["gen", "v1-dragon-sqdiag", "--terms", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1,2,3,4,-1,2,3,4,-2"
    assert lines[1] == "lengths-log-sqrt2: 0,0,1,1,0,0,1,1,2"


def test_gen_bfile(tmp_path, capsys):
    target = tmp_path / "b.txt"
    assert main(["gen", "gray", "--terms", "4", "--bfile", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == b"1 1\n2 2\n3 -1\n4 3\n"


def test_gen_length_stream_id(tmp_path, capsys):
    target = tmp_path / "lens.txt"
    assert main(["gen", "v1-dragon-lengths", "--terms", "4", "--bfile", str(target)]) == 0
    assert capsys.readouterr().out.strip() == "0,0,1,1"
    assert target.read_bytes() == b"1 0\n2 0\n3 1\n4 1\n"


def test_gen_length_stream_at_a_level(tmp_path, capsys):
    assert main(["gen", "v1-dragon-sqdiag", "--level", "2"]) == 0
    lengths = capsys.readouterr().out.splitlines()[1].removeprefix("lengths-log-sqrt2: ")
    target = tmp_path / "lens.txt"
    assert main(["gen", "v1-dragon-lengths", "--level", "2", "--bfile", str(target)]) == 0
    assert capsys.readouterr().out.strip() == lengths == "0,0,1,1,0,0,1,1,2"
    assert target.read_bytes() == b"".join(f"{n} {v}\n".encode() for n, v in enumerate(lengths.split(","), 1))


def test_gen_level_bfile_matches_stdout(tmp_path, capsys):
    target = tmp_path / "island.txt"
    assert main(["gen", "mandelbrot-island", "--level", "2", "--bfile", str(target)]) == 0
    printed = capsys.readouterr().out.strip().split(",")
    rows = target.read_text().splitlines()
    assert len(printed) == 196
    assert rows == [f"{n} {v}" for n, v in enumerate(printed, start=1)]


def test_gen_bfile_generates_once(tmp_path, capsys, monkeypatch):
    from fracseq import catalog

    calls = []
    original = catalog.generate_entry

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(catalog, "generate_entry", counting)
    for stream in ("box4", "v1-dragon-sqdiag", "v1-dragon-lengths"):
        calls.clear()
        assert main(["gen", stream, "--terms", "40", "--bfile", str(tmp_path / "b.txt")]) == 0
        assert len(calls) == 1, stream
    capsys.readouterr()


def test_gen_unknown_id(capsys):
    assert main(["gen", "nope"]) == 2
    assert "unknown catalog id" in capsys.readouterr().err


def test_render(tmp_path, capsys):
    out = tmp_path / "curve.svg"
    assert main(["render", "hilbert-original", "--level", "2", "--out", str(out), "--rounded"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"<?xml")
    assert b"Q" in data


def test_render_iso(tmp_path, capsys):
    out = tmp_path / "h3.svg"
    assert main(["render", "hilbert-3d-origin", "--level", "1", "--out", str(out),
                 "--projection", "iso"]) == 0
    assert out.read_bytes().count(b"L ") == 64


def test_render_4d_rejected(tmp_path, capsys):
    out = tmp_path / "h4.svg"
    assert main(["render", "hilbert-4d-origin", "--level", "1", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_single(capsys):
    assert main(["verify", "gray"]) == 0
    out = capsys.readouterr().out
    assert "prefix" in out and "PASS" in out and "FAIL" not in out


def test_verify_json(capsys):
    assert main(["verify", "box4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["id"] == "box4"
    assert payload[0]["passed"] is True


def test_verify_all_json_passes_every_declared_check(capsys):
    from fracseq.catalog import catalog_entries

    assert main(["verify", "--all", "--json"]) == 0
    payload = {r["id"]: r for r in json.loads(capsys.readouterr().out)}
    assert sorted(payload) == sorted(e.id for e in catalog_entries())
    for entry in catalog_entries():
        report = payload[entry.id]
        assert [c["name"] for c in report["checks"]] == ["prefix", "normalized", *entry.checks]
        assert report["passed"] is True, entry.id
        assert all(c["passed"] for c in report["checks"]), entry.id


def test_perm_commands(capsys):
    assert main(["perm", "compose", "[-2,4,-1,3]", "[3,-1,4,-2]"]) == 0
    assert capsys.readouterr().out.strip() == "[-1,2,3,-4]"
    assert main(["perm", "invert", "[1,3,4,-2]"]) == 0
    assert capsys.readouterr().out.strip() == "[1,-4,2,3]"
    assert main(["perm", "parity", "[-2,4,-1,3]"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["perm", "apply", "[2,-1]", "1,2,-1"]) == 0
    assert capsys.readouterr().out.strip() == "2,-1,-2"
    assert main(["perm", "compose", "[1,-1]", "[1,2]"]) == 2


def test_seq_commands(capsys):
    assert main(["seq", "normalize", "1,3,4,-2"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3,4"
    assert main(["seq", "minimal", "1,2,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1,1,2,1"
    assert main(["seq", "compare", "1,2,3", "1,2,-1"]) == 0
    assert capsys.readouterr().out.strip() == "<"
    assert main(["seq", "fold", "1,2,3"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,-1,3,1,-2,-1"


def test_rule_check(tmp_path, capsys):
    rules = tmp_path / "peano.rules"
    rules.write_text(
        "name demo\ndigiset 2\nkind edgewise\nstart 1\n"
        + "".join(f"term {t}\n" for t in ["[1,2]", "[2,-1]", "[1,2]", "-[2,-1]",
                                          "-[1,2]", "-[2,-1]", "[1,2]", "[2,-1]", "[1,2]"])
    )
    assert main(["rule", "check", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "expansive: yes" in out
    assert "mu" in out  # commutes with the rotation


def test_rule_check_labels_the_preview_with_its_level(tmp_path, capsys):
    pairs = tmp_path / "pairs.rules"
    pairs.write_text(
        "name truncated\ndigiset 4\nkind pairlift\nstart 1,2,1,-2,-1,-2,1,2,1\n"
        "pair 1,2 -> 1,2\npair 1,-2 -> 1,4\npair 2,1 -> 3,2\npair 2,-1 -> 3,-4\n"
    )
    assert main(["rule", "check", str(pairs)]) == 0
    out = capsys.readouterr().out
    assert "level-0 preview: 1,2,3,2,1,4,-3,-2,-1,-2,-3,4,1,2,3,2,3,2\n" in out
    assert "level-2" not in out
    assert main(["rule", "check", str(PKG_ROOT / "rules" / "arndt-peano.rules")]) == 0
    out = capsys.readouterr().out
    assert "level-2 preview: 1,2,1,-2,-1,-2,1,2,1,2,-1,2,1,-2,1,2,-1,2,1,2,1,-2,-1,-2\n" in out


def test_rule_check_not_expansive(tmp_path, capsys):
    rules = tmp_path / "tiny.rules"
    rules.write_text("name tiny\ndigiset 2\nkind edgewise\nstart 1\nterm [1,2]\n")
    assert main(["rule", "check", str(rules)]) == 1


def test_rule_check_parse_error(tmp_path, capsys):
    rules = tmp_path / "bad.rules"
    rules.write_text("digiset 2\nkind edgewise\nterm [1,1]\n")
    assert main(["rule", "check", str(rules)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing id
    assert exc.value.code == 2


def test_cli_subprocess_end_to_end():
    r = run_cli("gen", "gray", "--terms", "6")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "1,2,-1,3,1,-2"
