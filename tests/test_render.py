import hashlib

import pytest

from fracseq.catalog import get_entry, hilbert_original_system
from fracseq.cli import main
from fracseq.geometry import cubic_grid, square_grid, trace
from fracseq.gray import HILBERT_SPECS, gray_sequence, hilbert_system
from fracseq.render import RenderError, RenderOptions, export_vertices, svg_export
from fracseq.sequences import Digiset, SignedSequence
from fracseq.substitution import iterate


def square_polyline():
    return trace(SignedSequence((1, 2, -1, -2), Digiset(2)), square_grid())


def test_svg_square():
    data = svg_export(square_polyline())
    text = data.decode("ascii")
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<path") == 1
    assert text.count("L ") == 4
    assert "Q" not in text


def test_svg_deterministic():
    p = trace(iterate(hilbert_original_system(), 2), square_grid())
    a = svg_export(p, RenderOptions(rounded_corners=True))
    b = svg_export(p, RenderOptions(rounded_corners=True))
    assert a == b


def test_svg_rounded_corner_count():
    p = trace(iterate(hilbert_original_system(), 2), square_grid())
    data = svg_export(p, RenderOptions(rounded_corners=True)).decode("ascii")
    # one quadratic cut per interior vertex
    assert data.count("Q ") == p.edge_count - 1


def test_svg_iso_projection_vertex_count():
    h = iterate(hilbert_system(HILBERT_SPECS["3d-origin"]), 1)
    p = trace(h, cubic_grid(3))
    assert len(p.vertices) == 65  # 64 edges at the second level
    data = svg_export(p, RenderOptions(projection="iso")).decode("ascii")
    assert data.count("L ") == 64


def test_svg_rejects_high_dimensions():
    g = trace(gray_sequence(4), cubic_grid(4))
    with pytest.raises(RenderError):
        svg_export(g, RenderOptions(projection="iso"))


def test_svg_y_axis_points_up():
    # <2> goes up mathematically; on screen that must DECREASE y
    p = trace(SignedSequence((2,), Digiset(2)), square_grid())
    data = svg_export(p).decode("ascii")
    path = data.split('d="')[1].split('"')[0]
    tokens = path.replace("M", "").replace("L", "").split()
    y0, y1 = float(tokens[1]), float(tokens[3])
    assert y1 < y0


def test_csv_export_gray4():
    p = trace(gray_sequence(4), cubic_grid(4))
    rows = export_vertices(p, "csv").decode("ascii").strip().split("\n")
    assert rows[0] == "x1,x2,x3,x4"
    assert len(rows) == 17  # header + 16 vertices
    for row in rows[1:]:
        assert set(row.split(",")) <= {"0", "1"}


def test_csv_two_vertices():
    p = trace(SignedSequence((1,), Digiset(2)), square_grid())
    rows = export_vertices(p, "csv").decode("ascii").strip().split("\n")
    assert rows[1:] == ["0,0", "1,0"]


def test_obj_export():
    h = iterate(hilbert_system(HILBERT_SPECS["3d-origin"]), 1)
    p = trace(h, cubic_grid(3))
    lines = export_vertices(p, "obj").decode("ascii").strip().split("\n")
    v_lines = [l for l in lines if l.startswith("v ")]
    l_lines = [l for l in lines if l.startswith("l ")]
    assert len(v_lines) == 65
    assert len(l_lines) == 1
    assert l_lines[0].split()[1:] == [str(i) for i in range(1, 66)]


def test_obj_requires_3d():
    with pytest.raises(RenderError):
        export_vertices(square_polyline(), "obj")


def test_options_validation():
    with pytest.raises(RenderError):
        RenderOptions(projection="weird")


# SHA-256 of exports whose coordinates involve sqrt2 (or 3D floats), taken
# from the Radical-arithmetic trace that the integer embedding replaced: the
# float conversion must keep every byte
GOLDEN_SVG = {
    ("v1-dragon-8roots", 7): "5e0c9a7a63f117d2828a67c673d23be9813db0407f277605ed090f0bbef39803",
    ("v1-dragon-sqdiag", 7): "40de5a09e2d418dc625b7245a5980be7a8149188f355e7e1f631ab5a5cb08d07",
    ("arndt-peano-truncated", 3): "76d35d006938457d8b9d8f9741ed99e2022afaa792b1f02f8eed98ace8959c41",
}


@pytest.mark.parametrize("entry_id, level", sorted(GOLDEN_SVG))
def test_sqrt2_grid_svg_bytes(entry_id, level, tmp_path, capsys):
    out = tmp_path / "curve.svg"
    assert main(["render", entry_id, "--level", str(level), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SVG[entry_id, level]


def test_sqrt2_grid_csv_and_3d_obj_bytes():
    dragon = get_entry("v1-dragon-8roots")
    csv = export_vertices(trace(iterate(dragon.system, 3), dragon.grid), "csv")
    assert hashlib.sha256(csv).hexdigest() == "dfe750bb12eed6749e77aaf2e7f3754a9f8c156448dae3429b4a47567339aba7"
    assert csv.split(b"\n")[4] == b"0.2928932188134524,1.7071067811865475"
    hilbert = get_entry("hilbert-3d-origin")
    obj = export_vertices(trace(iterate(hilbert.system, 1), hilbert.grid), "obj")
    assert hashlib.sha256(obj).hexdigest() == "d751eb60945d990438b85f4e60464dd4e597474d1965c5ba0ce59cba97d8ddbf"


# SHA-256 of every other benchmark render (lattice grids, rounded corners, both
# 3D projections) and of rounded corners on sqrt2, sqrt3 and 3D-iso screens,
# taken from svg_export before it formatted each distinct coordinate once
GOLDEN_RENDER_SVG = {
    ("hilbert-original", 6, ()): "763f58fcd20568d54dba9382d5eafcd4a5a474287929337eba30559d53ba6f4d",
    ("hilbert-original", 6, ("--rounded",)): "490daa39a1a378460a81ea8f21497e5e38f42c3125d7d3afc2fbe5cdcee98c70",
    ("box4", 6, ()): "1d25607b20c6d04f6cab42ae0b70d947760d3498ffeebdbfab9e858e4aab8fe0",
    ("beta-omega", 6, ()): "a8927b2dceee5cc8bbf663846c58703364651932e66ac9e6575aa80e5fcd0a79",
    ("arndt-peano", 4, ()): "ed464da7a46161260fe5e3c1a652fc4ce4017755fb853810af787e986e80362f",
    ("dekking-flowsnake", 3, ()): "3d87e0b5ac301ea65abec9b31b95e4abc60b02ef4593b81164791522d217a12f",
    ("mandelbrot-flowsnake", 3, ()): "4318bf91ed902a41a9208392b0884f48945752d76539c952df1202898bf4cd89",
    ("mandelbrot-island", 4, ()): "a27a7e61ef91aa1b76c1e8d26ccf73b7fa49253052e40f1744dd97d4b4ba11d5",
    ("hilbert-3d-origin", 3, ("--projection", "iso")):
        "2c78262fd89374de370a72c008390e74ea75521c48e984fd3f1363ae5ec309f5",
    ("hilbert-3d-origin", 3, ("--projection", "ortho")):
        "c0164b1593643bd3ecedafd760ccb82a7870359d7d5a08e6be5bef04f2fc11a9",
    ("v1-dragon-8roots", 5, ("--rounded",)): "10a60a7c26d83026ad155ac621f8491a2478462d76663bded425b852c6cb1c83",
    ("arndt-peano-truncated", 2, ("--rounded",)): "44dbb36c9dd2720ec16335a6dd9fe4dea00c3c60850cfc11be28ab1a3d3c42b0",
    ("mandelbrot-flowsnake", 2, ("--rounded",)): "fcda13b45dd307820b06f9b50482b6c862bd7ed091b173ff5adf2cdd4b435ae8",
    ("hilbert-3d-origin", 2, ("--projection", "iso", "--rounded")):
        "5b18232564eb9405e39d41e672f7092f09594feedcc3d07c45f8e52bc17198ff",
}


@pytest.mark.parametrize("entry_id, level, flags", sorted(GOLDEN_RENDER_SVG))
def test_render_svg_bytes(entry_id, level, flags, tmp_path, capsys):
    out = tmp_path / "curve.svg"
    assert main(["render", entry_id, "--level", str(level), "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RENDER_SVG[entry_id, level, flags]
