"""The three workloads: what one pass runs, and how each op is checked.

An op is timed from just before the call into fracseq to just after it
returns.  CLI ops go through ``fracseq.cli.main`` in-process with stdout
captured and files written under the run's output directory; the file is
read back after the clock stops.  Each workload builds its reference data
(catalog prefixes, float walks, exact walks, brute-force counts) once,
before the warm-up pass, outside every timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import random
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import fracseq.catalog as catalog
import fracseq.cli as cli
import fracseq.geometry as geometry
import fracseq.substitution as substitution
from fracseq.sequences import SignedSequence

import oracles as orc
from oracles import Mismatch, expect


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    data: bytes | None


def cli_call(argv: list[str], out: str | None = None) -> tuple[float, CliResult]:
    if out is not None and os.path.exists(out):
        os.remove(out)
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    data = None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
    return elapsed, CliResult(rc, buf.getvalue(), err.getvalue(), data)


def cli_bytes(result) -> int:
    if not isinstance(result, CliResult):
        return 0
    return len(result.stdout.encode()) + (len(result.data) if result.data else 0)


@dataclass
class Op:
    """``run`` returns (seconds, output); ``check`` raises Mismatch or returns
    the op's item count; ``corruptions`` lists (label, thunk) pairs, each
    running an oracle on a deliberately corrupted copy of ``output``."""

    label: str
    run: Callable[[], tuple[float, object]]
    check: Callable[[object], int]
    corruptions: Callable[[object], list[tuple[str, Callable[[], None]]]]


def expected_edges(system, k: int) -> int:
    """Edge count at level k from the rule's structure alone: width^k*|start|
    for morphisms, per-state block counts for production systems, twice the
    base curve for a pair lift."""
    if system.kind == "edgewise":
        return system.rule.width ** k * len(system.start)
    if system.kind == "digitwise":
        widths = {len(img) for img in system.rule.mapping.values()}
        expect(len(widths) == 1, "digit rule is not uniform")
        return widths.pop() ** k * len(system.start)
    if system.kind == "wholecurve":
        sizes = {s: len(v) for s, v in system.rule.starts.items()}
        for _ in range(k):
            sizes = {
                s: sum(sizes[a.state] if hasattr(a, "state") else 1 for a in atoms)
                for s, atoms in system.rule.productions.items()
            }
        return sizes[system.rule.output_state]
    return 2 * expected_edges(system.base, k)


def _digits(entry_id: str, level: int):
    """The program's level-k digits, held to the published prefix and the
    structural edge count before any oracle relies on them."""
    entry = catalog.get_entry(entry_id)
    seq, _ = substitution.iterate_full(entry.system, level)
    digits = list(seq.items)
    expect(len(digits) == expected_edges(entry.system, level), f"{entry_id} level {level} has {len(digits)} edges")
    head = min(len(digits), len(entry.expected_prefix))
    expect(digits[:head] == list(entry.expected_prefix[:head]), f"{entry_id} digits differ from the published prefix")
    return entry, digits


def _a062756(n: int) -> list[int]:
    return [orc.ternary_ones(i // 2) for i in range(n)]


def _expect_rejected(thunk: Callable[[], None], fragment: str) -> Callable[[], None]:
    def run():
        try:
            thunk()
        except Mismatch as exc:
            if fragment not in str(exc):
                raise Mismatch(f"rejected for another reason: {exc}") from None
            return
        raise Mismatch("corrupted output accepted")

    return run


def _shuffled(ops: list[Op], key: str) -> list[Op]:
    ops = list(ops)
    random.Random(key).shuffle(ops)
    return ops


def _swap_last(text: str, old: str, new: str) -> str:
    i = text.rindex(old)
    return text[:i] + new + text[i + len(old):]


# ---- gen -----------------------------------------------------------------


class Gen:
    """``gen ID --terms N --bfile F`` over every exportable stream at each of
    SIZES terms; the seed orders each pass.

    SIZES are 10^3 and 10^3*sqrt(15), the bottom and the geometric middle
    of the range 10^3..1.5*10^4.  The upper half is left out because its
    ops cost 1 to 3 s each (arndt-peano-truncated jumps from 0.4 s to 2.8 s
    above 13,122 terms, the 4D Hilbert curves from 0.1 s to 1.1 s above
    4,096, the Mandelbrot island from 0.16 s to 1.1 s between 3,873 and
    6,082): a pass over it takes 25 s, too long to repeat every op the
    several times a steady median needs within one run.  Above 15,625
    terms Dekking and the Mandelbrot flowsnake jump to a 9.7M-item level.
    """

    SIZES = (1_000, 3_873)

    def __init__(self, seed: int, outdir: str, root: str):
        self.seed = seed
        self.bfile = os.path.join(outdir, "gen.b")
        self.streams = catalog.stream_ids()
        entries = {s: catalog.get_entry(s) for s in self.streams if s != "v1-dragon-lengths"}
        self.prefix = {s: e.expected_prefix for s, e in entries.items()}
        self.prefix["v1-dragon-lengths"] = entries["v1-dragon-sqdiag"].length_log_prefix
        # streams whose gen output carries a second, length-stream line
        self.length_line = {s for s, e in entries.items() if e.length_log_prefix is not None}
        self.ops = [self._op(s, n) for s in self.streams for n in self.SIZES]

    def pass_ops(self, r: int) -> list[Op]:
        return _shuffled(self.ops, f"gen-order:{self.seed}:{r}")

    def _op(self, stream: str, n: int) -> Op:
        argv = ["gen", stream, "--terms", str(n), "--bfile", self.bfile]

        def check(res: CliResult) -> int:
            expect(res.data is not None, "no b-file written")
            orc.check_gen(stream, n, res.stdout, res.data, self.prefix[stream], stream in self.length_line)
            return n

        def corruptions(res: CliResult):
            lines = res.stdout.splitlines()
            first = lines[0].split(",")
            rest = "".join("\n" + ln for ln in lines[1:]) + "\n"

            def run(terms, bfile=None, tail=rest):
                out = ",".join(terms) + tail
                data = bfile if bfile is not None else "".join(
                    f"{i} {v}\n" for i, v in enumerate(terms, start=1)).encode()
                return lambda: check(CliResult(0, out, "", data))

            bad_row = _swap_last(res.data.decode(), f" {first[-1]}\n", f" {int(first[-1]) + 1}\n").encode()
            cases = [
                ("b-file row", run(first, bad_row), "b-file rows differ"),
                ("first term", run([str(int(first[0]) + 1)] + first[1:]), "published prefix"),
            ]
            if stream == "v1-dragon-lengths":
                cases.append(("A062756", run(first[:-1] + [str(int(first[-1]) + 1)]), "A062756"))
            else:
                top = max(abs(int(t)) for t in first)
                cases.append(("normalization", run(first[:-1] + [str(-(top + 1))]), "normalization"))
            if stream == "gray":
                j = n - 1 if n % 2 else n - 2  # an odd term n: magnitude 1, long seen
                flipped = first[:j] + [str(-int(first[j]))] + first[j + 1:]
                cases.append(("Gray closed form", run(flipped), "closed form"))
            if stream in self.length_line:
                tail = _swap_last(rest, lines[1].rsplit(",", 1)[1] + "\n", f"{int(lines[1].rsplit(',', 1)[1]) + 1}\n")
                cases.append(("length stream", run(first, tail=tail), "A062756"))
            return [(label, _expect_rejected(thunk, frag)) for label, thunk, frag in cases]

        return Op(f"gen {stream} {n}", lambda: cli_call(argv, self.bfile), check, corruptions)


# ---- render --------------------------------------------------------------

# (id, level, flags, direction table): lattice curves first, then the
# sqrt2-grid curves; the levels give the two kinds comparable time.
RENDER_OPS = (
    ("hilbert-original", 6, (), "square"),
    ("hilbert-original", 6, ("--rounded",), "square"),
    ("box4", 6, (), "square"),
    ("beta-omega", 6, (), "square"),
    ("arndt-peano", 4, (), "square"),
    ("dekking-flowsnake", 3, (), "square"),
    ("mandelbrot-flowsnake", 3, (), "square"),
    ("mandelbrot-island", 4, (), "square"),
    ("hilbert-3d-origin", 3, ("--projection", "iso"), "cubic3"),
    ("hilbert-3d-origin", 3, ("--projection", "ortho"), "cubic3"),
    ("v1-dragon-8roots", 7, (), "dragon"),
    ("v1-dragon-sqdiag", 7, (), "dragon"),
    ("arndt-peano-truncated", 3, (), "eighth"),
)


class Render:
    """``render ID --level k --out F`` at fixed levels; the seed orders each pass."""

    def __init__(self, seed: int, outdir: str, root: str):
        self.seed = seed
        self.ops = [self._op(i, outdir, *spec) for i, spec in enumerate(RENDER_OPS)]

    def pass_ops(self, r: int) -> list[Op]:
        return _shuffled(self.ops, f"render-order:{self.seed}:{r}")

    def _op(self, i, outdir, entry_id, level, flags, table) -> Op:
        out = os.path.join(outdir, f"render{i}.svg")
        argv = ["render", entry_id, "--level", str(level), "--out", out, *flags]
        rounded = "--rounded" in flags
        projection = flags[1] if flags[:1] == ("--projection",) else "2d"
        entry, digits = _digits(entry_id, level)
        edges = len(digits)
        digits = array("b", digits)  # the reference data stays small next to the program's
        exps = _a062756(edges) if entry.length_log_prefix is not None else None

        def walk():
            return orc.float_walk(digits, table, exps)

        xs, ys = orc.plane_points(walk(), projection)
        side = 2 ** (level + entry.system.start_level)
        # the 3D curve's last edge leaves the cube
        box = {"hilbert-original": (2, edges + 1), "hilbert-3d-origin": (3, edges)}.get(entry_id)
        if box:
            orc.check_visits_box_once(itertools.islice(walk(), box[1]), side, box[0])
        if exps is not None:
            orc.check_lattice_points(walk())
        verified: set[bytes] = set()  # digests of SVGs already checked

        def check(res: CliResult) -> int:
            expect(res.stdout == f"wrote {out} ({edges} edges)\n", "unexpected render message")
            expect(res.data is not None, "no SVG written")
            digest = hashlib.sha256(res.data).digest()
            if digest not in verified:
                orc.check_svg(res.data, edges, xs, ys, rounded)
                verified.add(digest)
            return edges

        def corruptions(res: CliResult):
            text = res.data.decode()
            head, _, last = text.rpartition(" L ")
            dropped = (head + '"' + last.split('"', 1)[1]).encode()
            moved = _swap_last(text, " L ", " L 1").encode()
            cases = [
                ("SVG parse", lambda: orc.check_svg(res.data[:-8], edges, xs, ys, rounded), "does not parse"),
                ("point count", lambda: orc.check_svg(dropped, edges, xs, ys, rounded), "edges"),
                ("float walk", lambda: orc.check_svg(moved, edges, xs, ys, rounded), "float walk"),
            ]
            if box:
                origin = next(walk())
                dup = itertools.chain([origin], itertools.islice(walk(), box[1] - 1))
                cases.append(("box visits", lambda: orc.check_visits_box_once(dup, side, box[0]), "visited twice"))
            if exps is not None:
                off = ((p[0] + 0.5, p[1]) if j == 1 else p for j, p in enumerate(walk()))
                cases.append(("lattice points", lambda: orc.check_lattice_points(off), "lattice point"))
            return [(label, _expect_rejected(thunk, frag)) for label, thunk, frag in cases]

        return Op(" ".join(argv[:4] + list(flags)), lambda: cli_call(argv, out), check, corruptions)


# ---- verify --------------------------------------------------------------

RULE_FILES = ("arndt-peano", "box4", "hilbert-wholecurve")
# (id, level, direction table) for the partial-overlap reports
OVERLAP_OPS = (
    ("v1-dragon-8roots", 5, "dragon"),
    ("v1-dragon-sqdiag", 4, "dragon"),
    ("arndt-peano-truncated", 2, "eighth"),
)
# (id, level) for the coverage reports; the 3D curve drops its exit edge
COVERAGE_OPS = (("hilbert-original", 6), ("hilbert-3d-origin", 3))


class Verify:
    """``verify --all --json``, ``rule check`` on each rule file, and exact
    reports through the public geometry API; the seed orders each pass."""

    def __init__(self, seed: int, outdir: str, root: str):
        self.seed = seed
        self.ops = [self._verify_all()]
        self.ops += [self._rule_check(root, name) for name in RULE_FILES]
        self.ops += [self._overlap(*spec) for spec in OVERLAP_OPS]
        self.ops += [self._coverage(*spec) for spec in COVERAGE_OPS]

    def pass_ops(self, r: int) -> list[Op]:
        return _shuffled(self.ops, f"verify-order:{self.seed}:{r}")

    def _verify_all(self) -> Op:
        entries = {e.id: list(e.checks) for e in catalog.catalog_entries()}

        def corruptions(res: CliResult):
            failed = res.stdout.replace('"passed": true', '"passed": false', 1)
            dropped = res.stdout.replace('"id": "gray"', '"id": "grey"', 1)
            return [
                ("failed check", _expect_rejected(lambda: orc.check_verify_json(failed, entries), "failed")),
                ("wrong entries", _expect_rejected(lambda: orc.check_verify_json(dropped, entries), "entries")),
            ]

        def check(res: CliResult) -> int:
            return orc.check_verify_json(res.stdout, entries)

        return Op("verify --all --json", lambda: cli_call(["verify", "--all", "--json"]), check, corruptions)

    def _rule_check(self, root: str, name: str) -> Op:
        path = os.path.join(root, "rules", f"{name}.rules")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rule_name = next(ln.split()[1] for ln in text.splitlines() if ln.startswith("name "))
        entry = catalog.get_entry(rule_name)
        level2 = expected_edges(entry.system, 2)

        def check(res: CliResult) -> int:
            orc.check_rule_check(res.stdout, text, entry.expected_prefix, level2)
            return 1

        def corruptions(res: CliResult):
            line = next(ln for ln in res.stdout.splitlines() if ln.startswith("level-2 preview: "))
            terms = line[len("level-2 preview: "):].split(",")
            bad = res.stdout.replace(line, "level-2 preview: " + ",".join(terms[:-1] + [str(-int(terms[-1]))]))
            return [("preview", _expect_rejected(
                lambda: orc.check_rule_check(bad, text, entry.expected_prefix, level2), "published prefix"))]

        return Op(f"rule check {name}", lambda: cli_call(["rule", "check", path]), check, corruptions)

    def _overlap(self, entry_id: str, level: int, table: str) -> Op:
        entry, digits = _digits(entry_id, level)
        exps = _a062756(len(digits)) if entry.length_log_prefix is not None else None
        verts = orc.exact_walk(digits, table, exps)
        pairs = orc.brute_force_partial_overlaps(verts)

        def run():
            t0 = time.perf_counter()
            seq, lexps = substitution.iterate_full(entry.system, level)
            lengths = [geometry.sqrt2_pow(e) for e in lexps] if lexps is not None else None
            poly = geometry.trace(seq, entry.grid, lengths)
            report = geometry.self_avoidance_report(poly, check_partial=True)
            return time.perf_counter() - t0, report

        def check(report) -> int:
            orc.check_self_avoidance(report, verts, pairs)
            return 1

        def corruptions(report):
            bad = dataclasses.replace(report, partial_overlap_pairs=report.partial_overlap_pairs + 1)
            return [("overlap count", _expect_rejected(
                lambda: orc.check_self_avoidance(bad, verts, pairs), "brute force"))]

        return Op(f"self_avoidance_report {entry_id} {level}", run, check, corruptions)

    def _coverage(self, entry_id: str, level: int) -> Op:
        entry, digits = _digits(entry_id, level)
        dim = entry.digiset.size
        drop = 1 if dim == 3 else 0
        side = 2 ** (level + entry.system.start_level)
        orc.check_visits_box_once(orc.float_walk(digits[: len(digits) - drop], "cubic3" if drop else "square"),
                                  side, dim)
        box = ((0,) * dim, (side - 1,) * dim)

        def run():
            t0 = time.perf_counter()
            seq = substitution.iterate_full(entry.system, level)[0]
            if drop:
                seq = SignedSequence(seq.items[:-drop], seq.digiset)
            report = geometry.coverage_report(geometry.trace(seq, entry.grid), *box)
            return time.perf_counter() - t0, report

        def check(report) -> int:
            orc.check_coverage(report, side ** dim)
            return 1

        def corruptions(report):
            bad = dataclasses.replace(report, visited=report.visited - 1)
            return [("coverage", _expect_rejected(lambda: orc.check_coverage(bad, side ** dim), "coverage"))]

        return Op(f"coverage_report {entry_id} {level}", run, check, corruptions)


WORKLOADS = {"gen": Gen, "render": Render, "verify": Verify}
