"""Spans around the calls into fracseq's public functions, recorded from
outside the package.

``Tracer.install`` replaces each traced function in every loaded fracseq
module that holds it (the package imports names across modules, so one
function can be reachable under several module attributes) and wraps the
``SignedSequence`` constructor; ``uninstall`` puts the originals back.
Spans stay in memory as lists: [name, parent, start, end, info].  With
``memory=True`` each span also records its tracemalloc peak above the
memory in use when it started.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# span name -> (module, attribute); the SignedSequence constructor is separate
TRACED = {
    "cli.main": ("fracseq.cli", "main"),
    "catalog.generate_entry": ("fracseq.catalog", "generate_entry"),
    "catalog.export_bfile": ("fracseq.catalog", "export_bfile"),
    "catalog.verify_entry": ("fracseq.catalog", "verify_entry"),
    "substitution.iterate_full": ("fracseq.substitution", "iterate_full"),
    "geometry.trace": ("fracseq.geometry", "trace"),
    "geometry.self_avoidance_report": ("fracseq.geometry", "self_avoidance_report"),
    "geometry.coverage_report": ("fracseq.geometry", "coverage_report"),
    "render.svg_export": ("fracseq.render", "svg_export"),
    "rulefile.parse_rule_file": ("fracseq.rulefile", "parse_rule_file"),
}

NAME, PARENT, START, END, INFO = range(5)


def _info(name, args, kwargs, result):
    """Counts recorded at the boundary, after the span has ended."""
    if name in ("substitution.iterate_full", "catalog.generate_entry"):
        return len(result[0])
    if name == "sequences.SignedSequence":
        return len(args[0].items)
    if name == "geometry.trace":
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        lengths = args[2] if len(args) > 2 else kwargs.get("lengths")
        # the same test geometry.trace uses to pick its integer path
        return ("lattice" if lengths is None and grid.is_integral() else "exact", result.edge_count)
    if name == "render.svg_export":
        return (args[0].edge_count, len(result))
    return None


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.peaks: list[tuple[str, int]] = []  # (span name, bytes), memory mode only
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [memory at start, highest peak seen]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, memory = self.spans, self._stack, time.perf_counter, self.memory

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            if memory:
                self._mem_enter()
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if memory:
                    self.peaks.append((name, self._mem_exit()))
            rec[INFO] = _info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _mem_enter(self) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            top = self._mem_stack[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([cur, cur])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self._mem_stack.pop()
        seen = max(seen, peak)
        if self._mem_stack:
            top = self._mem_stack[-1]
            top[1] = max(top[1], seen)
        return seen - start

    def install(self) -> None:
        from fracseq.sequences import SignedSequence

        if self.memory:
            tracemalloc.start()
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key == "fracseq" or mod_key.startswith("fracseq."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        init = SignedSequence.__init__
        self._patched.append((SignedSequence, "__init__", init))
        SignedSequence.__init__ = self._wrap("sequences.SignedSequence", init)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, passes: int, cli_bytes: int, peaks) -> dict[str, float]:
    """Per-layer figures: times in ms, counts and bytes per pass; per-edge
    and per-item times, ratios and peaks over the whole traced run."""
    self_t = _self_times(spans)
    names = [rec[NAME] for rec in spans]

    def inclusive(name):
        """Time in the outermost spans of ``name``."""
        return sum(rec[END] - rec[START] for rec in spans if rec[NAME] == name and not _inside(spans, rec, name))

    def self_of(name):
        return sum(t for n, t in zip(names, self_t) if n == name)

    # a span whose call raised (a level the pairlift cannot realize) has no info
    done = [rec for rec in spans if rec[INFO] is not None]
    expand_s = inclusive("substitution.iterate_full")
    items = sum(rec[INFO] for rec in done if rec[NAME] == "substitution.iterate_full")
    gen_items = sum(
        rec[INFO] for rec in done
        if rec[NAME] == "substitution.iterate_full" and _inside(spans, rec, "catalog.generate_entry")
    )
    gen_terms = sum(rec[INFO] for rec in done if rec[NAME] == "catalog.generate_entry")
    trace_s = {"lattice": 0.0, "exact": 0.0}
    trace_edges = {"lattice": 0, "exact": 0}
    svg_s = svg_edges = svg_bytes = 0
    for rec in done:
        if rec[NAME] == "geometry.trace":
            path, edges = rec[INFO]
            trace_s[path] += rec[END] - rec[START]
            trace_edges[path] += edges
        elif rec[NAME] == "render.svg_export":
            svg_s += rec[END] - rec[START]
            svg_edges += rec[INFO][0]
            svg_bytes += rec[INFO][1]
    us_edge = {k: 1e6 * trace_s[k] / trace_edges[k] if trace_edges[k] else 0.0 for k in trace_s}

    def peak_kib(*names_):
        return max((p for n, p in peaks if n in names_), default=0) / 1024

    per = 1.0 / passes
    return {
        "substitution.expand_ms": 1e3 * expand_s * per,
        "substitution.items_expanded": items * per,
        "substitution.ns_per_item": 1e9 * expand_s / items if items else 0.0,
        "catalog.useful_item_ratio": gen_terms / gen_items if gen_items else 0.0,
        "catalog.generate_self_ms": 1e3 * self_of("catalog.generate_entry") * per,
        "sequences.items_validated": sum(
            rec[INFO] for rec in done if rec[NAME] == "sequences.SignedSequence") * per,
        "catalog.bfile_ms": 1e3 * inclusive("catalog.export_bfile") * per,
        "cli.self_ms": 1e3 * self_of("cli.main") * per,
        "cli.bytes_out": cli_bytes * per,
        "catalog.verify_entry_ms": 1e3 * inclusive("catalog.verify_entry") * per,
        "rulefile.parse_ms": 1e3 * inclusive("rulefile.parse_rule_file") * per,
        "geometry.trace_us_per_edge.lattice": us_edge["lattice"],
        "geometry.trace_us_per_edge.exact": us_edge["exact"],
        "geometry.exact_over_lattice_trace": (
            us_edge["exact"] / us_edge["lattice"] if us_edge["lattice"] and us_edge["exact"] else 0.0),
        "render.svg_us_per_edge": 1e6 * svg_s / svg_edges if svg_edges else 0.0,
        "render.svg_bytes": svg_bytes * per,
        "geometry.self_avoidance_ms": 1e3 * inclusive("geometry.self_avoidance_report") * per,
        "geometry.coverage_ms": 1e3 * inclusive("geometry.coverage_report") * per,
        "substitution.peak_kib": peak_kib("substitution.iterate_full"),
        "geometry.peak_kib": peak_kib("geometry.trace", "geometry.self_avoidance_report", "geometry.coverage_report"),
        "render.peak_kib": peak_kib("render.svg_export"),
    }


def _inside(spans, rec, name) -> bool:
    p = rec[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
