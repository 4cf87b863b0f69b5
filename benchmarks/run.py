"""fracseq benchmark: one closed-loop workload in this process, one op at a time.

    python3 benchmarks/run.py --workload gen --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every run builds its reference data, runs one untimed
warm-up pass and checks that every oracle rejects a corrupted copy of a
warm-up output.  With ``--trace 0`` it runs whole passes, each op once per
pass, until ``--seconds`` of op time, MIN_PASSES passes and MIN_OPS ops
have been measured, timing set-up in a fresh interpreter after each pass
and a fixed reference kernel after each op and each set-up.  Every time is
scaled to the speed at which that kernel takes REF_KERNEL_MS, and the
metrics are taken from each op's median scaled time.  With ``--trace 1`` it runs
passes for half of ``--seconds``, each pass once without and once with
spans around fracseq's public functions, then one pass under tracemalloc.
The last line of stdout is the JSON result; the metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 4  # repetitions of every op, at the least
MIN_OPS = 100  # op_ms_p90 is reported from runs of at least this many ops
MIN_SETUP_SAMPLES = 15
WALL_CAP_S = 120  # no pass starts after this, whatever the op count
# Timed ops and set-ups are reported as if ref_kernel took this long, about
# its median on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, Python 3.11.7.
REF_KERNEL_MS = 10.0

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import fracseq
from fracseq import catalog
catalog.catalog_list()
catalog.stream_ids()
print(time.perf_counter() - t0, fracseq.__file__)
"""


def setup_seconds() -> float:
    """Time to import fracseq and build the catalog in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True, text=True,
                          timeout=60, check=True)
    seconds, path = proc.stdout.split()
    if not path.startswith(SRC):
        raise RuntimeError(f"set-up imported fracseq from {path}")
    return float(seconds)


def ref_kernel() -> float:
    """Wall time of a fixed stdlib-only kernel made of the kinds of work
    fracseq does: Fraction arithmetic, sorting, tuple-keyed dicts and ints
    joined into text.  Other tenants of a shared host slow it as they slow
    fracseq, so it measures the speed the host gives the process at the
    time."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    xs = sorted((i * 7919) % 10007 for i in range(10000))
    index = {(i, -i): x for i, x in enumerate(xs)}
    ",".join(map(str, index.values()))
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = {}  # op label -> seconds of each run
        self.kernel: float | None = None  # the last ref_kernel time, when times are scaled
        self.kernels: list[float] = []  # every ref_kernel time, for the log
        self.items: dict[str, int] = {}  # op label -> items of one run
        self.cli_bytes = 0

    def wrong(self, what: str) -> None:
        self.correct = False
        print(f"WRONG {what}", file=sys.stderr)


def scaled(tally: Tally, seconds: float) -> float:
    """``seconds`` at the speed where ref_kernel takes REF_KERNEL_MS, judged
    from the kernel run just before (tally.kernel) and one run now."""
    before, tally.kernel = tally.kernel, ref_kernel()
    tally.kernels.append(tally.kernel)
    return seconds * 2e-3 * REF_KERNEL_MS / (before + tally.kernel)


def run_pass(ops, tally: Tally, after=None) -> float:
    """Run and check each op; return the pass's raw op time.  ``after(op,
    output)`` runs on each output that passed its check.  With tally.kernel
    set, the op times recorded are scaled."""
    from oracles import Mismatch
    from workloads import CliResult, cli_bytes

    total = 0.0
    for op in ops:
        tally.attempted += 1
        try:
            seconds, out = op.run()
        except Exception:
            tally.failed += 1
            print(f"FAILED {op.label}\n{traceback.format_exc()}", file=sys.stderr)
            continue
        if isinstance(out, CliResult) and out.rc != 0:
            tally.failed += 1
            print(f"FAILED {op.label}: exit {out.rc}: {out.stderr.strip()[:300]}", file=sys.stderr)
            continue
        try:
            tally.items[op.label] = op.check(out)
        except Mismatch as exc:
            tally.wrong(f"{op.label}: {exc}")
            continue
        total += seconds
        if tally.kernel is not None:
            seconds = scaled(tally, seconds)
        tally.times.setdefault(op.label, []).append(seconds)
        tally.cli_bytes += cli_bytes(out)
        if after is not None:
            after(op, out)
    return total


def self_test(op, out, tally: Tally) -> int:
    """The op's oracles must reject each corrupted copy of its real output."""
    from oracles import Mismatch

    cases = op.corruptions(out)
    for label, thunk in cases:
        try:
            thunk()
        except Mismatch as exc:
            tally.wrong(f"oracle '{label}' on {op.label}: {exc}")
    return len(cases)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["gen", "render", "verify"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracseq", "__init__.py")):
        print(f"error: no fracseq package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    started = time.perf_counter()
    if not args.trace:
        setup_seconds()  # writes the bytecode caches; not counted

    sys.path.insert(0, SRC)
    import fracseq

    if not fracseq.__file__.startswith(SRC):
        print(f"error: fracseq imported from {fracseq.__file__}", file=sys.stderr)
        return 2
    from oracles import Mismatch
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    # a stopped run still removes its files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        try:
            workload = WORKLOADS[args.workload](args.seed, outdir, ROOT)
        except Mismatch as exc:
            print(f"WRONG reference data: {exc}", file=sys.stderr)
            return 1
        warm = Tally()
        corrupted = [0]

        def after_warm(op, out):
            corrupted[0] += self_test(op, out, warm)

        run_pass(workload.pass_ops(0), warm, after_warm)
        print(f"warm-up: {warm.attempted} ops, {corrupted[0]} corrupted outputs tried", file=sys.stderr)

        tally = Tally()
        tally.correct = warm.correct
        if args.trace:
            tracer = Tracer()

            def traced_pass(ops) -> tuple[float, int]:
                before = tally.cli_bytes
                tracer.install()
                try:
                    seconds = run_pass(ops, tally)
                finally:
                    tracer.uninstall()
                return seconds, tally.cli_bytes - before

            # each pass runs once untraced and once traced, in alternating
            # order, so that both sides see the same machine
            passes, untraced, traced, traced_bytes = 0, 0.0, 0.0, 0
            while untraced < args.seconds / 2 or passes == 0:
                passes += 1
                ops = workload.pass_ops(passes)
                if passes % 2:
                    untraced += run_pass(ops, tally)
                seconds, nbytes = traced_pass(ops)
                traced += seconds
                traced_bytes += nbytes
                if not passes % 2:
                    untraced += run_pass(ops, tally)
            mem = Tracer(memory=True)
            mem.install()
            try:
                run_pass(workload.pass_ops(1), tally)
            finally:
                mem.uninstall()
            metrics = layer_metrics(tracer.spans, passes, traced_bytes, mem.peaks)
            metrics["tracing.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
            wanted = spec["per_layer"]
        else:
            # Other tenants of the host slow the process by up to 1.8x, in
            # stretches of seconds to minutes, so raw times swing with how
            # much of a run those cover.  ref_kernel runs after every op
            # and every set-up, and each time is scaled by the two kernel
            # runs around it.  Each op's time is the median of its scaled
            # times, and the percentiles are over the ops: one over every
            # repetition would fall on a few extreme repetitions of a
            # single op (the 90th on the third-fastest ``verify --all``).
            measured, passes, setup = 0.0, 0, []
            tally.kernel = ref_kernel()
            while (measured < args.seconds or passes < MIN_PASSES or tally.attempted < MIN_OPS) and \
                    time.perf_counter() - started < WALL_CAP_S:
                passes += 1
                measured += run_pass(workload.pass_ops(passes), tally)
                setup.append(scaled(tally, setup_seconds()))
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(scaled(tally, setup_seconds()))
            op_s = {label: statistics.median(times) for label, times in tally.times.items()}
            metrics = {
                "items_per_s": sum(tally.items[label] for label in op_s) / sum(op_s.values()),
                "op_ms_p50": 1e3 * statistics.median(op_s.values()),
                "op_ms_p90": 1e3 * statistics.quantiles(op_s.values(), n=10, method="inclusive")[8],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
            print(f"{args.workload:7} {passes} passes of {len(op_s)} ops, {measured:.1f} s of raw op time, "
                  f"ref_kernel median {1e3 * statistics.median(tally.kernels):.2f} ms", file=sys.stderr)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass

    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in result.items():
        print(f"{args.workload:7} {name:40} {v['value']:16.6f} {v['unit']}")
    print(f"{args.workload:7} ops {sum(map(len, tally.times.values()))} timed, {tally.attempted} attempted, "
          f"{tally.failed} failed, correct {tally.correct}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
