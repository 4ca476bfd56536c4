"""seifol benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  Inputs come in seeded blocks.  Each block is answered
item by item with the timer around the calls into seifol only, then
checked by independent code outside the timed region.  The loop stops once
the timed time reaches ``--seconds`` and at least ``MIN_ITEMS`` items were
answered, so the 99th percentile has at least ten samples beyond it.

With ``--trace 0`` the last line reports the end-to-end metrics.  Timings
are rescaled to a nominal processor speed by a probe timed after every
block (see ``run_plain``); the line before it gives the probe's median, so
raw times are roughly the reported ones times that median over
NOMINAL_PROBE_S.  ``setup_s`` is the raw median over samples taken through
the run of a fresh interpreter importing ``seifol`` and ``seifol.cli`` and
loading the cable manifest.  With ``--trace 1`` every block is answered
twice, untraced and traced, and the last line reports per-layer figures
from the traced spans plus the share of traced time that is tracing
overhead; the spans are written under ``perfbench/out/``.  Mismatches are
printed to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ITEMS = 1000
WINDOW_ITEMS = 200
PROBE_LOOPS = 4000
NOMINAL_PROBE_S = 2.4e-4
SETUP_REPEATS = 10
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import seifol, seifol.cli; seifol.load_cable_rows()"


def import_package():
    """Import seifol from the checkout's src/, and nowhere else."""
    if not (SRC / "seifol" / "__init__.py").is_file():
        sys.exit(f"run.py: no seifol package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import seifol

    if Path(seifol.__file__).resolve().parent != SRC / "seifol":
        sys.exit(f"run.py: imported seifol from {seifol.__file__}, not from {SRC}")


def setup_once():
    """Wall time of one fresh interpreter doing the imports every CLI call
    pays.  No timeout is passed: with one, the wait polls on a doubling
    sleep and the measured times snap to its steps."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], check=True)
    return time.perf_counter() - start


def quiet_collector():
    """Keep garbage collection out of the timed region, as ``timeit`` does:
    automatic collection is switched off and ``Tally.answer`` collects
    after each block.  Objects alive now (modules, inputs tables) are
    frozen so those collections stay cheap.  A collection landing inside
    one item was otherwise a large part of the latency tail."""
    gc.collect()
    gc.freeze()
    gc.disable()


def probe():
    """Seconds taken by a fixed piece of pure-Python arithmetic: a gauge of
    how much of the processor this process is getting right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Tally:
    """Outcomes and latencies of the answered items, block by block."""

    def __init__(self):
        self.blocks = []  # (items answered correctly, timed seconds, latencies, probe seconds)
        self.timed = 0.0
        self.ok = self.unsupported = self.failed = 0

    @property
    def attempted(self):
        return self.ok + self.unsupported + self.failed

    def answer(self, workload, items, tracer=None):
        """Answer a block in the timed region; returns the outputs, with an
        escaped exception standing in for an output."""
        outputs, latencies = [], []
        block_start = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.item = self.attempted + len(outputs)
            start = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # a failed item, reported and counted
                out = exc
            latencies.append(time.perf_counter() - start)
            outputs.append(out)
        elapsed = time.perf_counter() - block_start
        gc.collect()
        self.timed += elapsed
        self.blocks.append([0, elapsed, latencies, probe()])
        return outputs

    def judge(self, workload, items, outputs):
        import workloads

        for item, out in zip(items, outputs):
            if isinstance(out, Exception):
                verdict = f"{item!r}: raised {type(out).__name__}: {out}"
            else:
                verdict = workload.check(item, out)
            if verdict is None:
                self.ok += 1
                self.blocks[-1][0] += 1
            elif verdict == workloads.UNSUPPORTED:
                self.unsupported += 1
            else:
                self.failed += 1
                print(f"MISMATCH {verdict}", file=sys.stderr)

    def fail_share(self):
        return (self.failed + self.unsupported) / self.attempted

    def scaled(self):
        """Timings rescaled to a nominal processor speed.  Consecutive
        blocks form windows of at least WINDOW_ITEMS items; every time in a
        window is multiplied by NOMINAL_PROBE_S over the window's median
        probe time.  Returns (correct items, scaled timed seconds, scaled
        latencies)."""
        ok, timed, latencies, window = 0, 0.0, [], []
        for index, block in enumerate(self.blocks):
            window.append(block)
            if sum(len(b[2]) for b in window) < WINDOW_ITEMS and index + 1 < len(self.blocks):
                continue
            factor = NOMINAL_PROBE_S / statistics.median(b[3] for b in window)
            for block_ok, block_timed, block_latencies, _ in window:
                ok += block_ok
                timed += block_timed * factor
                latencies += [x * factor for x in block_latencies]
            window = []
        return ok, timed, latencies


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_plain(workload, rng, seconds, min_items=MIN_ITEMS):
    """Timings are rescaled by the probe (``Tally.scaled``).  A shared
    2-CPU x86_64 virtual machine was measured switching, for seconds to
    minutes at a time, between a fast state and one up to 1.8 times
    slower; the probe slows with it, so the rescaled times stay put while
    the raw ones flip.  The
    probe is pure-Python arithmetic that shares no code with seifol, so a
    change to the package moves the rescaled times as it moves the raw
    ones.  Set-up is sampled at intervals through the run, after one
    unmeasured start that leaves bytecode caches in place, and its raw
    median is reported."""
    tally = Tally()
    setup_times = []
    setup_once()
    while tally.timed < seconds or tally.attempted < min_items:
        items = workload.block(rng)
        tally.judge(workload, items, tally.answer(workload, items))
        if tally.timed >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(setup_once())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok, timed, latencies = tally.scaled()
    latencies_ms = [x * 1e3 for x in latencies]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (ok / timed, "1/s"),
        "item_p50_ms": (statistics.median(latencies_ms), "ms"),
        "item_p99_ms": (percentile(latencies_ms, 0.99), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return tally, metrics


def run_traced(workload, rng, seconds, span_path):
    from spans import Tracer

    plain, traced, tracer = Tally(), Tally(), Tracer()
    blocks = 0
    while plain.timed + traced.timed < seconds or traced.attempted < MIN_ITEMS:
        items = workload.block(rng)
        if blocks % 2:  # alternate which pass runs first
            plain.answer(workload, items)
        tracer.install()
        try:
            outputs = traced.answer(workload, items, tracer)
        finally:
            tracer.uninstall()
        if not blocks % 2:
            plain.answer(workload, items)
        blocks += 1
        traced.judge(workload, items, outputs)
    layers = tracer.layer_metrics()
    inside = layers.pop("inside_s")
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if not math.isclose(self_total, inside, rel_tol=1e-6, abs_tol=1e-9):
        traced.failed += 1
        print(f"MISMATCH layer self times sum to {self_total}, outermost calls took {inside}", file=sys.stderr)
    span_path.parent.mkdir(exist_ok=True)
    tracer.write(span_path)
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    metrics["fail_share"] = (traced.fail_share(), "ratio")
    metrics["trace_overhead_share"] = ((traced.timed - plain.timed) / traced.timed, "ratio")
    metrics["inside_s"] = (inside, "s")
    return traced, metrics


def main(argv=None):
    import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    quiet_collector()
    if args.trace:
        span_path = HERE / "out" / f"spans-{args.workload}.tsv.gz"
        tally, metrics = run_traced(workload, rng, args.seconds, span_path)
    else:
        tally, metrics = run_plain(workload, rng, args.seconds)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
        f"ok={tally.ok} unsupported={tally.unsupported} failed={tally.failed} "
        f"fail_share={tally.fail_share():.6f} timed_s={tally.timed:.3f} "
        f"probe_median_ms={statistics.median(b[3] for b in tally.blocks) * 1e3:.4f}"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
