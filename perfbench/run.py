"""Benchmark for totsym: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Without ``--workload`` it runs every workload in turn, each in a process of
its own (so that ``peak_rss_mb`` is the workload's own), and exits nonzero
if any of them does.

Runs from the root of a source checkout and imports ``src/totsym`` from it.
One process, one thread, closed loop: one caller, and the next item starts
when the previous one returns.  Workloads (see ``workloads.py``):

  certify    from-scratch verify_tss / verify_arrangement: plain catalog
             objects, the same after a dense change of basis, near-misses
  spectral   classify_commutative, irreducibility_certificate, depth_profile
  documents  tss construct -> export -> verify (+ classify / stabilizer)

Set-up is a fresh import of totsym plus the generation of one block of
inputs.  It runs five times before the first block and once more before
each later block, and ``setup_s`` is its median.  The run works through
whole blocks until at least 110 items have run, and starts another only
while the one before it (with its set-up) would still end within
``--seconds``.  Every block holds the same fixed mix of slots (see
``workloads.py``), and a slot's time is the median of the library times of
its items over the run, so that one slow moment of the host does not
decide a slot.  ``items_per_s`` is the number of slots divided by the sum
of their times, and ``item_ms_p50`` / ``item_ms_p90`` are Harrell-Davis
estimates of the 50th and 90th percentiles of the slot times.

Times are given at a reference host speed.  After every item the run
times one pass of a fixed computation that uses no totsym code (exact
Fraction arithmetic, the kind of work totsym's scalars do), and every time
metric is scaled by ``REFERENCE_S`` over the median of those passes.  On a
shared host the speed of the same code drifts by a fifth to a half over
minutes, as other tenants come and go; the scaling removes most of that
drift (not all: the reference and totsym do not slow down by quite the
same factor), and a change to totsym moves the scaled times as it moves
the raw ones.  The report lines before the result give the raw values and
the reference median.
Every item is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first half of
the time is traced per layer (see ``tracing.py``), the same items are then
rerun untraced, and the metrics are the per-layer ones plus the tracing
overhead.  The exit code is 0 only when every item passed its check (and,
traced, every layer that the workload must reach was reached); it is 2 when
the checkout holds no ``src/totsym``.
"""

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"  # span files of traced runs
MODULES = ("field", "linalg", "core", "catalog", "spectral", "serialize", "suite", "cli")
SETUP_REPS = 5  # set-ups before the first block; each later block adds one
# enough items that the slots beyond the 90th percentile of slot times hold
# about ten of them between them
MIN_ITEMS = 110
# terms of the reference computation, and the median time of one pass on
# the host the figures are scaled to (about its median on a 2-vCPU Xeon
# at 2.1 GHz with Python 3.11 when that host is quiet)
REFERENCE_TERMS = 800
REFERENCE_S = 0.006
DEFAULT_SEED = 1  # gain claims must also hold on the held-out seed 2

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class MissingSource(RuntimeError):
    pass


def fresh_import():
    """Import every totsym module anew; returns (namespace, {name: module})."""
    for name in [m for m in sys.modules if m == "totsym" or m.startswith("totsym.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"totsym.{m}") for m in MODULES}
    except ImportError as e:
        raise MissingSource(f"cannot import totsym from {SRC}: {e}") from None
    where = Path(mods["field"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSource(f"totsym was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods), mods


def block_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def fresh_block(workload, seed, index, inject=None):
    """One set-up: a fresh import of totsym plus generation of block `index`.

    Returns (seconds, lib, modules, block); `inject(lib)` is applied after
    the timing and may patch the library (the benchmark's fault tests)."""
    gc.collect()
    t0 = time.perf_counter()
    lib, mods = fresh_import()
    block = workload.block(lib, block_rng(workload.name, seed, index))
    elapsed = time.perf_counter() - t0
    if inject:
        inject(lib)
    return elapsed, lib, mods, block


def reference():
    """Seconds one pass of the reference computation takes."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def run_item(item):
    """(seconds spent in the library call, failure message or None)."""
    t0 = time.perf_counter()
    try:
        result = item.call()
    except Exception:  # an exception is a failed item, never a crash
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    try:
        return dt, item.check(result)
    except Exception:
        return dt, "check raised:\n" + traceback.format_exc(limit=3)


class Tally:
    """Per-item times, failures and mix records.  Items themselves are kept
    only on request (for the traced rerun), so that memory does not grow
    with the number of blocks a run gets through."""

    def __init__(self, keep_items=False):
        self.times = []
        self.slots = []
        self.reference = []  # seconds per reference pass, untraced runs only
        self.failures = []
        self.mix = []
        self.items = [] if keep_items else None

    def add(self, item, dt, error):
        self.times.append(dt)
        self.slots.append(item.slot)
        self.mix.append((item.kind, item.n, item.disguised, item.near_miss, item.key()))
        if self.items is not None:
            self.items.append(item)
        if error:
            self.failures.append((item.kind, error))


def run_blocks(first_block, next_block, seconds, tally, min_items=0, tracer=None):
    """Whole blocks until `min_items` items have run, and another only
    while the last one, set-up included, would still end within `seconds`
    of the start; `next_block(index)` makes block `index`.  With a tracer,
    the items are traced and the making of blocks is not; without one, a
    reference pass follows every item."""
    start = last = time.perf_counter()
    block, index = first_block, 0
    while True:
        for item in block:
            if tracer:
                tracer.item = len(tally.times)
            tally.add(item, *run_item(item))
            if not tracer:
                tally.reference.append(reference())
        index += 1
        now = time.perf_counter()
        if len(tally.times) >= min_items and 2 * now - last - start > seconds:
            return
        last = now
        if tracer:
            tracer.uninstall()
        try:
            block = next_block(index)
        finally:
            if tracer:
                tracer.install()


def item_mix(records):
    """Counts by kind and by n, and the shares of disguised, near-miss and
    distinct inputs, from Tally.mix records."""
    n = len(records)
    by_kind, by_n = {}, {}
    for kind, dim, _, _, _ in records:
        by_kind[kind] = by_kind.get(kind, 0) + 1
        by_n[str(dim)] = by_n.get(str(dim), 0) + 1
    return {
        "items": n,
        "by_kind": dict(sorted(by_kind.items())),
        "by_n": dict(sorted(by_n.items(), key=lambda kv: int(kv[0]))),
        "disguised_share": sum(r[2] for r in records) / n,
        "near_miss_share": sum(r[3] for r in records) / n,
        "distinct_share": len({r[4] for r in records}) / n,
    }


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by Beta((n+1)p, (n+1)(1-p)) mass over their ranks.

    Item times cluster by kind with gaps between the clusters, so a single
    order statistic jumps across a gap when a few items trade ranks; this
    weighted mean moves smoothly instead.  The weights come from a midpoint
    rule with 16 points per rank, normalised to sum to one."""
    steps = 16
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        ts = [(i + (k + 0.5) / steps) / n for k in range(steps)]
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t)) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def slot_times(tally):
    """The median library time of each slot's items, in seconds."""
    by_slot = {}
    for slot, dt in zip(tally.slots, tally.times):
        by_slot.setdefault(slot, []).append(dt)
    return [statistics.median(times) for times in by_slot.values()]


def end_to_end(setup_times, tally, scale=1.0):
    """The end-to-end metrics, with every time multiplied by `scale`."""
    ms = [t * 1000 * scale for t in slot_times(tally)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "items_per_s": (len(ms) * 1000 / sum(ms), "1/s"),
        "item_ms_p50": (harrell_davis(ms, 0.5), "ms"),
        "item_ms_p90": (harrell_davis(ms, 0.9), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced(workload, lib, mods, seed, seconds, first_block, tally):
    """Trace half the time, rerun the same items untraced; per-layer metrics
    and a list of problems with the trace itself."""
    tracer = tracing.Tracer(mods)
    traced_tally = Tally(keep_items=True)

    def next_block(index):
        return workload.block(lib, block_rng(workload.name, seed, index))

    tracer.install()
    try:
        run_blocks(first_block, next_block, seconds / 2, traced_tally, tracer=tracer)
    finally:
        tracer.uninstall()
    plain_tally = Tally()
    for item in traced_tally.items:
        plain_tally.add(item, *run_item(item))
    tally.mix += traced_tally.mix
    tally.times += traced_tally.times + plain_tally.times
    tally.failures += traced_tally.failures + plain_tally.failures

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path, [item.kind for item in traced_tally.items])
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (
        sum(traced_tally.times) / sum(plain_tally.times), "ratio")
    problems = []
    for name in workloads.COVERAGE[workload.name]:
        if not tracer.calls[name]:
            problems.append(f"layer {name} was never called")
    if workload.name == "certify" and not tracer.det_attempts:
        problems.append("the witness search made no determinant attempts")
    problems += tracer.problems()
    return metrics, problems


def run(workload_name, seed, seconds, trace, inject=None, out=sys.stdout,
        min_items=MIN_ITEMS):
    """Run one workload; returns the result object printed last.

    `inject(lib)` runs after set-up and may patch the library, and a small
    `min_items` shortens the run; both are for the benchmark's own tests.
    """
    workload = workloads.WORKLOADS[workload_name](ROOT)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            elapsed, lib, mods, first_block = fresh_block(workload, seed, 0, inject)
            setup_times.append(elapsed)
        tally = Tally()
        problems = []
        if trace:
            metrics, problems = traced(workload, lib, mods, seed, seconds,
                                       first_block, tally)
        else:
            def next_block(index):
                # every later block is one more set-up, so set-up is sampled
                # across the whole run rather than in its first second
                elapsed, _, _, block = fresh_block(workload, seed, index, inject)
                setup_times.append(elapsed)
                return block

            run_blocks(first_block, next_block, seconds, tally, min_items)
            reference_s = statistics.median(tally.reference)
            raw = end_to_end(setup_times, tally)
            metrics = end_to_end(setup_times, tally, REFERENCE_S / reference_s)
    finally:
        workload.close()

    attempted, failed = len(tally.times), len(tally.failures)
    print(f"workload {workload_name}  seed {seed}  trace {int(bool(trace))}  "
          f"items {attempted}  slots {len(set(tally.slots))}", file=out)
    if not trace:
        print(f"  reference pass: median {reference_s * 1000:.4g} ms of "
              f"{len(tally.reference)}, scaled to {REFERENCE_S * 1000:.4g} ms; "
              f"raw times:", file=out)
        for name, (value, unit) in raw.items():
            print(f"    raw {name:41s} {value:14.6g} {unit}", file=out)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}", file=out)
    print(f"  {'failed_ratio':45s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} items)", file=out)
    print("mix " + json.dumps(item_mix(tally.mix), sort_keys=True), file=out)
    for kind, error in tally.failures[:10]:
        print(f"FAILED {kind}: {error}", file=out)
    for problem in problems:
        print(f"TRACE PROBLEM: {problem}", file=out)
    return {
        "correct": not tally.failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="one workload; every workload in turn when left out")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS]
        return max(codes)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except MissingSource as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
