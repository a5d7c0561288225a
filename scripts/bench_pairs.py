"""Compare this checkout with another one in alternating benchmark runs.

    python scripts/bench_pairs.py PARENT_DIR --workload W [--seed S]
                                  [--pairs N] [--seconds T]

Runs ``python perfbench/run.py --workload W --seed S --seconds T`` N times
in PARENT_DIR (a checkout of the parent commit, say) and N times in this
checkout, alternating which side of each pair runs first.  Each run's
output is read with ``bench_record.parse``.  For each end-to-end metric in
this checkout's BENCHMARK.json, and for its raw value before the
reference scaling, it prints each side's median and quartiles, the number
of pairs the change won (ties count for neither side) and whether that is
a gain: a win in at least nine pairs of ten, with the medians further
apart than the parent's quartiles.  ``reference_ms``, the median reference
pass, is printed last.  Exits 1 when an item failed in any run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_record import ROOT, SEED, parse

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The stdout of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    return subprocess.run(argv, cwd=checkout, capture_output=True, text=True).stdout


def collect(checkouts, workload, seed, pairs, seconds, run=run_once):
    """{side: [parsed result per pair]}; ``checkouts`` maps each side to its
    directory, and the parent runs first in the odd-numbered pairs."""
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = parse(run(checkouts[side], workload, seed, seconds))
            if result is None:
                sys.exit(f"{side} run of pair {i + 1}: no result")
            results[side].append(result)
    return results


def _quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _cell(values):
    q1, q2, q3 = (f"{x:.6g}" for x in _quartiles(values))
    return f"{q2} [{q1}, {q3}]"


def verdict(parent, change, better):
    """(pairs the change won, "yes" or "no": whether that is a gain) for one
    metric's values per pair; ``better`` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = _quartiles(parent)
    gain = won >= 0.9 * len(parent) and sign * (_quartiles(change)[1] - p2) > p3 - p1
    return won, "yes" if gain else "no"


def _rows(results, end_to_end):
    """(name, "higher", "lower" or None, {side: value per pair}) for each
    end-to-end metric, then its raw value, then ``reference_ms``."""
    runs = [r for side in SIDES for r in results[side]]

    def per_side(get):
        return {side: [get(r) for r in results[side]] for side in SIDES}

    rows = [(m["name"], m["better"],
             per_side(lambda r, k=m["name"]: r["metrics"][k]["value"])) for m in end_to_end]
    if all("raw" in r for r in runs):
        rows += [(f"raw {m['name']}", m["better"],
                  per_side(lambda r, k=m["name"]: r["raw"][k]["value"])) for m in end_to_end]
    if all("reference_ms" in r for r in runs):
        rows.append(("reference_ms", None, per_side(lambda r: r["reference_ms"])))
    return rows


def report(results, end_to_end):
    """The table as lines of text."""
    lines = [f"{'metric':<20}{'parent median [q1, q3]':>34}"
             f"{'change median [q1, q3]':>34}{'won':>6}  gain"]
    for name, better, values in _rows(results, end_to_end):
        # reference_ms has no better direction: its figures alone
        won, gain = ("-", "-") if better is None else verdict(
            values["parent"], values["change"], better)
        lines.append(f"{name:<20}{_cell(values['parent']):>34}{_cell(values['change']):>34}"
                     f"{won:>6}  {gain}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        lines.append(f"{side}: {failed} of {attempted} items failed")
    return lines


def main(argv=None, run=run_once):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the checkout to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    results = collect(checkouts, args.workload, args.seed, args.pairs, args.seconds, run)
    print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s runs, parent {checkouts['parent']}, change {ROOT}")
    print("\n".join(report(results, spec["end_to_end"])))
    return 0 if all(r["correct"] for side in SIDES for r in results[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
