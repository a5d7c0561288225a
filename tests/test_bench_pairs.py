"""scripts/bench_pairs.py alternates runs of two checkouts and summarises
each end-to-end metric per side; here it reads captured run output and
runs no benchmark."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))
import bench_pairs  # noqa: E402


def run_output(rate, reference_ms=3.88, failed=0):
    """The output of ``perfbench/run.py --workload spectral --seed 1
    --seconds 1`` with the mix line shortened, items_per_s set to ``rate``
    (raw: twice that), p50 to 600 / rate and the reference median given."""
    metrics = {"setup_s": (0.121905, "s"), "items_per_s": (rate, "1/s"),
               "item_ms_p50": (600 / rate, "ms"), "item_ms_p90": (2.09903, "ms"),
               "peak_rss_mb": (26.3359, "MB")}
    raw = dict(metrics, items_per_s=(2 * rate, "1/s"))
    result = {"attempted": 114, "correct": not failed, "failed": failed,
              "metrics": {k: {"unit": u, "value": v} for k, (v, u) in metrics.items()}}
    return "\n".join([
        "workload spectral  seed 1  trace 0  items 114  slots 38",
        f"  reference pass: median {reference_ms} ms of 114, scaled to 6 ms; raw times:",
        *(f"    raw {k:<40} {v:>12g} {u}" for k, (v, u) in raw.items()),
        *(f"  {k:<44} {v:>12g} {u}" for k, (v, u) in metrics.items()),
        f"  failed_ratio {failed / 114:>44g} ({failed} of 114 items)",
        'mix {"items": 114}',
        json.dumps(result, sort_keys=True),
    ]) + "\n"


class Runs:
    """A stand-in for ``run_once``: hands out the given rates per side in
    turn and records the order in which the sides ran."""

    def __init__(self, parent, change, failed=0):
        self.rates = {"parent": list(parent), "change": list(change)}
        self.failed = failed
        self.order = []

    def __call__(self, checkout, workload, seed, seconds):
        assert (workload, seed, seconds) == ("spectral", 2, 10.0)
        side = "parent" if checkout == PARENT else "change"
        self.order.append(side)
        return run_output(self.rates[side].pop(0),
                          failed=self.failed if side == "change" else 0)


PARENT = Path("/nonexistent/parent")


def argv(pairs):
    return [str(PARENT), "--workload", "spectral", "--seed", "2",
            "--pairs", str(pairs), "--seconds", "10"]


def table_row(out, name):
    return next(line.split() for line in out.splitlines() if line.startswith(name + " "))


def test_the_sides_alternate_and_each_metric_gets_medians_quartiles_and_wins(capsys):
    runs = Runs(parent=[1000, 1010, 1020, 990, 1005], change=[1200, 1190, 1000, 1210, 1205])
    assert bench_pairs.main(argv(5), run=runs) == 0
    assert runs.order == ["parent", "change", "change", "parent", "parent", "change",
                          "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    # 1000 < 1020 in the third pair: the change won 4 of 5, short of 9 in 10
    assert table_row(out, "items_per_s") == [
        "items_per_s", "1005", "[1000,", "1010]", "1200", "[1190,", "1205]", "4", "no"]
    assert table_row(out, "item_ms_p50")[-2:] == ["4", "no"]
    # equal in every pair: no side wins
    assert table_row(out, "item_ms_p90")[-2:] == ["0", "no"]
    raw = table_row(out, "raw items_per_s")
    assert (raw[2], raw[5]) == ("2010", "2400")
    assert table_row(out, "reference_ms") == [
        "reference_ms", "3.88", "[3.88,", "3.88]", "3.88", "[3.88,", "3.88]", "-", "-"]
    assert "change: 0 of 570 items failed" in out


def test_a_gain_needs_nine_wins_in_ten_and_medians_apart_beyond_the_parent_spread(capsys):
    parent = [1000 + 10 * (i % 3) for i in range(10)]
    assert bench_pairs.main(argv(10), run=Runs(parent, [r + 25 for r in parent])) == 0
    assert table_row(capsys.readouterr().out, "items_per_s")[-2:] == ["10", "yes"]
    # every pair won, but by less than the parent's quartiles lie apart
    assert bench_pairs.main(argv(10), run=Runs(parent, [r + 5 for r in parent])) == 0
    out = capsys.readouterr().out
    assert table_row(out, "items_per_s")[-2:] == ["10", "no"]
    assert table_row(out, "item_ms_p50")[-2:] == ["10", "no"]


def test_a_failed_item_fails_the_comparison_and_a_missing_result_stops_it(capsys):
    assert bench_pairs.main(argv(1), run=Runs([1000], [1100], failed=3)) == 1
    assert "change: 3 of 114 items failed" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="parent run of pair 1: no result"):
        bench_pairs.main(argv(1), run=lambda *args: "")
