"""scripts/bench_record.py reads a benchmark run's report: the final JSON
result, the reference-pass median and the unscaled metrics before it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# the output of `perfbench/run.py --workload spectral --seed 1 --seconds 1`,
# with the mix line shortened
UNTRACED = """\
workload spectral  seed 1  trace 0  items 114  slots 38
  reference pass: median 3.299 ms of 114, scaled to 6 ms; raw times:
    raw setup_s                                          0.11572 s
    raw items_per_s                                      1830.29 1/s
    raw item_ms_p50                                     0.332979 ms
    raw item_ms_p90                                      1.44981 ms
    raw peak_rss_mb                                      26.1367 MB
  setup_s                                             0.210484 s
  items_per_s                                          1006.26 1/s
  item_ms_p50                                         0.605656 ms
  item_ms_p90                                          2.63706 ms
  peak_rss_mb                                          26.1367 MB
  failed_ratio                                               0 (0 of 114 items)
mix {"items": 114, "near_miss_share": 0.0}
{"attempted": 114, "correct": true, "failed": 0, "metrics": {"items_per_s": \
{"unit": "1/s", "value": 1006.2598629836792}}}
"""


def test_an_untraced_run_keeps_the_reference_and_the_raw_metrics():
    result = bench_record.parse(UNTRACED)
    assert result["attempted"] == 114 and result["correct"]
    assert result["metrics"] == {"items_per_s": {"unit": "1/s", "value": 1006.2598629836792}}
    assert result["reference_ms"] == 3.299
    assert result["raw"] == {
        "setup_s": {"value": 0.11572, "unit": "s"},
        "items_per_s": {"value": 1830.29, "unit": "1/s"},
        "item_ms_p50": {"value": 0.332979, "unit": "ms"},
        "item_ms_p90": {"value": 1.44981, "unit": "ms"},
        "peak_rss_mb": {"value": 26.1367, "unit": "MB"},
    }


def test_a_run_without_reference_lines_keeps_its_result_alone():
    # a traced run prints neither the reference pass nor raw times
    lines = UNTRACED.splitlines()
    text = "\n".join(line for line in lines
                     if "reference pass" not in line and " raw " not in line)
    result = bench_record.parse(text)
    assert "reference_ms" not in result and "raw" not in result
    assert result["failed"] == 0


def test_a_run_without_a_result_gives_none():
    assert bench_record.parse("") is None
    assert bench_record.parse("\n".join(UNTRACED.splitlines()[:-1])) is None
