"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs one block (a reduced-size run) traced and untraced, and
faults injected into the library after set-up must surface as failed items.
"""

import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def reduced(name, trace=0, inject=None):
    """One block of the workload; returns (result, report text)."""
    out = io.StringIO()
    result = run.run(name, seed=7, seconds=0, trace=trace, inject=inject,
                     out=out, min_items=0)
    return result, out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_run_reports_every_end_to_end_metric(name):
    result, report = reduced(name)
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "failed_ratio" in report and "mix " in report
    assert "reference pass" in report


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_reaches_its_layers(name):
    result, report = reduced(name, trace=1)
    assert result["correct"], report
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for layer in workloads.COVERAGE[name]:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def _failures(result, report):
    assert not result["correct"]
    assert result["failed"] > 0
    return report


def test_wrong_verdict_is_counted_as_failed():
    def inject(lib):
        cert = lib.core.Certificate(workloads.NOT_TOTALLY_SYMMETRIC)
        lib.core.verify_tss = lambda t, from_scratch=False: cert

    report = _failures(*reduced("certify", inject=inject))
    assert "expected TotallySymmetric" in report


def test_corrupted_witness_is_counted_as_failed():
    def inject(lib):
        real = lib.core.verify_tss

        def corrupt(t, from_scratch=False):
            cert = real(t, from_scratch=from_scratch)
            if cert.witness is None:
                return cert
            mats = list(cert.witness)
            mats[0] = lib.linalg.Matrix.identity(t.n)
            return lib.core.Certificate(cert.verdict, witness=mats)

        lib.core.verify_tss = corrupt

    report = _failures(*reduced("certify", inject=inject))
    assert "does not conjugate the set" in report


def test_wrong_weight_is_counted_as_failed():
    def inject(lib):
        real = lib.spectral.classify_commutative

        def shifted(t, pool=()):
            res = real(t, pool)
            one = lib.field.Scalar.rational(1)
            weight = lib.catalog.Weight([v + one for v in res.weight.values])
            return lib.spectral.ClassificationResult(res.verdict, weight=weight)

        lib.spectral.classify_commutative = shifted

    report = _failures(*reduced("spectral", inject=inject))
    assert "recovered weight differs" in report


def test_changed_document_bytes_are_counted_as_failed():
    def inject(lib):
        real = lib.serialize.emit
        lib.cli.emit = lambda doc: real(doc).replace("\n", "\n ", 1)

    report = _failures(*reduced("documents", inject=inject))
    assert "recorded digest" in report


def test_entry_point_wrapped_twice_is_a_trace_problem(monkeypatch):
    layers = dict(tracing.LAYER_CALLS)
    layers["linalg.kernel_again"] = [("linalg", "kernel")]
    monkeypatch.setattr(tracing, "LAYER_CALLS", layers)
    result, report = reduced("certify", trace=1)
    assert not result["correct"]
    assert result["failed"] == 0
    assert "TRACE PROBLEM: refused to wrap linalg.kernel" in report


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not list(tmp_path.glob(".perfbench-tmp-*"))


def test_independent_arithmetic_is_a_ring_map_to_the_splitting_prime():
    half = workloads._rational(Fraction(1, 2))
    x = tuple(Fraction(v) for v in (1, 2, 0, -1, 3, 0, 1, 5))
    y = tuple(Fraction(v) for v in (0, 1, -2, 0, 0, 4, 0, -1))
    for a, b in ((x, y), (x, half), (y, y)):
        assert kcheck.image(kcheck.kmul(a, b)) == kcheck.image(a) * kcheck.image(b) % kcheck.P
        assert kcheck.image(kcheck.kadd(a, b)) == (kcheck.image(a) + kcheck.image(b)) % kcheck.P
    sqrt2 = tuple(Fraction(int(i == 1)) for i in range(8))
    assert kcheck.kmul(sqrt2, sqrt2) == workloads._rational(2)
    assert not kcheck.certified_invertible([[x, x], [x, x]])


def test_near_miss_patterns_are_refuted_yet_searched():
    for pattern in workloads.NEAR_MISS_PATTERNS:
        assert len(set(pattern)) == len(pattern)
        assert any(sorted(a) != sorted(b) for a, b in zip(pattern, pattern[1:]))
        assert all(workloads.intertwiner_nonzero(pattern, j)
                   for j in range(len(pattern) - 1))


def test_harrell_davis_quantiles():
    values = list(range(1, 1002))
    assert run.harrell_davis(values, 0.5) == pytest.approx(501, rel=1e-9)
    assert run.harrell_davis(values, 0.9) == pytest.approx(901.4, rel=1e-6)
    assert run.harrell_davis([3.0] * 7, 0.9) == pytest.approx(3.0)
    # between two clusters the estimate moves smoothly, not by a jump
    low, high = [100.0] * 64, [200.0] * 64
    assert 100 < run.harrell_davis(low + high, 0.5) < 200


def test_times_are_scaled_to_the_reference_speed():
    tally = run.Tally()
    tally.times = [0.1, 0.2, 0.3, 0.7]
    tally.slots = [0, 1, 2, 3]
    raw = run.end_to_end([0.5, 0.4], tally)
    halved = run.end_to_end([0.5, 0.4], tally, scale=0.5)
    for name in ("setup_s", "item_ms_p50", "item_ms_p90"):
        assert halved[name][0] == pytest.approx(raw[name][0] / 2)
    assert halved["items_per_s"][0] == pytest.approx(raw["items_per_s"][0] * 2)
    assert raw["items_per_s"][0] == pytest.approx(4 / 1.3)


def test_a_slot_counts_once_at_its_median_time():
    tally = run.Tally()
    tally.times = [0.1, 0.9, 0.2, 0.3, 0.3]
    tally.slots = [0, 0, 0, 1, 1]
    assert sorted(run.slot_times(tally)) == [0.2, 0.3]
    assert run.end_to_end([1.0], tally)["items_per_s"][0] == pytest.approx(2 / 0.5)


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "2", "--seconds", "0",
         "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in workloads.WORKLOADS:
        assert f"workload {name}  seed 2" in proc.stdout
    assert proc.stdout.count('"correct": true') == len(workloads.WORKLOADS)
