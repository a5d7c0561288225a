import hashlib
import json
import shlex
from pathlib import Path

import pytest

from totsym.catalog import tilde_sigma5_rep
from totsym.cli import main
from totsym.field import ONE
from totsym.linalg import Matrix
from totsym.serialize import from_document, parse
from totsym.suite import format_report, run_suite, spin_presentation_checks


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------ construct


def test_construct_writes_parseable_tss(tmp_path):
    out = tmp_path / "std.json"
    assert run("construct", "standard", "--k", "3", "--lambda", "1",
               "--nu", "2", "--out", str(out)) == 0
    t = from_document(parse(out.read_text()), expect="tss")
    assert t.k == 3 and t.n == 3


# sha256 of `tss construct` output for every catalog name; a refactor must
# keep every document byte-identical
DIGESTS = json.loads((Path(__file__).parent / "construct_digests.json").read_text())
INDUCTION_BASE = ("standard", "--k", "2", "--lambda", "1", "--nu", "2")


@pytest.mark.parametrize("spec", sorted(DIGESTS))
def test_construct_output_is_pinned(tmp_path, spec):
    argv = shlex.split(spec)
    if argv[0] == "induction":
        base = tmp_path / "base.json"
        assert run("construct", *INDUCTION_BASE, "--out", str(base)) == 0
        argv[1:1] = ["--in", str(base)]
    out = tmp_path / "out.json"
    assert run("construct", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[spec]


def test_construct_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("construct", "sporadic4", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_export_round_trip(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("construct", "s5-arrangement", "--out", str(a)) == 0
    assert run("export", "--in", str(a), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_scalar_shorthand(tmp_path):
    out = tmp_path / "nc.json"
    assert run("construct", "ncsimplex", "--k", "3", "--lambda",
               "1/2+1/2*i*sqrt3", "--mu", "-1", "--out", str(out)) == 0


def test_construct_partition_takes_value_list(tmp_path):
    out = tmp_path / "p.json"
    assert run("construct", "partition", "--lambda", "1,1,2,2",
               "--out", str(out)) == 0
    assert from_document(parse(out.read_text())).n == 6


def test_construct_induction_reads_base(tmp_path):
    base, out = tmp_path / "base.json", tmp_path / "ind.json"
    assert run("construct", "standard", "--k", "2", "--lambda", "1",
               "--nu", "2", "--out", str(base)) == 0
    assert run("construct", "induction", "--in", str(base), "--p", "1",
               "--lambda", "3", "--out", str(out)) == 0
    assert from_document(parse(out.read_text())).n == 6


def test_construct_bad_params_exit_2(capsys):
    assert run("construct", "standard") == 2
    assert "--k" in capsys.readouterr().err
    assert run("construct", "standard", "--k", "2", "--lambda", "2",
               "--nu", "2") == 2
    assert run("construct", "perm", "--lambda", "1,1") == 2


def test_construct_unknown_name_exit_2():
    with pytest.raises(SystemExit) as exc:
        run("construct", "dodecahedron")
    assert exc.value.code == 2


# ------------------------------------------------- verify / classify


def test_verify_exit_codes(tmp_path, capsys):
    doc = tmp_path / "s.json"
    cert = tmp_path / "cert.json"
    assert run("construct", "simplex", "--n", "3", "--out", str(doc)) == 0
    assert run("verify", "--in", str(doc), "--out", str(cert)) == 0
    assert "TotallySymmetric" in capsys.readouterr().out
    payload = parse(cert.read_text())["payload"]
    assert payload["verdict"] == "TotallySymmetric"


def test_verify_rejects_tampered_document(tmp_path):
    doc = tmp_path / "std.json"
    assert run("construct", "standard", "--k", "3", "--out", str(doc)) == 0
    data = json.loads(doc.read_text())
    data["payload"]["elements"][0]["entries"][0][0] = "7"
    doc.write_text(json.dumps(data))
    assert run("verify", "--in", str(doc)) == 1


def test_verify_non_square_witness_exit_2(tmp_path, capsys):
    doc = tmp_path / "std.json"
    assert run("construct", "standard", "--k", "2", "--out", str(doc)) == 0
    data = json.loads(doc.read_text())
    witness = data["payload"]["witness"]["transpositions"][0]
    witness.update(rows=1, cols=2, entries=witness["entries"][:2])
    doc.write_text(json.dumps(data))
    assert run("verify", "--in", str(doc)) == 2
    assert "non-square" in capsys.readouterr().err


def test_verify_garbage_exit_2(tmp_path, capsys):
    doc = tmp_path / "junk.json"
    doc.write_text("{]")
    assert run("verify", "--in", str(doc)) == 2
    assert "error" in capsys.readouterr().err


def test_classify_reports_partition(tmp_path, capsys):
    doc, rep = tmp_path / "p.json", tmp_path / "rep.json"
    assert run("construct", "partition", "--lambda", "1,1,2,2",
               "--out", str(doc)) == 0
    assert run("classify", "--in", str(doc), "--out", str(rep)) == 0
    payload = parse(rep.read_text())["payload"]
    assert payload["verdict"] == "Irreducible"
    assert payload["partition"] == "2≤2"
    assert payload["dim"] == 6


def test_classify_degenerate_exit_1(tmp_path):
    doc = tmp_path / "susp.json"
    assert run("construct", "suspension-simplex", "--n", "3",
               "--out", str(doc)) == 0
    assert run("classify", "--in", str(doc)) == 1


def test_classify_noncommutative_exit_1(tmp_path, capsys):
    doc = tmp_path / "nc.json"
    assert run("construct", "ncsimplex", "--k", "3", "--out", str(doc)) == 0
    assert run("classify", "--in", str(doc), "--out", "/dev/null") == 1
    assert "NotCommutative" in capsys.readouterr().out


def test_classify_wrong_kind_exit_2(tmp_path):
    doc = tmp_path / "arr.json"
    assert run("construct", "simplex", "--n", "2", "--out", str(doc)) == 0
    assert run("classify", "--in", str(doc)) == 2


def test_stabilizer_dimension_one(tmp_path, capsys):
    doc, rep = tmp_path / "a.json", tmp_path / "rep.json"
    assert run("construct", "s5-arrangement", "--out", str(doc)) == 0
    assert run("stabilizer", "--in", str(doc), "--out", str(rep)) == 0
    assert "dimension 1" in capsys.readouterr().out
    assert parse(rep.read_text())["payload"]["dim"] == 1


# ----------------------------------------------------------------- suite


def test_suite_all_green(tmp_path, capsys):
    rep = tmp_path / "report.json"
    assert run("suite", "--out", str(rep)) == 0
    out = capsys.readouterr().out
    assert "all passed" in out and "FAIL" not in out
    payload = parse(rep.read_text())["payload"]
    assert payload["passed"] is True
    assert payload["count"] >= 25
    assert [c["name"] for c in payload["checks"]] == sorted(
        c["name"] for c in payload["checks"])


def test_suite_duplicate_check_name_exits_2(monkeypatch, capsys):
    import totsym.suite as suite

    check = {"name": "dup", "passed": True, "detail": ""}
    monkeypatch.setattr(suite, "_PRODUCERS", [lambda: [dict(check)], lambda: [dict(check)]])
    assert run("suite") == 2
    assert "duplicate check name" in capsys.readouterr().err


def test_suite_fault_injection_names_offender():
    ts = list(tilde_sigma5_rep())
    rows = [list(r) for r in ts[3].rows]
    rows[0][0] = rows[0][0] + ONE
    ts[3] = Matrix(rows)
    checks = {c["name"]: c for c in spin_presentation_checks(tuple(ts))}
    assert not checks["spin.involution"]["passed"]
    assert "generator 3" in checks["spin.involution"]["detail"]
    assert ";" in checks["spin.involution"]["detail"]  # the offending matrix


def test_format_report_marks_failures():
    report = run_suite()
    report["checks"][0] = dict(report["checks"][0], passed=False,
                               detail="forced")
    report["passed"] = False
    text = format_report(report)
    assert text.splitlines()[0].startswith("FAIL ")
    assert "forced" in text and "FAILURES" in text
