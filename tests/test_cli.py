import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totsym

from totsym.catalog import simplex_arrangement, simplex_system, standard, tilde_sigma5_rep
from totsym.cli import main
from totsym.core import Tss
from totsym.field import ONE
from totsym.linalg import Matrix
from totsym.serialize import FIELD_BASIS, document, emit, from_document, parse, to_document
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


def test_construct_refuses_an_unbounded_exponent(capsys):
    # "1e10000000" would build a 33-Mbit integer; it is refused unread
    assert run("construct", "standard", "--k", "3", "--lambda", "1e10000000") == 2
    err = capsys.readouterr().err
    assert err == "error: bad scalar token '1e10000000'\n"


# two size bounds, checked in turn before any matrix is built: catalog.MAX_DIM
# = 120 on the dimension of every construction, then catalog.MAX_ENTRIES =
# 2^17 on the scalar entries of its members and witnesses
OVERSIZE = {
    "partition": (("--lambda", "1,2,3,4,5,6,7,8"), "40320 points"),  # 8! points
    "perm": (("--lambda", "1,2,3,4,5,6,7,8"), "40320 points"),
    "standard": (("--k", "121"), "121 dimensions"),
    "ncsimplex": (("--k", "122"), "121 dimensions"),
    "simplex": (("--n", "121"), "121 dimensions"),
    "dual-simplex": (("--n", "121"), "121 dimensions"),
    "suspension-simplex": (("--n", "120"), "121 dimensions"),
    # C(3 + 9, 9) = 220 copies of the base set's K^3
    "induction": (("--in", "-", "--p", "9", "--lambda", "5"), "660 dimensions"),
}


# one step past the largest admitted size of each family: within MAX_DIM,
# but (2k - 1) n^2 entries for k members on K^n, k n d + (k - 1) n^2 for k
# planes of dimension d, over MAX_ENTRIES
OVERWORK = {
    "partition": (("--lambda", "1,1,1,2,3,4"), "158400 scalar entries"),  # 120 points
    "standard": (("--k", "41"), "136161 scalar entries"),
    "ncsimplex": (("--k", "42"), "139523 scalar entries"),
    "simplex": (("--n", "51"), "135303 scalar entries"),
    "dual-simplex": (("--n", "41"), "137801 scalar entries"),
    "suspension-simplex": (("--n", "40"), "136161 scalar entries"),
    # C(3 + 4, 4) = 35 copies of K^3, with 7 members and 6 witnesses
    "induction": (("--in", "-", "--p", "4", "--lambda", "5"), "143325 scalar entries"),
}


def _refused_before_building(name, args, message, monkeypatch, capsys):
    # the size is refused before any matrix of the construction exists; the
    # base set of an induction is built before the count starts
    base = standard(3)
    monkeypatch.setattr(totsym.cli, "_base_tss", lambda args: base)
    built = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, rows: built.append(1) or init(self, rows))
    assert run("construct", name, *args) == 2
    assert message in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("name", sorted(OVERSIZE))
def test_construct_refuses_an_oversize_orbit_before_building(name, monkeypatch, capsys):
    _refused_before_building(name, *OVERSIZE[name], monkeypatch, capsys)


@pytest.mark.parametrize("name", sorted(OVERWORK))
def test_construct_refuses_too_many_entries_before_building(name, monkeypatch, capsys):
    _refused_before_building(name, *OVERWORK[name], monkeypatch, capsys)


class Built(Exception):
    pass


# the largest admitted size of each family, which passes both bounds
ADMITTED = {
    "perm": ("--lambda", "1,2,3,4,5"),
    "standard": ("--k", "40"),
    "ncsimplex": ("--k", "41"),
    "simplex": ("--n", "50"),
    "dual-simplex": ("--n", "40"),
    "suspension-simplex": ("--n", "39"),
    "induction": ("--in", "-", "--p", "3", "--lambda", "5"),
}


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_construct_admits_the_largest_size_of_each_family(name, monkeypatch):
    # passing both bounds, the construction builds its first matrix
    base = standard(3)
    monkeypatch.setattr(totsym.cli, "_base_tss", lambda args: base)

    def refuse(self, rows):
        raise Built

    monkeypatch.setattr(Matrix, "__init__", refuse)
    with pytest.raises(Built):
        run("construct", name, *ADMITTED[name])


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


def _constructed(tmp_path, spec):
    path = tmp_path / "doc.json"
    assert run("construct", *shlex.split(spec), "--out", str(path)) == 0
    return path, json.loads(path.read_text())


def test_wrong_size_witness_exit_2(tmp_path, capsys):
    path, data = _constructed(tmp_path, "standard --k 3")
    data["payload"]["witness"]["transpositions"][0] = {
        "rows": 2, "cols": 2, "entries": [["1"] + ["0"] * 7] * 4}
    path.write_text(json.dumps(data))
    for command in ("export", "verify", "classify"):
        assert run(command, "--in", str(path)) == 2
        assert "not 3x3" in capsys.readouterr().err


def test_wrong_size_representative_exit_2(tmp_path, capsys):
    path, data = _constructed(tmp_path, "simplex --n 2")
    data["payload"]["witness"]["representatives"][1]["rows"] = 1
    data["payload"]["witness"]["representatives"][1]["entries"].pop()
    path.write_text(json.dumps(data))
    for command in ("export", "verify", "stabilizer"):
        assert run(command, "--in", str(path)) == 2
        assert "representatives" in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    ("standard --k 3", ("witness", "transpositions")),
    ("simplex --n 2", ("witness", "representatives")),
    ("standard --k 3", ("params",)),
])
def test_non_list_field_exit_2(tmp_path, capsys, spec, field):
    path, data = _constructed(tmp_path, spec)
    parent = data["payload"]
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = 5
    path.write_text(json.dumps(data))
    for command in ("export", "verify"):
        assert run(command, "--in", str(path)) == 2
        assert f"{field[-1]!r} must be a list" in capsys.readouterr().err


def _run_script(*argv, text, timeout=120):
    """`tss *argv` in a fresh process, as the installed script runs, with
    text on stdin."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(totsym.__file__)))
    code = "import sys\nfrom totsym.cli import main\nsys.exit(main())\n"
    return subprocess.run([sys.executable, "-c", code, *argv], input=text, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("obj, what", [
    (lambda: simplex_system(2), "system"),
    (lambda: standard(3), "set"),
])
def test_representatives_on_a_set_or_system_exit_2(obj, what):
    # only an arrangement's witness moves plane representatives
    reps = to_document(simplex_arrangement(2))["payload"]["witness"]["representatives"]
    data = json.loads(emit(to_document(obj())))
    data["payload"]["witness"]["representatives"] = reps
    out = _run_script("export", "--in", "-", text=json.dumps(data))
    assert out.returncode == 2
    assert f"a {what} takes a plain transposition witness" in out.stderr
    assert "Traceback" not in out.stderr


def test_representatives_without_the_strong_flag(tmp_path, capsys):
    path, data = _constructed(tmp_path, "simplex --n 2")
    data["payload"]["strong"] = False
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert run("export", "--in", str(path), "--out", str(out)) == 0
    exported = json.loads(out.read_text())["payload"]
    assert exported["strong"] is False
    assert exported["witness"] == {
        "transpositions": data["payload"]["witness"]["transpositions"]}
    # malformed representatives are refused even where they would be dropped
    data["payload"]["witness"]["representatives"][1]["entries"].pop()
    path.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("export", "verify", "stabilizer"):
        assert run(command, "--in", str(path)) == 2
        assert "entry count does not match" in capsys.readouterr().err


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200000 + "]" * 200000)
    assert run("verify", "--in", str(doc)) == 2
    assert "nested too deeply" in capsys.readouterr().err


def _nested_report(depth):
    """Canonical text of a report whose payload nests `depth` objects."""
    lines = ["{", '  "kind": "report",', '  "meta": {',
             f'    "field_basis": "{FIELD_BASIS}",', '    "version": "1"',
             "  },", '  "payload": {']
    lines += ['  ' * (j + 2) + '"a": {' for j in range(depth - 1)]
    lines.append("  " * (depth + 1) + '"a": 0')
    lines += ["  " * (j + 1) + "}" for j in reversed(range(depth))]
    return "\n".join(lines) + "\n}\n"


def test_export_re_emits_a_deeply_nested_report(tmp_path):
    # a fresh process, as the tss script runs, so the stack starts shallow
    small = _nested_report(3)
    assert json.loads(small)["payload"] == {"a": {"a": {"a": 0}}}
    assert small == json.dumps(json.loads(small), sort_keys=True, indent=2) + "\n"
    text = _nested_report(990)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(totsym.__file__)))
    code = "import sys\nfrom totsym.cli import main\nsys.exit(main())\n"
    out = subprocess.run([sys.executable, "-c", code, "export", "--in", "-"],
                         input=text, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == text


def test_export_keeps_any_report_payload(tmp_path, capsys):
    doc = tmp_path / "report.json"
    text = _nested_report(1).replace('{\n    "a": 0\n  }', "[\n    1,\n    2\n  ]")
    doc.write_text(text)
    assert run("export", "--in", str(doc)) == 0
    assert capsys.readouterr().out == text


def test_back_to_back_calls_do_not_share_arguments(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert run("construct", "standard", "--k", "3", "--lambda", "5",
               "--out", str(a)) == 0
    assert run("export", "--in", str(a), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    assert run("construct", "standard") == 2  # --k 3 is not remembered
    assert "--k" in capsys.readouterr().err
    assert run("construct", "standard", "--k", "3") == 0  # nor is --out
    assert run("construct", "standard", "--k", "3", "--lambda", "2",
               "--out", str(c)) == 0
    wrote = c.read_text() + "wrote standard\n"
    assert capsys.readouterr().out == wrote  # nor is --lambda 5
    assert c.read_bytes() != a.read_bytes()


# ----------------------------------------------- malformed documents (fuzz)


FUZZ_SPECS = ("standard --k 3", "simplex --n 2", "ncsimplex --k 3",
              "s5-arrangement", "perm --lambda 1,2,3")
FIELD_NAMES = ("kind", "payload", "meta", "field_basis", "n", "k", "d",
               "elements", "planes", "witness", "transpositions",
               "representatives", "strong", "params", "rows", "cols",
               "entries")
json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "tss", "report", "arrangement"]))
json_values = json_leaves | st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3),
                      kids, max_size=3),
    max_leaves=8)


def _nodes(tree, path=()):
    """(path, is_container) for every node of a JSON tree, root first."""
    yield path, isinstance(tree, (dict, list))
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _node_choice(paths):
    """Draw a field pattern (list positions as wildcards) uniformly, then a
    node of that pattern, so that the few structural fields come up as often
    as the thousands of coordinate strings."""
    groups = {}
    for p in paths:
        pattern = tuple(None if isinstance(key, int) else key for key in p)
        groups.setdefault(pattern, []).append(p)
    return st.one_of([st.sampled_from(g) for g in groups.values()])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The directory, and each valid document as (text, node strategy,
    container strategy)."""
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for spec in FUZZ_SPECS:
        path = root / "valid.json"
        assert run("construct", *shlex.split(spec), "--out", str(path)) == 0
        text = path.read_text()
        nodes = list(_nodes(json.loads(text)))
        docs[spec] = (text, _node_choice([p for p, _ in nodes[1:]]),
                      _node_choice([p for p, container in nodes if container]))
    return root, docs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_mutation_never_raises(fuzz_dir, data):
    root, docs = fuzz_dir
    text, nodes, containers = docs[data.draw(st.sampled_from(FUZZ_SPECS))]
    tree = json.loads(text)
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    path = data.draw(containers if op == "insert" else nodes)
    parent = tree
    for key in (path if op == "insert" else path[:-1]):
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = data.draw(json_values)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(data.draw(st.integers(0, len(parent))), data.draw(json_values))
    else:
        key = data.draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=3))
        parent[key] = data.draw(json_values)
    doc, out = root / "mutated.json", root / "out.json"
    doc.write_text(json.dumps(tree))
    for command in ("verify", "export", "classify", "stabilizer"):
        assert run(command, "--in", str(doc), "--out", str(out)) in (0, 1, 2)


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


def test_classify_stalled_discovery_keeps_its_detail(tmp_path):
    # eigenvalue 2 plus the roots of x^3 - 5, which no candidate splits off;
    # the detail is the repr of spectral.Incomplete
    t = Tss([Matrix([[2, 0, 0, 0], [0, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0]])])
    doc, rep = tmp_path / "t.json", tmp_path / "rep.json"
    doc.write_text(emit(to_document(t)))
    assert run("classify", "--in", str(doc), "--out", str(rep)) == 1
    assert parse(rep.read_text())["payload"] == {
        "detail": "eigenvalue discovery stalled: "
                  "Incomplete(roots=[2], residual=-5 + (1)*x^3)",
        "dim": 4,
        "verdict": "NotClassified",
    }


def test_classify_large_rational_discriminant_is_bounded():
    # x^2 - c for an 18-digit prime c: the restricted square root of c is
    # refused by integer square roots, not after trial division up to sqrt(c)
    t = Tss([Matrix([[0, 10**18 + 3], [1, 0]])])
    out = _run_script("classify", "--in", "-", text=emit(to_document(t)), timeout=10)
    assert out.returncode == 1
    assert parse(out.stdout)["payload"] == {
        "detail": "eigenvalue discovery stalled: "
                  "Incomplete(roots=[], residual=-1000000000000000003 + (1)*x^2)",
        "dim": 2,
        "verdict": "NotClassified",
    }


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


def _zero_plane_document(rows):
    """Two zero planes in K^rows: no entry backs the ambient dimension."""
    plane = {"rows": rows, "cols": 0, "entries": []}
    return json.dumps({"kind": "arrangement",
                       "meta": {"field_basis": FIELD_BASIS, "version": "1"},
                       "payload": {"d": 0, "k": 2, "n": rows, "planes": [plane, plane],
                                   "strong": False}})


@pytest.mark.parametrize("command", ["verify", "export", "stabilizer"])
@pytest.mark.parametrize("rows, message", [
    (1500, "a zero plane in K^1500 has more than the 120 dimensions"),
    (-3, "a zero plane needs a nonnegative 'rows', not -3"),
])
def test_zero_plane_dimension_is_refused_before_building(
        command, rows, message, tmp_path, monkeypatch, capsys):
    # a degenerate arrangement of zero planes in K^n would be witnessed by
    # the n×n identity; its dimension is refused before any matrix exists
    doc = tmp_path / "zero.json"
    doc.write_text(_zero_plane_document(rows))
    built = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, rows: built.append(1) or init(self, rows))
    assert run(command, "--in", str(doc)) == 2
    assert message in capsys.readouterr().err
    assert built == []


def test_zero_planes_within_the_bound_still_round_trip(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("construct", "dual-simplex", "--n", "1", "--out", str(a)) == 0
    assert run("export", "--in", str(a), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    assert run("verify", "--in", str(a)) == 1
    assert "Degenerate" in capsys.readouterr().out
    doc = tmp_path / "zero.json"
    doc.write_text(_zero_plane_document(120))
    assert run("export", "--in", str(doc)) == 0


# ----------------------------------------------------- README transcript


README = Path(__file__).parent.parent / "README.md"


def _readme_transcript():
    """(command, printed lines) for each `$ tss ...` line of README's shell
    transcript, in order."""
    steps = []
    block = next(b for b in README.read_text().split("```sh\n")[1:] if b.startswith("$ tss"))
    for line in block.split("```")[0].splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_transcript_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _readme_transcript()
    assert steps
    for command, shown in steps:
        printed = []
        # `a && b` runs b after a succeeds; `| tail -1` keeps the last line
        for part in command.split(" && "):
            part, _, tail = part.partition(" | tail -")
            argv = shlex.split(part)
            assert argv[0] == "tss"
            assert run(*argv[1:]) == 0, command
            lines = capsys.readouterr().out.splitlines()
            printed += lines[-int(tail):] if tail else lines
        assert printed == shown, command


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


# sha256 of the suite report document and of its text; a refactor must keep
# every check name, verdict and detail string
SUITE_REPORT_SHA256 = "6c663b457db578e0790548b368ff47aa097e546724ed4a5ed70c65b41db2801a"
SUITE_TEXT_SHA256 = "d4f38c4b4dacfe2dfc4255b2ccf82445f54761f0de86adc2062990ec4ae3835d"


def test_suite_report_is_pinned():
    report = run_suite()
    text = emit(document("report", report))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_REPORT_SHA256
    text = format_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_TEXT_SHA256


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
