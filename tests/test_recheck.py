"""The one recheck of a bundled witness, ``core.realizes``, and the paths
that go through it: verification, decomposition systems, suspensions and
``tss construct``."""

import json

import pytest

import totsym.core
from totsym.catalog import (
    simplex_arrangement,
    simplex_system,
    sporadic4,
    standard,
    tilde_sigma5_arrangement,
    tilde_sigma5_system,
)
from totsym.cli import main
from totsym.core import Arrangement, NoStrongWitness, Tss, realizes, suspension
from totsym.linalg import Matrix, Subspace
from totsym.serialize import emit, to_document


def run(*argv):
    return main(list(argv))


def pad(m, rows, cols):
    """m in the top-left corner of a rows-by-cols zero matrix."""
    return Matrix([[m.rows[r][c] if r < m.m and c < m.n else 0
                    for c in range(cols)] for r in range(rows)])


# ----------------------------------------------------------------- realizes


@pytest.mark.parametrize("build", [
    lambda: standard(3), sporadic4, lambda: simplex_arrangement(3),
    tilde_sigma5_arrangement, lambda: simplex_system(3), tilde_sigma5_system,
])
def test_realizes_each_kind_of_catalog_object(build):
    assert realizes(build())


def test_realizes_refuses_a_missing_wrong_or_singular_witness():
    t = standard(3)
    assert not realizes(Tss(t.elements))
    swapped = [t.witness[1], t.witness[0]]
    assert not realizes(Tss(t.elements, witness=swapped))
    # the zero matrix satisfies P·A = B·P for every A and B
    zero = [Matrix.zero(3, 3)] * 2
    assert not realizes(Tss(t.elements, witness=zero))
    a = simplex_arrangement(2)
    assert not realizes(Arrangement(a.planes))
    assert not realizes(Arrangement(a.planes, witness=a.witness[::-1]))


def test_a_system_computes_each_witness_determinant_once(monkeypatch):
    det = Matrix.det
    calls = []

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    for n in (2, 5):
        calls.clear()
        simplex_system(n)
        assert len(calls) == n


# ---------------------------------------------------------------- suspension


def singular_simplex_in_k3():
    """The simplex arrangement of K^2 put into K^3: each witness P_j ⊕ 0 and
    each representative m ⊕ 0.  Its witness moves the representatives on
    the nose but is singular."""
    a = simplex_arrangement(2)
    return Arrangement([Subspace.from_matrix_columns(pad(m, 3, 1)) for m in a.representatives],
                       witness=[pad(p, 3, 3) for p in a.witness],
                       representatives=[pad(m, 3, 1) for m in a.representatives])


def test_suspension_needs_an_invertible_witness():
    with pytest.raises(NoStrongWitness):
        suspension(singular_simplex_in_k3(), 2)


def test_suspension_needs_representatives_that_span_their_planes():
    a = simplex_arrangement(2)
    reps = list(a.representatives)
    reps[0], reps[1] = reps[1], reps[0]
    swapped = Arrangement(a.planes, witness=a.witness, representatives=reps)
    with pytest.raises(NoStrongWitness, match="representative 0 does not span its plane"):
        suspension(swapped, 2)


# ------------------------------------------------------------ tss construct


def test_construct_rechecks_and_never_searches(tmp_path, monkeypatch, capsys):
    # the base is totally symmetric but bundles identity witnesses, so the
    # witness of the induced set fails its recheck; no search may run
    def no_search(*args):
        raise RuntimeError("tss construct searched for a witness")

    monkeypatch.setattr(totsym.core, "_search_transpositions", no_search)
    t = standard(3, 1, 2)
    base, out = tmp_path / "base.json", tmp_path / "ind.json"
    base.write_text(emit(to_document(
        Tss(t.elements, witness=[Matrix.identity(3)] * 2, params=t.params))))
    assert run("construct", "induction", "--in", str(base), "--p", "2",
               "--lambda", "5", "--out", str(out)) == 1
    assert not out.exists()
    assert "failed re-verification" in capsys.readouterr().err


# the catalog's scalar defaults, written out as flags
DEFAULTS = {
    "standard --k 3": "--lambda 2 --nu 1",
    "ncsimplex --k 3": "--lambda 2 --mu 1",
    "suspension-simplex --n 3": "--lambda 2",
    "s5-construction": "--lambda 2 --mu 1",
    "sporadic4": "--nu 1",
}


@pytest.mark.parametrize("spec", sorted(DEFAULTS))
def test_construct_without_scalar_flags_uses_the_catalog_defaults(tmp_path, spec):
    bare, full = tmp_path / "bare.json", tmp_path / "full.json"
    assert run("construct", *spec.split(), "--out", str(bare)) == 0
    assert run("construct", *spec.split(), *DEFAULTS[spec].split(), "--out", str(full)) == 0
    assert bare.read_bytes() == full.read_bytes()


# ------------------------------------------------------- system documents


def test_export_refuses_a_system_whose_witness_fails(tmp_path, capsys):
    data = json.loads(emit(to_document(simplex_system(2))))
    witness = data["payload"]["witness"]["transpositions"]
    witness[0], witness[1] = witness[1], witness[0]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    assert run("export", "--in", str(path)) == 2
    assert "the witness does not transport rows onto rows" in capsys.readouterr().err


def test_verify_refuses_a_system_document(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(emit(to_document(simplex_system(2))))
    assert run("verify", "--in", str(path)) == 2
    assert "cannot verify a system document" in capsys.readouterr().err
