"""Eigenvalue discovery on a residual quadratic: the quadratic-formula
finish, and a discriminant whose square root lies outside K."""

import sympy

from totsym.cli import main
from totsym.core import Tss
from totsym.field import ONE, SQRT2
from totsym.linalg import Matrix
from totsym.serialize import emit, parse, to_document
from totsym.spectral import Incomplete, discover_eigenvalues

from oracles import to_sympy

# x^2 - 2x - 1, with roots 1 ± sqrt2
SPLIT = Matrix([[1, 2], [1, 1]])


def test_discover_finishes_a_quadratic_residual():
    assert discover_eigenvalues(SPLIT) == [ONE - SQRT2, ONE + SQRT2]


def test_discover_stops_at_an_irrational_discriminant():
    # x^2 - sqrt2: its discriminant 4·sqrt2 is not rational
    out = discover_eigenvalues(Matrix([[0, SQRT2], [1, 0]]))
    assert isinstance(out, Incomplete)
    assert out.roots == ()
    x = sympy.Symbol("x")
    residual = sum(to_sympy(c) * x**i for i, c in enumerate(out.residual.coeffs))
    assert sympy.expand(residual - (x**2 - sympy.sqrt(2))) == 0
    # and no root lies in K: x^2 - sqrt2 stays irreducible over K
    _, factors = sympy.factor_list(
        residual, x, extension=[sympy.I, sympy.sqrt(2), sympy.sqrt(3)])
    assert [sympy.degree(f, x) for f, _ in factors] == [2]


def test_classify_writes_an_invariant_subspace(tmp_path, capsys):
    doc, rep = tmp_path / "t.json", tmp_path / "rep.json"
    doc.write_text(emit(to_document(Tss([SPLIT]))))
    assert main(["classify", "--in", str(doc), "--out", str(rep)]) == 1
    payload = parse(rep.read_text())["payload"]
    assert payload["verdict"] == "ReducibleWitness"
    assert payload["dim"] == 2
    line = payload["invariant_subspace"]
    assert (line["rows"], line["cols"]) == (2, 1)
    assert capsys.readouterr().out.strip() == "ReducibleWitness"
