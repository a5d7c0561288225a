import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totsym.catalog import (
    induction,
    ncsimplex,
    partition_construction,
    permutation_type,
    simplex_system,
    sporadic4,
    standard,
    suspension_simplex,
    tilde_sigma5_arrangement,
)
import totsym
from totsym.core import Tss, half_dim_normal_form, realize_permutation
from totsym.field import I_UNIT, ONE, SQRT2, SQRT3, SQRT6, ZETA, ZETA_INV, Scalar
from totsym.linalg import Matrix, Subspace, char_poly
from totsym.spectral import (
    IRREDUCIBLE,
    Incomplete,
    InvariantViolation,
    NON_DIAGONALIZABLE,
    NOT_CLASSIFIED,
    NotAnEigenvalue,
    NotCommutative,
    REDUCIBLE,
    DepthProfile,
    EigenFiltration,
    FullAlgebra,
    ProperAlgebra,
    classify_commutative,
    depth_profile,
    discover_eigenvalues,
    filtration,
    generalized_eigenspace,
    irreducibility_certificate,
    jfold,
)
from totsym.spectral import _invariant_submodule
from totsym.suite import halfdim_nonexistence_suite, rep_obstruction_suite

from oracles import (
    reference_algebra_closure,
    reference_apply,
    reference_classify,
    reference_depth_table,
)


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def M(*rows):
    return Matrix(rows)


def line(*coords):
    return Subspace([coords], len(coords))


# --------------------------------------------------------------- filtrations


def test_generalized_eigenspace_eigenline():
    a = diag(ZETA, ZETA_INV)
    assert generalized_eigenspace(a, ZETA, 1) == line(1, 0)


def test_generalized_eigenspace_jordan_block():
    a = suspension_simplex(3, 2).elements[0]
    assert generalized_eigenspace(a, 2, 1).dim == 3
    assert generalized_eigenspace(a, 2, 2) == Subspace.full(4)


def test_generalized_eigenspace_missing_eigenvalue():
    assert generalized_eigenspace(diag(1, 2), 7, 1).dim == 0


def test_generalized_eigenspace_needs_positive_degree():
    with pytest.raises(ValueError):
        generalized_eigenspace(diag(1, 2), 1, 0)


def test_filtration_sporadic_dims():
    f = filtration(sporadic4(1).elements[2], 1)
    assert f.dims == (2, 4)


def test_filtration_diagonalizable_stops_immediately():
    assert filtration(diag(1, 1, 2), 1).dims == (2,)


def test_filtration_nilpotent_full_chain():
    shift = M((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert filtration(shift, 0).dims == (1, 2, 3)


def test_filtration_empty_for_non_eigenvalue():
    assert filtration(diag(1, 2), 5).spaces == ()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.integers(-2, 2))
def test_filtration_jordan_inequalities(entries, lam):
    # the constructor asserts the chain and quotient laws; feed it arbitrary
    # small matrices to exercise them
    a = Matrix([entries[:2], entries[2:]])
    f = filtration(a, lam)
    dims = (0,) + f.dims
    jumps = [b - c for c, b in zip(dims, dims[1:])]
    assert all(x >= y for x, y in zip(jumps, jumps[1:]))


def test_jfold_single_index_is_plain_eigenspace():
    t = standard(3, 1, 2)
    assert jfold(t, 1, 1, [1]) == generalized_eigenspace(t.elements[1], 1, 1)


def test_jfold_standard_pair():
    t = standard(3, 1, 2)
    assert jfold(t, 1, 1, [0, 1]) == line(0, 0, 1)


def test_jfold_triple_intersection_vanishes():
    t = ncsimplex(3, 2, 1)
    assert jfold(t, 1, 1, [0, 1, 2]).dim == 0


def test_jfold_empty_subset_is_everything():
    t = standard(2, 1, 2)
    assert jfold(t, 1, 1, []) == Subspace.full(2)


def test_filtration_invariants_raise():
    with pytest.raises(InvariantViolation, match="not nested"):
        EigenFiltration(ONE, [line(1, 0), line(0, 1)])
    with pytest.raises(InvariantViolation, match="increase"):
        EigenFiltration(ONE, [line(1, 0, 0), Subspace.full(3)])
    with pytest.raises(InvariantViolation, match="increases"):
        DepthProfile(ONE, [1, 2])


def test_invariants_still_raise_under_python_O():
    code = ("from totsym.spectral import DepthProfile, InvariantViolation\n"
            "try:\n"
            "    DepthProfile(1, [1, 2])\n"
            "except InvariantViolation as e:\n"
            "    print('raised:', e)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(totsym.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: depth table (1, 2) increases\n"


# ------------------------------------------------------------ record types


RECORDS = {
    "EigenFiltration": lambda: EigenFiltration(ONE, [line(1, 0)]),
    "DepthProfile": lambda: DepthProfile(ONE, [2, 1, 0]),
    "Incomplete": lambda: discover_eigenvalues(
        M((0, 0, 5), (1, 0, 0), (0, 1, 0))),
    "ClassificationResult": lambda: classify_commutative(standard(2, 1, 2)),
    "FullAlgebra": lambda: irreducibility_certificate(standard(2, 1, 2)),
    "ProperAlgebra": lambda: irreducibility_certificate(suspension_simplex(2)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for attr in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    # a frozen slotted dataclass raises TypeError for a name it lacks
    with pytest.raises((AttributeError, TypeError)):
        record.extra = None
    assert not hasattr(record, "extra")


def test_spectral_does_not_import_catalog():
    code = ("import sys\n"
            "import totsym.spectral\n"
            "print(sorted(m for m in sys.modules if m.startswith('totsym.')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(totsym.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['totsym.field', 'totsym.linalg', 'totsym.spectral']\n"


# --------------------------------------------------------------------- depth


def test_depth_standard():
    p = depth_profile(standard(3, 1, 2), 1)
    assert p.mu == (2, 1, 0)
    assert p.depth == 2


def test_depth_fresh_induction():
    t = induction(standard(2, 1, 2), 2, 5)
    assert depth_profile(t, 5).depth == 2


def test_depth_of_degenerate_set_is_k():
    t = Tss([diag(2, 2)] * 3)
    assert depth_profile(t, 2).depth == 3


def test_depth_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        depth_profile(standard(3, 1, 2), 9)


def test_depth_below_cardinality_on_irreducible_sets():
    for t in (standard(4, 2, 1), partition_construction([1, 1, 2])):
        for lam in set(t.params):
            assert depth_profile(t, lam).depth < t.k


@st.composite
def disguised_diagonal_sets(draw):
    """Up to five diagonal matrices of size n <= 4 with entries in {0, 1, 2},
    seen through a unit upper triangular change of basis."""
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    diagonals = draw(st.lists(entries, min_size=1, max_size=5))
    p = Matrix([[1 if i == j else (draw(st.integers(-1, 1)) if j > i else 0)
                 for j in range(n)] for i in range(n)])
    p_inv = p.inverse()
    return Tss([p * diag(*d) * p_inv for d in diagonals])


@settings(max_examples=40, deadline=None)
@given(disguised_diagonal_sets(), st.integers(0, 2))
@example(standard(4, 2, 1), 2)
@example(standard(4, 2, 1), 1)
@example(partition_construction([1, 1, 2]), 1)
@example(ncsimplex(4), 1)
@example(Tss([diag(2, 2)] * 3), 2)
def test_depth_profile_matches_the_from_scratch_reference(t, lam):
    firsts = [generalized_eigenspace(a, lam, 1) for a in t.elements]
    table = reference_depth_table(firsts, t.n)
    if all(e.dim == 0 for e in firsts):
        with pytest.raises(NotAnEigenvalue):
            depth_profile(t, lam)
    elif None in table:  # the subset cross-check must refuse the set
        with pytest.raises(InvariantViolation):
            depth_profile(t, lam)
    else:
        assert depth_profile(t, lam).mu == tuple(table)


def test_eigenspace_transport():
    # realizations carry j-fold eigenspaces onto the permuted subsets
    t = partition_construction([1, 2, 3])
    for sigma, s in [((1, 0, 2), (0,)), ((2, 0, 1), (0, 2)), ((1, 2, 0), (1,))]:
        r = realize_permutation(t.witness, list(sigma))
        moved = reference_apply(jfold(t, 1, 1, s), r)
        assert moved == jfold(t, 1, 1, [sigma[i] for i in s])


# ----------------------------------------------------------------- discovery


def test_discover_rational_spectrum():
    expected = [Scalar.rational(v) for v in (1, 2, 2)]
    assert discover_eigenvalues(diag(1, 2, 2)) == expected


def test_discover_quadratic_residual():
    _, t = half_dim_normal_form(tilde_sigma5_arrangement())
    roots = discover_eigenvalues(t.elements[1])
    assert roots == sorted([ZETA, ZETA_INV], key=Scalar.sort_key)


def test_discover_incomplete_outside_field():
    out = discover_eigenvalues(M((0, 5), (1, 0)))
    assert isinstance(out, Incomplete)
    assert out.residual.degree == 2


def test_discover_needs_pool_for_larger_rationals():
    a = diag(4, 4, 4)
    assert isinstance(discover_eigenvalues(a), Incomplete)
    assert discover_eigenvalues(a, (4,)) == [Scalar.rational(4)] * 3


def test_discover_does_not_depend_on_the_candidate_order():
    # x^3 - 5 is left over after 1 and 5 are divided out, whichever comes first
    a = M((0, 0, 5, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0),
          (0, 0, 0, 0, 5))
    assert discover_eigenvalues(a, (5,)).roots == (ONE, Scalar.rational(5))
    assert discover_eigenvalues(diag(4, 1, 4), (4,)) == [ONE] + [Scalar.rational(4)] * 2


@settings(max_examples=15, deadline=None)
@given(st.permutations([5, 4, -7, ZETA, 1, SQRT2]))
def test_discover_gives_one_result_for_every_candidate_order(candidates):
    # every candidate but -7 is a root, 4 a double one and 1 one of the pool
    # too; x^3 - 5 and x + sqrt2 are left over
    a = block_sum(ROOT3_5, block_sum(diag(5, 4, 4, ZETA, 1), M((0, 2), (1, 0))))
    found = discover_eigenvalues(a, candidates)
    assert found == discover_eigenvalues(a, (5, 4, -7, ZETA, 1, SQRT2))
    assert found.roots == tuple(sorted(found.roots, key=Scalar.sort_key))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_discover_diagonal_matrices(entries):
    assert discover_eigenvalues(diag(*entries)) == sorted(
        (Scalar.rational(e) for e in entries), key=Scalar.sort_key)


# ------------------------------------------------------------ classification


PARTITION_DIMS = {
    (1, 2): 2,
    (1, 1, 2): 3,
    (1, 2, 3): 6,
    (1, 1, 1, 2): 4,
    (1, 1, 2, 2): 6,
    (1, 1, 2, 3): 12,
    (1, 2, 3, 4): 24,
}


@pytest.mark.parametrize("values", sorted(PARTITION_DIMS))
def test_classification_round_trip(values):
    t = partition_construction(list(values))
    assert t.n == PARTITION_DIMS[values]
    res = classify_commutative(t)
    assert res.verdict == IRREDUCIBLE
    assert res.weight.values == tuple(Scalar.rational(v) for v in values)


def test_classification_weight_is_canonical():
    res = classify_commutative(permutation_type([3, 1, 2]))
    assert res.weight.values == (ONE, Scalar.rational(2), Scalar.rational(3))
    assert res.partition == (1, 1, 1)


def test_classification_suspension_is_not_diagonalizable():
    assert classify_commutative(suspension_simplex(3, 2)).verdict == (
        NON_DIAGONALIZABLE)


def test_classification_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        classify_commutative(ncsimplex(3, 2, 1))


def test_classification_reducible_witness():
    t = Tss([diag(1, 1, 2), diag(1, 2, 1)])
    res = classify_commutative(t)
    assert res.verdict == REDUCIBLE
    assert 0 < res.subspace.dim < 3
    assert all(res.subspace.maps_into(a, res.subspace) for a in t.elements)


def test_classification_degenerate_plane_is_reducible():
    res = classify_commutative(Tss([Matrix.identity(2)] * 2))
    assert res.verdict == REDUCIBLE
    assert res.subspace.dim == 1


def test_classification_matches_model():
    from totsym.core import isomorphic

    for values in ([1, 2], [1, 1, 2], [1, 2, 3]):
        t = partition_construction(values)
        res = classify_commutative(t)
        model = partition_construction(list(res.weight.values))
        assert isomorphic(t, model) is not None


# the weight shapes the benchmark classifies (equal labels, equal values)
CLASSIFY_SHAPES = ((0, 0, 1), (0, 1, 2), (0, 0, 0, 1), (0, 0, 1, 1),
                   (0, 0, 1, 2), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1))
SURDS = (SQRT2, I_UNIT, SQRT3, ZETA, SQRT6, ONE)


def conjugated(t):
    """The set P A_i P^-1 for a unit upper triangular P whose entries above
    the diagonal are all nonzero and mostly irrational, keeping the hints."""
    n = t.n
    p = Matrix([[ONE if i == j else SURDS[(i + 2 * j) % len(SURDS)] if j > i else 0
                 for j in range(n)] for i in range(n)])
    p_inv = p.inverse()
    return Tss([p * a * p_inv for a in t.elements], params=t.params)


def jordan(lam, n):
    return Matrix([[lam if i == j else 1 if j == i + 1 else 0 for j in range(n)]
                   for i in range(n)])


def block_sum(a, b):
    return Matrix.block([[a, Matrix.zero(a.n, b.n)], [Matrix.zero(b.n, a.n), b]])


def direct_sum(s, t):
    return Tss([block_sum(a, b) for a, b in zip(s.elements, t.elements)])


def _shape_set(shape, disguise):
    t = partition_construction([(2, -1, 3)[label] for label in shape])
    return conjugated(t) if disguise else t


ROOT_5 = M((0, 5), (1, 0))  # eigenvalues +-sqrt(5), outside K

DIFFERENTIAL_SETS = {
    **{f"shape{''.join(map(str, s))}{'-disguised' if d else ''}":
       (lambda s=s, d=d: _shape_set(s, d))
       for s in CLASSIFY_SHAPES for d in (False, True)},
    "scalar-plane": lambda: Tss([Matrix.scalar(2, 3)] * 3),
    "scalar-line": lambda: Tss([M((2,))] * 2),
    "distinct-scalars-line": lambda: Tss([M((1,)), M((2,))]),
    "jordan-first": lambda: Tss([jordan(2, 3), jordan(2, 3) * jordan(2, 3)]),
    "jordan-later": lambda: Tss([diag(1, 1, 2), M((2, 1, 0), (0, 2, 0), (0, 0, 3))]),
    "jordan-disguised": lambda: conjugated(Tss([diag(1, 1, 2),
                                                M((2, 1, 0), (0, 2, 0), (0, 0, 3))])),
    "incomplete-first": lambda: Tss([ROOT_5, Matrix.scalar(2, 5)]),
    "incomplete-later": lambda: Tss([Matrix.identity(2), ROOT_5]),
    "sum-of-two-orbits": lambda: direct_sum(partition_construction([1, 2]),
                                            partition_construction([1, 3])),
    "sum-of-one-orbit-twice": lambda: direct_sum(partition_construction([1, 1, 2]),
                                                 partition_construction([1, 1, 2])),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SETS))
def test_classification_matches_the_zassenhaus_reference(name):
    t = DIFFERENTIAL_SETS[name]()
    assert classify_commutative(t) == reference_classify(t)


@settings(max_examples=40, deadline=None)
@given(disguised_diagonal_sets())
def test_classification_matches_the_reference_on_disguised_diagonals(t):
    assert classify_commutative(t) == reference_classify(t)


@pytest.mark.parametrize("elements", [
    # A_2 is diagonalizable but moves the eigenline e_1 of A_1
    [diag(1, 2), M((1, 0), (1, 2))],
    # A_1 = I: only A_2 and A_3 fail to commute
    [Matrix.identity(3), diag(1, 2, 3), M((1, 0, 0), (1, 2, 0), (0, 0, 3))],
    # A_2 swaps the eigenlines of A_1
    [diag(1, 2), M((0, 1), (1, 0))],
    # the first element is not diagonalizable
    [jordan(1, 2), diag(1, 2)],
    # the first element's eigenvalues lie outside K
    [ROOT_5, diag(1, 2)],
], ids=["moved-eigenline", "identity-first", "swapped-eigenlines", "jordan-first",
        "incomplete-first"])
def test_classification_not_commutative_comes_first(elements):
    t = Tss(elements)
    for classify in (classify_commutative, reference_classify):
        with pytest.raises(NotCommutative, match="do not pairwise commute"):
            classify(t)


def test_classification_proves_commutativity_by_refinement(monkeypatch):
    # every later element is split inside the blocks, and a refinement that
    # ends has proven that the elements commute
    calls = []
    meet = Subspace.intersection
    monkeypatch.setattr(Subspace, "intersection",
                        lambda x, y: calls.append("meet") or meet(x, y))
    monkeypatch.setattr(totsym.spectral, "is_commutative",
                        lambda t: calls.append("commute") or True)
    assert classify_commutative(permutation_type([1, 2, 3, 4])).verdict == IRREDUCIBLE
    assert calls == []


ROOT3_5 = M((0, 0, 5), (1, 0, 0), (0, 1, 0))  # x^3 - 5, no root in K


def test_classification_forms_a_whole_characteristic_polynomial_only_off_the_diagonal(
        monkeypatch):
    # the first element is split on K^n like every later one on its blocks:
    # a diagonal one has its roots read off, with no characteristic
    # polynomial on K^24; a disguised one forms exactly one on K^6
    sizes = []
    monkeypatch.setattr(totsym.spectral, "char_poly",
                        lambda a: sizes.append(a.n) or char_poly(a))
    assert classify_commutative(permutation_type([1, 2, 3, 4])).verdict == IRREDUCIBLE
    assert sizes.count(24) == 0
    assert classify_commutative(conjugated(permutation_type([1, 2, 3]))).verdict == IRREDUCIBLE
    assert sizes.count(6) == 1


def test_classification_stalled_block_reports_the_whole_element():
    # the block span(e1, e2, e3) of A_1 stalls on x^3 - 5 with no root
    # found; the detail is the whole A_2's, which also found the root 3
    t = Tss([diag(1, 1, 1, 2), block_sum(ROOT3_5, M((3,)))])
    res = classify_commutative(t)
    assert res.verdict == NOT_CLASSIFIED
    assert res.detail == ("eigenvalue discovery stalled: "
                          "Incomplete(roots=[3], residual=-5 + (1)*x^3)")
    # A_2 stalls on K^6 only (its roots 5, 6, 7 are read off eigenlines),
    # A_3 on a block: the detail is the first whole stall, A_2's
    t = Tss([diag(1, 1, 1, 2, 3, 4), diag(1, 1, 1, 5, 6, 7),
             block_sum(ROOT3_5, Matrix.identity(3))])
    res = classify_commutative(t)
    assert res.detail == ("eigenvalue discovery stalled: Incomplete(roots=[1, 1, 1], "
                          "residual=-210 + (107)*x + (-18)*x^2 + (1)*x^3)")


def test_classification_stalled_block_keeps_the_whole_root_order():
    # the block (all of K^5) and the whole element try the known root 5
    # before 1, and an Incomplete lists its roots sorted: [1, 5]
    t = Tss([Matrix.scalar(5, 5), block_sum(ROOT3_5, diag(1, 5))], params=[5])
    res = classify_commutative(t)
    assert res.verdict == NOT_CLASSIFIED
    assert res.detail == ("eigenvalue discovery stalled: "
                          "Incomplete(roots=[1, 5], residual=-5 + (1)*x^3)")


def test_classification_stalled_block_is_checked_against_the_whole(monkeypatch):
    # a block that stalls while the whole element does not breaks an
    # invariant, and says so instead of reporting NotClassified
    discover = totsym.spectral.discover_eigenvalues

    def stall_on_blocks(a, candidates=()):
        found = discover(a, candidates)
        return Incomplete([], char_poly(a)) if a.n < t.n else found

    monkeypatch.setattr(totsym.spectral, "discover_eigenvalues", stall_on_blocks)
    t = Tss([diag(1, 1, 2), block_sum(M((0, 1), (1, 0)), M((3,)))])
    with pytest.raises(InvariantViolation, match="stalls on a block"):
        classify_commutative(t)


def test_classification_finds_roots_outside_the_pool_on_blocks():
    # the whole second element has the cubic (x-4)(x-5)(x-7), outside the
    # pool; on the eigenlines of the first its roots are read off
    t = Tss([diag(1, 2, 3), diag(4, 5, 7)])
    res = classify_commutative(t)
    assert res.verdict == REDUCIBLE
    assert 0 < res.subspace.dim < 3
    assert all(res.subspace.maps_into(a, res.subspace) for a in t.elements)


def test_classification_of_the_empty_set():
    res = classify_commutative(Tss([], n=1))
    assert res.verdict == NOT_CLASSIFIED
    assert "empty set" in res.detail
    res = classify_commutative(Tss([], n=2))
    assert res.verdict == REDUCIBLE and res.subspace.dim == 1


# -------------------------------------------------------------- certificates


def test_certificate_standard_full():
    cert = irreducibility_certificate(standard(3, 1, 2))
    assert isinstance(cert, FullAlgebra)
    assert cert.dim == 9


def test_certificate_permutation_type_full():
    cert = irreducibility_certificate(permutation_type([1, 2, 3]))
    assert isinstance(cert, FullAlgebra)
    assert cert.dim == 36


def test_certificate_suspension_proper():
    cert = irreducibility_certificate(suspension_simplex(3, 2))
    assert isinstance(cert, ProperAlgebra)
    assert cert.invariant_subspace == Subspace(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)


def test_certificate_degenerate_scalar():
    cert = irreducibility_certificate(Tss([diag(3, 3)]))
    assert isinstance(cert, ProperAlgebra)
    assert cert.dim == 1
    assert cert.invariant_subspace == line(1, 0)


def test_certificate_needs_witness():
    with pytest.raises(ValueError):
        irreducibility_certificate(Tss([diag(1, 2), diag(2, 1)]))
    with pytest.raises(ValueError):  # no elements and no witness matrices
        irreducibility_certificate(Tss([], n=2, witness=[]))


@pytest.mark.parametrize("k,p", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_induction_preserves_full_algebra(k, p):
    base = standard(k, 1, 2) if k > 1 else Tss([M((2,))])
    assert isinstance(irreducibility_certificate(base), FullAlgebra)
    out = induction(base, p, 5)
    assert isinstance(irreducibility_certificate(out), FullAlgebra)


def test_certificate_closure_product_count(monkeypatch):
    # the closure takes A_1 and the witness first, so it finds A_2..A_k in
    # its span and skips them; char_poly forms no product.  With every
    # element multiplied in, and Faddeev-LeVerrier, these were 96 and 87.
    full, proper = standard(4), sporadic4()
    products = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda x, y: products.append(y) or mul(x, y))
    assert irreducibility_certificate(full) == FullAlgebra(16)
    assert len(products) == 54
    products.clear()
    assert irreducibility_certificate(proper).dim == 12
    assert len(products) == 44


def _identities(t):
    return [Matrix.identity(t.n)] * (t.k - 1)


@pytest.mark.parametrize("t, witness", [
    (standard(3, 1, 2), _identities(standard(3, 1, 2))),
    (standard(4, 3, -1), list(reversed(standard(4, 3, -1).witness))),
    (permutation_type([1, 2, 3]), _identities(permutation_type([1, 2, 3]))),
    (sporadic4(), _identities(sporadic4())),
    (suspension_simplex(3, 2), list(reversed(suspension_simplex(3, 2).witness))),
])
def test_certificate_does_not_trust_the_witness(t, witness):
    # a witness that does not realize the set: A_2..A_k may lie outside the
    # algebra of A_1 and the witness, and must still be multiplied in
    basis = reference_algebra_closure(list(t.elements) + list(witness))
    cert = irreducibility_certificate(Tss(t.elements, witness=witness, params=t.params))
    if len(basis) == t.n * t.n:
        assert cert == FullAlgebra(t.n * t.n)
    else:
        assert cert == ProperAlgebra(len(basis), _invariant_submodule(t, basis))


# -------------------------------------------------------------------- suites


def test_rep_obstruction_suite_passes():
    checks = rep_obstruction_suite()
    assert len(checks) == 6
    assert all(c["passed"] for c in checks), [
        c["name"] for c in checks if not c["passed"]]


def test_halfdim_nonexistence_suite_passes():
    checks = halfdim_nonexistence_suite()
    assert len(checks) == 4
    assert all(c["passed"] for c in checks), [
        c["name"] for c in checks if not c["passed"]]


def test_suite_names_are_stable():
    names = [c["name"] for c in rep_obstruction_suite()]
    assert names == [
        "obstruction.braid.3",
        "obstruction.braid.4",
        "obstruction.braid.5",
        "obstruction.braid.6",
        "obstruction.spin.involution_pair",
        "obstruction.spin.braid_power",
    ]
    names = [c["name"] for c in halfdim_nonexistence_suite()]
    assert names == [
        "halfdim.block_identity",
        "halfdim.transport_clash",
        "halfdim.top_row_coefficients",
        "halfdim.system_rank",
    ]
