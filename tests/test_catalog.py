import time
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totsym.catalog import (
    DuplicateEigenvalue,
    EqualEigenvalues,
    NotInjective,
    Weight,
    dual_simplex_arrangement,
    eigenspace_construction,
    induction,
    ncsimplex,
    partition_construction,
    permutation_type,
    simplex_arrangement,
    simplex_system,
    sporadic4,
    standard,
    suspension_simplex,
    tilde_sigma5_arrangement,
    tilde_sigma5_construction,
    tilde_sigma5_rep,
    tilde_sigma5_system,
)
from totsym.core import (
    DEGENERATE,
    TOTALLY_SYMMETRIC,
    DecompositionSystem,
    Tss,
    dual_arrangement,
    half_dim_normal_form,
    involution_checks,
    is_commutative,
    isomorphic,
    verify_arrangement,
    verify_tss,
)
from totsym.field import (
    HALF,
    I_UNIT,
    MU_SPORADIC,
    ONE,
    SQRT3,
    SQRT6,
    ZERO,
    ZETA,
    ZETA_INV,
    Scalar,
)
from totsym.linalg import Matrix, Subspace
from totsym.spectral import IRREDUCIBLE, classify_commutative


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def M(*rows):
    return Matrix(rows)


def r(p, q=1):
    return Scalar.rational(Fraction(p, q))


def tableau_columns(t):
    """Joint diagonal entries per basis vector, as a canonically sorted list."""
    cols = [tuple(e.rows[i][i] for e in t.elements) for i in range(t.n)]
    return sorted(cols, key=lambda c: tuple(x.sort_key() for x in c))


def as_scalar_rows(rows):
    return [tuple(Scalar.rational(x) for x in row) for row in rows]


THIRD_I_SQRT3 = I_UNIT * SQRT3 * r(1, 3)
SIXTH_I_SQRT3 = I_UNIT * SQRT3 * r(1, 6)
SIXTH_I_SQRT6 = I_UNIT * SQRT6 * r(1, 6)
THIRD_I_SQRT6 = I_UNIT * SQRT6 * r(1, 3)


# ------------------------------------------------------------ standard sets


def test_standard_tableau():
    t = standard(3, 1, 2)
    assert t.elements == (diag(2, 1, 1), diag(1, 2, 1), diag(1, 1, 2))
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is t.witness


def test_standard_singleton():
    t = standard(1, 3, 7)
    assert t.k == 1 and t.elements == (M((7,)),)
    assert t.degenerate


def test_standard_equal_eigenvalues_rejected():
    with pytest.raises(EqualEigenvalues):
        standard(3, 2, 2)


def test_standard_defaults():
    t = standard(2)
    assert t.elements == (diag(1, 2), diag(2, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_standard_verifies(k, lam, nu):
    if lam == nu:
        nu = nu + 1
    t = standard(k, Scalar.rational(lam), Scalar.rational(nu))
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    for i, e in enumerate(t.elements):
        assert e.rows[i][i] == Scalar.rational(nu)


# ------------------------------------------------- partition / permutation


def partitions(k):
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in partitions(k - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def weight_for(parts):
    values = []
    for label, size in enumerate(parts, start=1):
        values.extend([label] * size)
    return Weight(values)


def multinomial(parts):
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def test_partition_dimension_is_multinomial():
    for k in range(1, 6):
        for parts in partitions(k):
            t = partition_construction(weight_for(parts))
            assert t.n == multinomial(parts)
            assert t.k == k


def test_partition_weight_type():
    w = Weight([1, 2, 2, 5])
    assert w.k == 4
    assert w.partition == (2, 1, 1)
    assert partition_construction(w).n == 12


def test_partition_degenerate_weight():
    t = partition_construction([3, 3, 3])
    assert t.k == 3 and t.n == 1 and t.degenerate


def test_partition_two_by_two_weight():
    t = partition_construction([1, 1, 2, 2])
    assert t.n == 6
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC


def test_permutation_type_tableau():
    t = permutation_type([1, 2, 3])
    assert t.n == 6 and t.k == 3
    printed = [(3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3)]
    assert tableau_columns(t) == sorted(
        as_scalar_rows(printed), key=lambda c: tuple(x.sort_key() for x in c))
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is t.witness


def test_permutation_type_rejects_collisions():
    with pytest.raises(NotInjective):
        permutation_type([1, 2, 1])


def test_permutation_type_is_a_partition_construction():
    assert permutation_type([4, 5]) == partition_construction([4, 5])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
def test_weight_orbit_lists_each_rearrangement_once(values):
    w = Weight(values)
    want = sorted(set(permutations(w.values)),
                  key=lambda f: tuple(x.sort_key() for x in f))
    assert list(w.orbit()) == want


def test_partition_orbit_does_not_enumerate_all_permutations():
    # 12! = 479001600 permutations, 12 orbit points
    start = time.perf_counter()
    t = partition_construction([1] * 11 + [2])
    res = classify_commutative(t)
    assert time.perf_counter() - start < 1.0
    assert (t.k, t.n) == (12, 12)
    assert res.verdict == IRREDUCIBLE and res.partition == (11, 1)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_partition_verifies(values):
    t = partition_construction(values)
    cert = verify_tss(t)
    assert cert.verdict in (TOTALLY_SYMMETRIC, DEGENERATE)
    assert (cert.verdict == DEGENERATE) == (len(set(values)) <= 1)


# ----------------------------------------------------------------- induction


def test_induction_of_degenerate_pair_is_standard():
    pair = Tss([M((1,)), M((1,))])
    assert induction(pair, 1, 2) == standard(3, 1, 2)


def test_induction_from_singleton():
    t = induction(Tss([M((2,))]), 2, 1)
    assert t.k == 3 and t.n == 3
    assert isomorphic(t, standard(3, 1, 2)) is not None


def test_induction_printed_columns():
    t = induction(standard(2, 1, 2), 1, 3)
    assert t.k == 3 and t.n == 6
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    assert tableau_columns(t) == tableau_columns(permutation_type([1, 2, 3]))
    assert isomorphic(t, permutation_type([1, 2, 3])) is not None


def test_induction_by_two_indices():
    t = induction(standard(2, 1, 2), 2, 5)
    assert t.k == 4 and t.n == 12
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC


def test_induction_needs_witness():
    bare = Tss([diag(1, 2), diag(2, 1)])
    assert bare.witness is None
    with pytest.raises(ValueError):
        induction(bare, 1, 3)


def test_repeated_induction_matches_partition():
    # parts (1, 2): a singleton induced by two indices of a second eigenvalue
    chain = induction(Tss([M((1,))]), 2, 2)
    assert isomorphic(chain, partition_construction([1, 2, 2])) is not None
    # parts (2, 2): a degenerate pair induced by two fresh indices
    chain = induction(Tss([M((1,)), M((1,))]), 2, 2)
    assert isomorphic(chain, partition_construction([1, 1, 2, 2])) is not None


# ------------------------------------------------------------ simplex family


def test_simplex_lines_n2():
    a = simplex_arrangement(2)
    assert a.planes == (Subspace([(1, 0)], 2), Subspace([(0, 1)], 2),
                        Subspace([(1, 1)], 2))
    cert = verify_arrangement(a)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is a.witness
    assert a.representatives is not None


def test_simplex_one_dimensional_is_degenerate():
    a = simplex_arrangement(1)
    assert a.k == 2 and a.degenerate
    assert verify_arrangement(a).verdict == DEGENERATE


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_and_dual_verify(n):
    assert verify_arrangement(simplex_arrangement(n)).verdict == TOTALLY_SYMMETRIC
    assert verify_arrangement(dual_simplex_arrangement(n)).verdict == TOTALLY_SYMMETRIC


@pytest.mark.parametrize("n", [2, 3])
def test_dual_of_simplex_matches_dual_simplex(n):
    # the equivariant identification of covectors with points sends the
    # annihilator of the i-th line to the i-th covector kernel
    duals = dual_arrangement(simplex_arrangement(n))
    target = dual_simplex_arrangement(n)
    gram = Matrix([[r(n) if i == j else -ONE for j in range(n)]
                   for i in range(n)])
    d = gram.inverse()
    assert [p.apply(d) for p in duals.planes] == list(target.planes)


def test_suspension_simplex_pair():
    t = suspension_simplex(1, 5)
    assert t.elements == (M((5, 1), (0, 5)), M((5, -1), (0, 5)))
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC


def test_suspension_simplex_three():
    t = suspension_simplex(3, 2)
    assert t.k == 4 and t.n == 4
    last_columns = [tuple(e.column(3)[:3]) for e in t.elements]
    assert last_columns == as_scalar_rows(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert all(e.rows[i][i] == r(2) for e in t.elements for i in range(4))
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    assert is_commutative(t)


# ------------------------------------------------- eigenspace constructions


def test_ncsimplex_trio_printed():
    lam, mu = r(7), r(3)
    t = ncsimplex(3, lam, mu)
    half_diff = (mu - lam) * HALF
    mean = (lam + mu) * HALF
    assert t.elements == (
        M((lam, half_diff), (ZERO, mu)),
        M((mu, ZERO), (half_diff, lam)),
        M((mean, -half_diff), (-half_diff, mean)),
    )
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    assert not is_commutative(t)


def test_ncsimplex_is_eigenspace_construction():
    assert ncsimplex(4, 2, 1) == eigenspace_construction(
        simplex_system(3), [2, 1])


def test_ncsimplex_degenerates_at_two():
    t = ncsimplex(2, 7, 3)
    assert t.k == 2 and t.n == 1 and t.degenerate
    assert t.elements == (M((7,)), M((7,)))


def test_ncsimplex_rejects_equal_eigenvalues():
    with pytest.raises(EqualEigenvalues):
        ncsimplex(3, 2, 2)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_ncsimplex_braid_discrepancy(k):
    d = k - 1
    t = ncsimplex(k, -1, 1)
    a1, a2 = t.elements[0], t.elements[1]
    left = (a1 * a2 * a1).rows[0][0]
    right = (a2 * a1 * a2).rows[0][0]
    assert left == ONE - r(4, d * d)
    assert right == r(4, d * d) - ONE
    assert (left == right) == (k == 3)
    assert (a1 * a2 * a1 == a2 * a1 * a2) == (k == 3)


def test_eigenspace_construction_single_part():
    full = Subspace.full(2)
    d = DecompositionSystem([(full,), (full,), (full,)],
                            witness=[Matrix.identity(2)] * 2)
    t = eigenspace_construction(d, [5])
    assert t.degenerate and t.elements[0] == diag(5, 5)


def test_eigenspace_construction_rejects_duplicates():
    with pytest.raises(DuplicateEigenvalue):
        eigenspace_construction(simplex_system(2), [3, 3])


def test_eigenspace_construction_arity():
    with pytest.raises(ValueError):
        eigenspace_construction(simplex_system(2), [1, 2, 3])


# ------------------------------------------------------- the spin family


def test_spin_presentation_relations():
    ts = tilde_sigma5_rep()
    minus = Matrix.scalar(4, -1)
    for t in ts:
        assert t * t == minus
    for a, b in zip(ts, ts[1:]):
        assert (a * b) ** 3 == minus
    for i, j in combinations(range(4), 2):
        if j - i >= 2:
            assert ts[i] * ts[j] == minus * ts[j] * ts[i]


def test_spin_arrangement_planes():
    a = tilde_sigma5_arrangement()
    assert a.k == 5 and a.d == 2 and a.n == 4
    for i, j in combinations(range(5), 2):
        assert a.planes[i].intersection(a.planes[j]).dim == 0
    cert = verify_arrangement(a)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is a.witness


def test_spin_half_dim_normal_form():
    _, t = half_dim_normal_form(tilde_sigma5_arrangement())
    a4 = M((ZETA, ZERO), (ZERO, ZETA_INV))
    a5 = M((HALF + SIXTH_I_SQRT3, THIRD_I_SQRT6),
           (THIRD_I_SQRT6, HALF - SIXTH_I_SQRT3))
    assert t.elements == (a4, a5)
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    assert involution_checks(t) == [
        {"conjugate_to_inverse": True, "conjugate_to_one_minus": True},
        {"conjugate_to_inverse": True, "conjugate_to_one_minus": True},
    ]


def test_spin_system_transport_independence():
    ts = tilde_sigma5_rep()
    sys5 = tilde_sigma5_system()
    assert sys5.parts == 2 and sys5.k == 5
    # a longer word sending 1 to 3 lands on the same complement subspace
    complement_at_3 = sys5.grid[2][1]
    assert sys5.grid[0][1].apply(ts[1] * ts[0]) == complement_at_3
    assert sys5.grid[0][1].apply(ts[0] * ts[1] * ts[0]) == complement_at_3


def test_spin_construction_matches_eigenspace_construction():
    assert tilde_sigma5_construction(2, 1) == eigenspace_construction(
        tilde_sigma5_system(), [2, 1])


def test_spin_construction_verifies():
    t = tilde_sigma5_construction()
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is t.witness
    assert not is_commutative(t)


def test_spin_construction_at_involution_eigenvalues():
    t = tilde_sigma5_construction(1, -1)
    a1 = Matrix([
        [ONE, ZERO, -ONE - THIRD_I_SQRT3, -SIXTH_I_SQRT6],
        [ZERO, ONE, -SIXTH_I_SQRT6, -ONE + THIRD_I_SQRT3],
        [ZERO, ZERO, -ONE, ZERO],
        [ZERO, ZERO, ZERO, -ONE],
    ])
    a2 = Matrix([
        [-ONE, ZERO, ZERO, ZERO],
        [ZERO, -ONE, ZERO, ZERO],
        [-ONE + THIRD_I_SQRT3, SIXTH_I_SQRT6, ONE, ZERO],
        [SIXTH_I_SQRT6, -ONE - THIRD_I_SQRT3, ZERO, ONE],
    ])
    assert t.elements[0] == a1
    assert t.elements[1] == a2
    assert (a1 * a2) ** 3 != Matrix.identity(4)


def test_spin_construction_rejects_equal_eigenvalues():
    with pytest.raises(EqualEigenvalues):
        tilde_sigma5_construction(1, 1)


# --------------------------------------------------------------- sporadic


def test_sporadic_printed_blocks():
    t = sporadic4(1)
    mu = MU_SPORADIC
    assert r(3) * mu * mu + r(2) * mu + r(3) == ZERO
    third = r(1, 3)
    blocks = [
        [e.rows[0][2:], e.rows[1][2:]] for e in t.elements
    ]
    assert blocks[0] == [(ONE, ZERO), (ZERO, ONE)]
    assert blocks[1] == [(-mu - r(2, 3), mu + third), (ZERO, mu)]
    assert blocks[2] == [(mu, ZERO), (mu + third, -mu - r(2, 3))]
    assert blocks[3] == [(-third, -mu - third), (-mu - third, -third)]
    for e in t.elements:
        assert e.submatrix(range(2), range(2)) == Matrix.identity(2)
        assert e.submatrix(range(2, 4), range(2, 4)) == Matrix.identity(2)
        assert e.submatrix(range(2, 4), range(2)).is_zero()


def test_sporadic_conjugation_identities():
    t = sporadic4(0)
    xs = [e.submatrix(range(2), range(2, 4)) for e in t.elements]
    w = t.witness[0]
    p = w.submatrix(range(2), range(2))
    q = w.submatrix(range(2, 4), range(2, 4))
    q_inv = q.inverse()
    assert p * xs[0] * q_inv == xs[1]
    assert p * xs[1] * q_inv == xs[0]
    assert p * xs[2] * q_inv == xs[2]
    assert p * xs[3] * q_inv == xs[3]


def test_sporadic_verifies_and_commutes():
    t = sporadic4(1)
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is t.witness
    assert is_commutative(t)
    assert not t.degenerate


def test_sporadic_parameter_shifts_diagonal():
    t = sporadic4(7)
    for e in t.elements:
        assert all(e.rows[i][i] == r(7) for i in range(4))


# --------------------------------------------------------------- coherence


def test_every_witness_is_rechecked_exactly():
    outputs = [
        standard(4, 2, 1),
        partition_construction([1, 2, 3]),
        induction(standard(2, 1, 2), 1, 3),
        ncsimplex(4, 2, 1),
        tilde_sigma5_construction(2, 1),
        sporadic4(1),
        suspension_simplex(2, 3),
    ]
    for t in outputs:
        cert = verify_tss(t)
        assert cert.verdict == TOTALLY_SYMMETRIC
        assert cert.witness is t.witness
