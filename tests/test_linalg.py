from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from totsym.field import I_UNIT, ONE, SQRT2, ZERO, ZETA, Scalar
from totsym.linalg import (
    Matrix,
    NoSolution,
    Polynomial,
    Subspace,
    algebra_closure,
    char_poly,
    intertwiner_space,
    invertible_in_space,
    kernel,
    mat_vec,
    matrix_to_vec,
    outer,
    solve,
    vec_to_matrix,
)

from oracles import (
    matrix_to_sympy,
    oracle_algebra_dimension,
    oracle_intertwiner_dimension,
    sym_equal,
    to_sympy,
)

# entries stay small so the sympy cross-checks are quick
small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coords = st.tuples(small_rat, small_rat) | st.tuples(small_rat, st.just(Fraction(0)))
small_scalar = coords.map(lambda t: Scalar([t[0], t[1], 0, 0, 0, 0, 0, 0]))


def square_matrices(n):
    return st.lists(
        st.lists(small_scalar, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def M(*rows):
    return Matrix(rows)


# ----------------------------------------------------------- matrix basics


def test_shape_and_accessors():
    a = M((1, 2, 3), (4, 5, 6))
    assert (a.m, a.n) == (2, 3)
    assert a.column(1) == (Scalar.rational(2), Scalar.rational(5))
    assert a.transpose().rows[2][1] == Scalar.rational(6)
    with pytest.raises(ValueError):
        Matrix([(1, 2), (3,)])


def test_block_assembly():
    i2 = Matrix.identity(2)
    z = Matrix.zero(2)
    top = Matrix.block([[i2, z], [z, -i2]])
    assert top.n == 4 and top.m == 4
    assert top.rows[3][3] == -ONE
    assert top.rows[0][0] == ONE
    assert top.rows[0][2] == ZERO


def test_mul_and_pow():
    a = M((0, -1), (1, 0))
    assert a * a == -Matrix.identity(2)
    assert a ** 4 == Matrix.identity(2)
    assert a ** -1 == a.transpose()
    assert (a * ZETA).rows[0][1] == -ZETA
    assert ZETA * a == a * ZETA


def test_outer_and_vec_roundtrip():
    u = (ONE, SQRT2)
    v = (ZETA, ONE)
    p = outer(u, v)
    assert p.rows[1][0] == SQRT2 * ZETA
    assert vec_to_matrix(matrix_to_vec(p), 2) == p
    assert mat_vec(Matrix.identity(2), u) == u


@settings(max_examples=20, deadline=None)
@given(square_matrices(3))
def test_det_matches_oracle(a):
    assert sym_equal(to_sympy(a.det()), matrix_to_sympy(a).det())


@settings(max_examples=20, deadline=None)
@given(square_matrices(3))
def test_inverse_roundtrip(a):
    d, inv = a.det_inverse()
    if d.is_zero():
        assert inv is None
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * inv == Matrix.identity(3)
        assert inv * a == Matrix.identity(3)


def test_exact_surd_inverse():
    a = M((ZETA, ONE), (ZERO, I_UNIT))
    inv = a.inverse()
    assert a * inv == Matrix.identity(2)
    assert sym_equal(matrix_to_sympy(inv)[0, 0], 1 / to_sympy(ZETA))


# -------------------------------------------------------------- solvers


@settings(max_examples=20, deadline=None)
@given(square_matrices(3), st.lists(small_scalar, min_size=3, max_size=3))
def test_solve_recovers_consistent_rhs(a, x):
    b = mat_vec(a, tuple(x))
    y = solve(a, b)
    assert mat_vec(a, y) == b


def test_solve_inconsistent():
    a = M((1, 0), (1, 0))
    with pytest.raises(NoSolution):
        solve(a, (ONE, -ONE))


@settings(max_examples=20, deadline=None)
@given(square_matrices(3))
def test_kernel_matches_oracle(a):
    ker = kernel(a)
    sm = matrix_to_sympy(a)
    assert ker.dim == 3 - sm.rank(simplify=True)
    for v in ker.basis:
        assert all(x.is_zero() for x in mat_vec(a, v))


def test_kernel_rectangular():
    a = M((1, 1, 0, 0), (0, 0, 1, 1))
    assert kernel(a).dim == 2
    assert kernel(Matrix.identity(3)).dim == 0


# -------------------------------------------------------------- subspaces


def test_subspace_canonical_equality():
    u = Subspace([(1, 0, 1), (0, 1, 1)], 3)
    w = Subspace([(1, 1, 2), (2, 1, 3), (1, 0, 1)], 3)
    assert u == w
    assert hash(u) == hash(w)
    assert u.dim == 2
    assert u.contains((3, -2, 1))
    assert not u.contains((0, 0, 1))


def test_subspace_zero_and_full():
    z = Subspace([], 3)
    assert z.dim == 0
    assert Subspace.full(3).contains_space(z)
    assert Subspace([(0, 0, 0)], 3) == z


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.lists(small_scalar, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(small_scalar, min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_grassmann_formula(vs, ws):
    u = Subspace([tuple(v) for v in vs], 4)
    w = Subspace([tuple(v) for v in ws], 4)
    cap = u.intersection(w)
    assert u.dim + w.dim == (u + w).dim + cap.dim
    for v in cap.basis:
        assert u.contains(v) and w.contains(v)


def test_extension_columns():
    u = Subspace([(1, 0, 2, 0), (0, 0, 1, 0)], 4)
    ext = u.extension_columns()
    assert len(ext) == 2
    total = Subspace(list(u.basis) + ext, 4)
    assert total.dim == 4
    # lowest-index standard vectors are chosen, in order
    assert ext[0][1] == ONE and ext[1][3] == ONE


def test_invariance_and_image():
    a = M((0, 1), (0, 0))
    line = Subspace([(1, 0)], 2)
    assert line.is_invariant_under(a)
    assert not Subspace([(0, 1)], 2).is_invariant_under(a)
    assert Subspace.full(2).apply(a) == line


# ----------------------------------------------------- char poly / spectra


def test_char_poly_fixed():
    a = M((ZETA, 0), (0, ZETA))
    p = char_poly(a)
    assert p.degree == 2
    assert p(ZETA).is_zero()
    q, rem = p.deflate(ZETA)
    assert rem.is_zero()
    q2, rem2 = q.deflate(ZETA)
    assert rem2.is_zero() and q2.degree == 0


@settings(max_examples=15, deadline=None)
@given(square_matrices(3))
def test_char_poly_matches_oracle_and_cayley_hamilton(a):
    p = char_poly(a)
    x = sympy.Symbol("x")
    sp = matrix_to_sympy(a).charpoly(x).as_expr()
    mine = sum(to_sympy(c) * x ** k for k, c in enumerate(p.coeffs))
    assert sympy.simplify(sympy.expand(sp - mine)) == 0
    assert p.eval_matrix(a).is_zero()


def test_polynomial_eval_and_repr():
    p = Polynomial([1, 0, 1])  # x^2 + 1
    assert p(I_UNIT).is_zero()
    assert p(ONE) == Scalar.rational(2)
    assert Polynomial([0, 0, 0]) == Polynomial([0])
    assert "x" in repr(p)


# ------------------------------------------------- intertwiners / algebras


@settings(max_examples=10, deadline=None)
@given(st.lists(square_matrices(2), min_size=1, max_size=2),
       st.lists(square_matrices(2), min_size=1, max_size=2))
def test_intertwiner_dimension_matches_oracle(as_, bs):
    k = min(len(as_), len(bs))
    as_, bs = as_[:k], bs[:k]
    space = intertwiner_space(as_, bs)
    assert space.dim == oracle_intertwiner_dimension(as_, bs)
    for v in space.basis:
        x = vec_to_matrix(v, 2)
        for a, b in zip(as_, bs):
            assert x * a == b * x


def test_intertwiner_rectangular():
    # X (1x2) with X * A = b * X for A = diag(1, 2), b = [2]
    a = M((1, 0), (0, 2))
    b = M((2,),)
    space = intertwiner_space([a], [b])
    assert space.dim == 1
    assert space.basis[0] == (ZERO, ONE)


@settings(max_examples=10, deadline=None)
@given(st.lists(square_matrices(2), min_size=1, max_size=2))
def test_algebra_closure_matches_oracle(gens):
    basis = algebra_closure(gens)
    assert len(basis) == oracle_algebra_dimension(gens)


def test_algebra_closure_closed_and_unital():
    a = M((0, 1), (0, 0))
    basis = algebra_closure([a])
    assert len(basis) == 2  # span{I, a}
    span = Subspace([matrix_to_vec(b) for b in basis], 4)
    for x in basis:
        for y in basis:
            assert span.contains(matrix_to_vec(x * y))
    assert span.contains(matrix_to_vec(Matrix.identity(2)))


def test_algebra_closure_full_matrix_algebra():
    e12 = M((0, 1), (0, 0))
    e21 = M((0, 0), (1, 0))
    assert len(algebra_closure([e12, e21])) == 4


# -------------------------------------------------- invertible-in-space


def test_invertible_in_space_hits_and_misses():
    full = intertwiner_space([Matrix.identity(2)], [Matrix.identity(2)])
    assert full.dim == 4
    found = invertible_in_space(full, 2)
    assert found is not None and not found.det().is_zero()

    nilpotents = Subspace([matrix_to_vec(M((0, 1), (0, 0)))], 4)
    assert invertible_in_space(nilpotents, 2) is None


def test_invertible_in_space_deterministic():
    space = Subspace(
        [matrix_to_vec(M((1, 0), (0, 0))), matrix_to_vec(M((0, 0), (0, 1)))], 4
    )
    a = invertible_in_space(space, 2, seed=7)
    b = invertible_in_space(space, 2, seed=7)
    assert a == b
    assert not a.det().is_zero()


# ------------------------------------------------------------ shape checks


def test_shape_checks_raise_value_error():
    """Shape errors raise ValueError, so they are still caught under python -O."""
    wide = M((1, 2, 3), (4, 5, 6))
    line = Subspace([(1, 0)], 2)
    checks = [
        wide.trace,
        wide.det,
        wide.inverse,
        wide.det_inverse,
        lambda: wide ** 2,
        lambda: vec_to_matrix((1, 2, 3), 2),
        lambda: line + Subspace.full(3),
        lambda: line.intersection(Subspace.full(3)),
        lambda: line.apply(Matrix.identity(3)),
        lambda: char_poly(wide),
        lambda: algebra_closure([Matrix.identity(2), Matrix.identity(3)]),
        lambda: algebra_closure([wide]),
    ]
    for check in checks:
        with pytest.raises(ValueError):
            check()
