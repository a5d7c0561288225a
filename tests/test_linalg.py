import dataclasses
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

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
    solve,
    structurally_singular,
    vec,
    vec_to_matrix,
)
from totsym.linalg import _sparse, _to_matrix

from oracles import (
    matrix_to_sympy,
    oracle_algebra_dimension,
    oracle_intertwiner_dimension,
    oracle_det,
    oracle_kernel,
    oracle_rref,
    reference_algebra_closure,
    reference_apply,
    reference_char_poly,
    reference_invertible_search,
    sym_equal,
    sym_rows_equal,
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


def test_mul_and_pow(monkeypatch):
    a = M((0, -1), (1, 0))
    assert a * a == -Matrix.identity(2)
    assert a ** 4 == Matrix.identity(2)
    assert a ** -1 == a.transpose()
    assert a ** -2 == -Matrix.identity(2)
    assert a ** -3 == a
    b = M((1, 2), (0, 3))
    assert b ** 0 == Matrix.identity(2)
    assert M((0, 1), (0, 0)) ** 0 == Matrix.identity(2)
    assert b ** 5 == b * b * b * b * b
    assert b ** -2 == (b * b).inverse()
    # square-and-multiply from the first factor: no product with I
    products = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda x, y: products.append(y) or mul(x, y))
    assert b ** 1 == b and products == []
    assert b ** 5 == M((1, 242), (0, 243)) and len(products) == 3
    assert (a * ZETA).rows[0][1] == -ZETA
    assert ZETA * a == a * ZETA


def test_outer_and_vec_roundtrip():
    u = (ONE, SQRT2)
    v = (ZETA, ONE)
    p = Matrix([[a * b for b in v] for a in u])
    assert p.rows[1][0] == SQRT2 * ZETA
    assert vec_to_matrix(matrix_to_vec(p), 2) == p
    assert mat_vec(Matrix.identity(2), u) == u


def test_mat_vec_coerces_plain_numbers():
    assert mat_vec(M((1, 2), (3, 4)), (1, 0)) == vec((1, 3))
    assert mat_vec(M((1, 2), (3, 4)), [0, Fraction(1, 2)]) == vec((1, Fraction(2)))


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


def test_invariance_and_image():
    a = M((0, 1), (0, 0))
    line = Subspace([(1, 0)], 2)
    assert line.maps_into(a, line)
    assert not Subspace([(0, 1)], 2).maps_into(a, Subspace([(0, 1)], 2))
    assert Subspace([], 2).maps_into(a, Subspace([], 2))
    assert Subspace.full(2).apply(a) == line


def test_quotient_and_modulo_in_the_coordinates_off_the_pivots():
    # W = span(e0 + e2): the quotient basis is the cosets of e1, e2
    a = M((1, 1, 0), (0, 2, 0), (0, 0, 1))
    w = Subspace([(1, 0, 1)], 3)
    assert w.maps_into(a, w)
    # a·e1 = e0 + 2 e1 = 2 e1 - e2 + (e0 + e2), and a·e2 = e2
    assert w.quotient(a) == M((2, 0), (-1, 1))
    assert w.quotient(M((0, 1, 0), (1, 0, 0), (0, 0, 1))) is None
    assert Subspace([(0, 1, 0)], 3).modulo(w) == Subspace([(1, 0)], 2)
    assert Subspace([(1, 0, 0)], 3).modulo(w) == Subspace([(0, -1)], 2)
    assert Subspace([], 3).quotient(a) == a
    with pytest.raises(ValueError):
        Subspace.full(3).quotient(a)


def test_subspace_eigenspaces_split_inside_the_subspace():
    # a acts on span(e1, e2) as [[3, 1], [0, 2]], so its pieces are not
    # coordinate lines; a root of the restriction lifts to W ∩ ker(a - r)
    a = M((3, 1, 0), (0, 2, 0), (0, 0, 5))
    plane = Subspace([(1, 0, 0), (0, 1, 0)], 3)
    restricted = plane.restriction(a)
    assert restricted == M((3, 1), (0, 2))
    for r in (2, 3):
        piece = plane.lift(kernel(restricted.shift(-r)))
        assert piece.dim == 1
        assert piece == plane.intersection(kernel(a.shift(-r)))
    line = Subspace([(0, 0, 1)], 3)
    assert line.restriction(a) == M((5,))
    assert line.lift(Subspace.full(1)) == line
    # a moves e2 out of its line
    assert Subspace([(0, 1, 0)], 3).restriction(a) is None


def test_restriction_is_in_the_echelon_basis():
    # W = span((1, 1, 0), (0, 1, 1)) has the echelon basis b1 = (1, 0, -1),
    # b2 = (0, 1, 1); a swaps e1 and e3, so a·b1 = -b1 and a·b2 = b1 + b2
    a = M((0, 0, 1), (0, 1, 0), (1, 0, 0))
    w = Subspace([(1, 1, 0), (0, 1, 1)], 3)
    assert w.basis == tuple(tuple(Scalar.rational(x) for x in b)
                            for b in ((1, 0, -1), (0, 1, 1)))
    assert w.restriction(a) == M((-1, 1), (0, 1))
    assert w.lift(Subspace.full(2)) == w
    assert w.lift(Subspace([], 2)).dim == 0
    with pytest.raises(ValueError):
        Subspace([], 3).restriction(a)
    with pytest.raises(ValueError):
        w.lift(Subspace.full(3))


@settings(max_examples=25, deadline=None)
@given(square_matrices(2), square_matrices(2), small_scalar)
def test_lifted_kernels_of_the_restriction_are_the_meets(top, bottom, r):
    # a = P (top ⊕ bottom) P^-1 keeps W = P·span(e1, e2) invariant
    p = M((1, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 1), (0, 0, 1, 2))
    block = M(*(list(top.rows[i]) + [0, 0] for i in range(2)),
              *([0, 0] + list(bottom.rows[i]) for i in range(2)))
    a = p * block * p.inverse()
    w = Subspace([p.column(0), p.column(1)], 4)
    restricted = w.restriction(a)
    assert restricted is not None
    assert w.lift(kernel(restricted.shift(-r))) == w.intersection(kernel(a.shift(-r)))


def test_matrix_diagonal():
    assert M((1, 0), (0, 2)).diagonal() == (ONE, Scalar.rational(2))
    assert M((0, 0), (0, 0)).diagonal() == (ZERO, ZERO)
    assert M((1, 1), (0, 2)).diagonal() is None
    assert M((0, 0), (1, 0)).diagonal() is None
    assert M((1, 0, 0), (0, 1, 0)).diagonal() is None


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
    a = M((1, 2), (0, 3))
    assert p.eval_matrix(a) == a * a + Matrix.identity(2)
    assert a.shift(ZERO) is a
    assert a.shift(-ONE) == a - Matrix.identity(2)


def test_polynomial_has_one_zero():
    zero = Polynomial([])
    assert zero == Polynomial([0]) == Polynomial([0, 0])
    assert hash(zero) == hash(Polynomial([0]))
    assert zero.coeffs == (ZERO,) and zero.degree == 0 and repr(zero) == "0"
    # deflating a constant leaves the zero quotient and the constant over
    q, rem = Polynomial([3]).deflate(ZETA)
    assert q == zero and rem == Scalar.rational(3)
    assert zero.deflate(1) == (zero, ZERO)


# ------------------------------------------------------------ value types

# each type's value built two ways: directly, and by another route
VALUES = {
    "Matrix": (lambda: M((1, 2), (3, 4)),
               lambda: M((1, 0), (1, 1)) * M((1, 2), (2, 2))),
    "Subspace": (lambda: Subspace([(1, 0, 1), (0, 1, 0)], 3),
                 lambda: Subspace([(1, 1, 1), (2, -1, 2)], 3)),
    "Polynomial": (lambda: Polynomial([1, 2]), lambda: Polynomial([1, 2, 0, 0])),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_frozen_and_compare_by_value(name):
    value, other = (make() for make in VALUES[name])
    for f in dataclasses.fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, None)
    # a frozen slotted dataclass may raise TypeError for a name it lacks
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert not hasattr(value, "extra")
    assert value is not other
    assert value == other and hash(value) == hash(other)
    # no value equals a non-instance, not even the data it holds
    assert value != getattr(value, dataclasses.fields(value)[-1].name)
    assert value != 0 and value != object()


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
        lambda: Subspace([{2: ONE}], 2),
        lambda: char_poly(wide),
        lambda: algebra_closure([Matrix.identity(2), Matrix.identity(3)]),
        lambda: algebra_closure([wide]),
        lambda: Matrix.identity(2) + Matrix.identity(3),
        lambda: Matrix.identity(2) - Matrix.identity(3),
        lambda: wide + wide.transpose(),
        lambda: wide.shift(ONE),
        lambda: mat_vec(Matrix.identity(3), vec((1, 2))),
        lambda: mat_vec(Matrix.identity(3), vec((1, 2, 3, 4))),
        lambda: solve(Matrix.identity(3), (1, 2)),
        lambda: solve(Matrix.identity(3), (1, 2, 3, 4)),
        lambda: Subspace([(1, 0, 0)], 3).contains((1, 0)),
        lambda: Subspace([(1, 0, 0)], 3).contains((1, 0, 0, 0)),
    ]
    for check in checks:
        with pytest.raises(ValueError):
            check()


# ------------------------------------- sparse kernel against the oracle
#
# Structured sparse inputs like the catalog's (permutation, diagonal and
# block-diagonal matrices, wide and tall systems with zero rows, and
# rank-deficient ones), checked exactly against the sympy oracle.

sparse_entry = st.sampled_from([ZERO, ZERO, ONE, -ONE]) | small_scalar
nonzero_entry = small_scalar.filter(lambda x: not x.is_zero())
sizes = st.integers(min_value=1, max_value=6)


@st.composite
def structured_square(draw):
    kind = draw(st.sampled_from(["permutation", "diagonal", "block", "deficient"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(draw(sizes))))
        n = len(perm)
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = draw(nonzero_entry)
        return Matrix(rows)
    if kind == "diagonal":
        diag = draw(st.lists(sparse_entry, min_size=1, max_size=6))
        return Matrix([[x if i == j else ZERO for j in range(len(diag))]
                       for i, x in enumerate(diag)])
    if kind == "block":
        a, b = (draw(st.integers(1, 3)) for _ in range(2))
        top = draw(st.lists(st.lists(sparse_entry, min_size=a, max_size=a),
                            min_size=a, max_size=a))
        bottom = draw(st.lists(st.lists(sparse_entry, min_size=b, max_size=b),
                               min_size=b, max_size=b))
        return Matrix.block([[Matrix(top), Matrix.zero(a, b)],
                             [Matrix.zero(b, a), Matrix(bottom)]])
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n - 1))
    rows = draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                         min_size=r, max_size=r))
    while len(rows) < n:
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        rows.append([x + y for x, y in zip(rows[i], rows[j])])
    return Matrix(draw(st.permutations(rows)))


@st.composite
def structured_matrices(draw):
    """Square structured matrices, or wide and tall ones with zero rows."""
    if draw(st.booleans()):
        return draw(structured_square())
    m, n = draw(sizes), draw(sizes)
    rows = draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m - 1)):
        rows[i] = [ZERO] * n
    return Matrix(rows)


def sym_rows(mat):
    return matrix_to_sympy(mat).tolist()


def leading(row):
    return next(j for j, x in enumerate(row) if sympy.simplify(x) != 0)


def oracle_rank(rows):
    return len(oracle_rref(rows))


@settings(max_examples=12, deadline=None)
@given(structured_matrices())
def test_sparse_rref_and_kernel_match_oracle(a):
    rows = sym_rows(a)
    assert sym_rows_equal(Subspace(a.rows, a.n).basis, oracle_rref(rows))
    assert sym_rows_equal(kernel(a).basis, oracle_kernel(rows, a.n))


@settings(max_examples=12, deadline=None)
@given(structured_square())
def test_sparse_det_and_inverse_match_oracle(a):
    n = a.n
    assert sym_equal(to_sympy(a.det()), matrix_to_sympy(a).det())
    if n > 1:  # swapping the first and last rows flips the sign
        swapped = Matrix((a.rows[-1],) + a.rows[1:-1] + (a.rows[0],))
        assert swapped.det() == -a.det()
    d, inv = a.det_inverse()
    assert d == a.det()
    # Gauss-Jordan on [A | I]: A is invertible iff every pivot is on the left
    eye = sympy.eye(n).tolist()
    reduced = oracle_rref([r + e for r, e in zip(sym_rows(a), eye)])
    if leading(reduced[-1]) >= n:
        assert inv is None and d.is_zero()
    else:
        assert sym_rows_equal(inv.rows, [r[n:] for r in reduced])


@settings(max_examples=10, deadline=None)
@given(structured_matrices(), st.data())
def test_sparse_solve_matches_oracle(a, data):
    n = a.n
    x = data.draw(st.lists(sparse_entry, min_size=n, max_size=n))
    b = mat_vec(a, tuple(x))
    # the solution read off the reduced echelon form of [A | b]: free unknowns 0
    expected = [sympy.Integer(0)] * n
    for row in oracle_rref([r + [to_sympy(y)] for r, y in zip(sym_rows(a), b)]):
        expected[leading(row)] = row[n]
    assert sym_rows_equal([solve(a, b)], [expected])
    off = [ZERO] * a.m
    off[data.draw(st.integers(0, a.m - 1))] = ONE
    columns = matrix_to_sympy(a).T.tolist()
    consistent = oracle_rank(columns + [[to_sympy(y) for y in off]]) == oracle_rank(columns)
    if consistent:
        assert mat_vec(a, solve(a, tuple(off))) == tuple(off)
    else:
        with pytest.raises(NoSolution):
            solve(a, tuple(off))


@settings(max_examples=15, deadline=None)
@given(structured_matrices(), structured_matrices(), st.data())
def test_sparse_products_match_oracle(a, b, data):
    v = data.draw(st.lists(sparse_entry, min_size=a.n, max_size=a.n))
    product = matrix_to_sympy(a) * sympy.Matrix([to_sympy(x) for x in v])
    assert sym_rows_equal([mat_vec(a, tuple(v))], [list(product)])
    # b cut or padded with zero rows to a.n rows
    b = Matrix([b.rows[i] if i < b.m else (ZERO,) * b.n for i in range(a.n)])
    assert sym_rows_equal((a * b).rows,
                          (matrix_to_sympy(a) * matrix_to_sympy(b)).tolist())


@settings(max_examples=6, deadline=None)
@given(structured_matrices(), structured_matrices(), st.data())
def test_sparse_intersection_and_contains_match_oracle(a, b, data):
    n = a.n
    b = Matrix([row[:n] + (ZERO,) * (n - len(row)) for row in b.rows])
    u, w = Subspace(a.rows, n), Subspace(b.rows, n)
    # U ∩ W from the oracle: the kernel of [A^T | -B^T] gives the combinations
    rows_a, rows_b = sym_rows(a), sym_rows(b)
    system = [list(col) for col in zip(*rows_a, *[[-x for x in r] for r in rows_b])]
    combos = oracle_kernel(system, a.m + b.m)
    meet = [list(matrix_to_sympy(a).T * sympy.Matrix(c[:a.m])) for c in combos]
    assert sym_rows_equal(u.intersection(w).basis, oracle_rref(meet))
    v = data.draw(st.lists(sparse_entry, min_size=n, max_size=n))
    in_span = oracle_rank(rows_a + [[to_sympy(x) for x in v]]) == oracle_rank(rows_a)
    assert u.contains(tuple(v)) == in_span


def matrix_unit(n, i, j):
    return Matrix([[ONE if (r, c) == (i, j) else ZERO for c in range(n)]
                   for r in range(n)])


@settings(max_examples=5, deadline=None)
@given(st.lists(structured_square().filter(lambda g: g.n <= 3), min_size=1, max_size=2)
       .filter(lambda gs: len({g.n for g in gs}) == 1))
def test_algebra_closure_is_rref_basis_of_its_span(gens):
    n = gens[0].n
    basis = algebra_closure(gens)
    vectors = [matrix_to_vec(b) for b in basis]
    assert len(basis) == oracle_algebra_dimension(gens)
    assert Subspace(vectors, n * n).basis == tuple(vectors)
    words = [[to_sympy(x) for x in matrix_to_vec(w)]
             for w in [Matrix.identity(n), *gens, *(g * h for g in gens for h in gens)]]
    assert sym_rows_equal(vectors, oracle_rref(words + [[to_sympy(x) for x in v]
                                                        for v in vectors]))


def test_algebra_closure_proper_is_reduced():
    # diag(1, 2) and a nilpotent corner: the upper triangular 2x2 matrices
    basis = algebra_closure([M((1, 0), (0, 2)), M((0, 1), (0, 0))])
    assert basis == [matrix_unit(2, 0, 0), matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)]
    # a swap beside sqrt2: minimal polynomial (x^2 - 1)(x - sqrt2), so dim 3
    swap = Matrix.block([[M((0, 1), (1, 0)), Matrix.zero(2, 1)],
                         [Matrix.zero(1, 2), M((SQRT2,))]])
    assert algebra_closure([swap]) == [M((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                                       M((0, 1, 0), (1, 0, 0), (0, 0, 0)),
                                       matrix_unit(3, 2, 2)]
    # E12 E23 = E13 is found only by multiplying E12, found before E23, by it
    path = [matrix_unit(3, 0, 1), matrix_unit(3, 1, 2)]
    assert algebra_closure(path) == [Matrix.identity(3), matrix_unit(3, 0, 1),
                                     matrix_unit(3, 0, 2), matrix_unit(3, 1, 2)]


@pytest.mark.parametrize("gens", [
    [M((0, 1), (0, 0)), M((0, 0), (1, 0))],
    [M((0, 1, 0), (0, 0, 1), (1, 0, 0)), M((1, 0, 0), (0, 2, 0), (0, 0, 3))],
    [M((ZETA, 1), (0, 1)), M((1, 0), (SQRT2, -1))],
])
def test_full_algebra_closure_is_matrix_units(gens):
    n = gens[0].n
    assert algebra_closure(gens) == [matrix_unit(n, i, j)
                                     for i in range(n) for j in range(n)]


# ------------------------------------------ invertible search: golden values
#
# The exact witness for one space per phase of the search, the number of
# candidates the reference search (a determinant on every candidate) tries
# before it, and the number of determinants the search itself computes,
# once the structural test has skipped the singular candidates.  A change
# to the search order, to the random draws or to the arithmetic shows up
# here.


def diag(*xs):
    return Matrix([[x if i == j else ZERO for j in range(len(xs))]
                   for i, x in enumerate(xs)])


def counted_search(monkeypatch, space, n, seed=None):
    calls = []
    det = Matrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    found = invertible_in_space(space, n, seed=seed)
    monkeypatch.setattr(Matrix, "det", det)
    return found, len(calls)


E = matrix_unit
GOLDEN_SEARCHES = {
    # phase: (basis, n, seed, witness, candidates tried, determinants tried)
    "single": ([E(2, 0, 0), M((0, 1), (SQRT2, 0))], 2, None,
               M((0, 1), (SQRT2, 0)), 2, 1),
    "pair_sum": ([E(2, 0, 0), E(2, 0, 1), E(2, 1, 0), E(2, 1, 1)], 2, None,
                 Matrix.identity(2), 9, 1),
    "pair_difference": ([M((0, 0, 1), (0, 0, 2), (-1, 1, 0)),
                         M((0, 0, 0), (1, 0, 1), (-1, -1, 0))], 3, None,
                        M((0, 0, 1), (-1, 0, 1), (0, 2, 0)), 4, 2),
    "grid": ([diag(ONE, ZERO, ONE, ONE) + E(4, 0, 1) * SQRT2, diag(0, 1, 1, -1)], 4, None,
             Matrix([[-2, Scalar.rational(-2) * SQRT2, 0, 0], [0, -1, 0, 0], [0, 0, -3, 0],
                     [0, 0, 0, -1]]), 6, 4),
    "random_after_grid": ([diag(1, 0, 1, 1, 1, 1, 2, 2), diag(0, 1, 1, -1, 2, -2, 1, -1)],
                          8, 3, diag(2, 5, 7, -3, 12, -8, 9, -1), 32, 21),
    "random": ([E(3, 0, 0), E(3, 0, 1), E(3, 0, 2), E(3, 1, 1) + E(3, 1, 2) * SQRT2,
                E(3, 2, 2)], 3, 5,
               M((4, -1, 0), (0, 5, Scalar.rational(5) * SQRT2), (0, 0, 3)), 26, 1),
}


@pytest.mark.parametrize("phase", sorted(GOLDEN_SEARCHES))
def test_invertible_in_space_golden(monkeypatch, phase):
    mats, n, seed, witness, candidates, determinants = GOLDEN_SEARCHES[phase]
    space = Subspace([matrix_to_vec(x) for x in mats], n * n)
    found, tried = counted_search(monkeypatch, space, n, seed)
    assert found == witness
    assert tried == determinants
    assert reference_invertible_search(space, n, seed) == (witness, candidates)


def test_invertible_in_space_rejects_a_space_of_the_wrong_size():
    # K^10 does not hold vectorised 3x3 matrices; the search must not drop
    # a coordinate and return a matrix outside the space
    with pytest.raises(ValueError):
        invertible_in_space(Subspace.full(10), 3)
    with pytest.raises(ValueError):
        invertible_in_space(Subspace.full(6), 2, 2)
    with pytest.raises(ValueError):
        structurally_singular(Subspace.full(10), 3)


# ------------------------------------- invertible search: structural test

# a nonzero pattern entry: a scalar of K with an irrational part now and then
pattern_scalar = st.sampled_from(
    [ONE, -ONE, Scalar.rational(2), SQRT2, I_UNIT, ZETA, ONE + SQRT2])


@st.composite
def sparse_spans(draw):
    """Spaces spanned by a few sparse n-by-n matrices over K, 2 <= n <= 5."""
    n = draw(st.integers(2, 5))
    entries = st.dictionaries(st.integers(0, n * n - 1), pattern_scalar,
                              min_size=n, max_size=2 * n)
    mats = draw(st.lists(entries, min_size=1, max_size=4))
    return Subspace(mats, n * n), n


ALL_ONES_2 = Subspace([{p: ONE for p in range(4)}], 4)


@settings(max_examples=60, deadline=None)
@given(sparse_spans(), st.integers(0, 2**16))
# singular only through cancellation: span(J), and the rank-one matrices
# (1, 1)^T (x, y), whose supports together match
@example((ALL_ONES_2, 2), 0)
@example((Subspace([matrix_to_vec(M((1, 0), (1, 0))),
                    matrix_to_vec(M((0, 1), (0, 1)))], 4), 2), 1)
def test_invertible_in_space_matches_the_reference_search(space_n, seed):
    space, n = space_n
    found = invertible_in_space(space, n, seed=seed)
    assert found == reference_invertible_search(space, n, seed)[0]
    if structurally_singular(space, n):
        assert found is None


@st.composite
def patterns(draw):
    """An n-by-n 0/1 pattern, n <= 6, as the set of its (row, column) cells."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
    return n, {(r, c) for r, mask in enumerate(masks) for c in range(n) if mask >> c & 1}


def cells(*rows):
    return len(rows), {(r, c) for r, row in enumerate(rows) for c in row}


@settings(max_examples=80, deadline=None)
@given(patterns(), st.lists(pattern_scalar, min_size=36, max_size=36))
# no perfect matching, found only if augmenting paths reassign their columns
@example(cells((1, 4), (0, 1, 2), (4, 5), (3, 4), (0,), (0,)), [SQRT2] * 36)
@example(cells((3,), (3, 4, 5), (0, 3, 5), (0, 1, 2, 3, 5), (0, 4, 5), (5,)), [ZETA] * 36)
def test_structurally_singular_patterns_have_zero_determinant(pattern, values):
    n, support = pattern
    fill = {r * n + c: values[6 * r + c] for r, c in support}
    singular = structurally_singular(Subspace([fill], n * n), n)
    # a perfect matching of the pattern is a permutation inside it
    assert singular == (not any(all((r, p[r]) in support for r in range(n))
                                for p in itertools.permutations(range(n))))
    if singular:
        assert sym_equal(oracle_det(vec_to_matrix(
            [fill.get(p, ZERO) for p in range(n * n)], n)), 0)


def test_structural_test_needs_no_recursion():
    # upper bidiagonal plus the corner (n-1, 0): the last row's first column
    # is taken, and the augmenting path from it runs through every row
    n = 3000
    cells = {r * n + c: ONE for r in range(n) for c in (r, r + 1) if c < n}
    cells[(n - 1) * n] = ONE
    assert not structurally_singular(Subspace([cells], n * n), n)
    del cells[(n - 1) * n + n - 1]  # the last row keeps column 0 alone
    assert not structurally_singular(Subspace([cells], n * n), n)


def test_all_singular_space_with_full_support_is_searched():
    # every element of span(J) is singular, but its support matches
    assert not structurally_singular(ALL_ONES_2, 2)
    assert invertible_in_space(ALL_ONES_2, 2) is None
    # the zero space and the nilpotent corner are singular by their supports
    assert structurally_singular(Subspace([], 4), 2)
    assert structurally_singular(Subspace([matrix_to_vec(E(2, 0, 1))], 4), 2)


# ------------------------------------------------------------ nonzero rows
#
# A Matrix is its rows {column: nonzero Scalar}, and equality and hashing
# read them.  Every producer must store exactly the nonzero entries, and
# reading a matrix must not change its rows.

k_entry = (st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, SQRT2, I_UNIT, ZETA])
           | small_scalar)


def k_matrices(m, n):
    return st.lists(st.lists(k_entry, min_size=n, max_size=n),
                    min_size=m, max_size=m).map(Matrix)


def rows_are_exact(mat):
    return (len(mat._nonzero) == mat.m
            and all(0 <= j < mat.n and not x.is_zero()
                    for row in mat._nonzero for j, x in row.items())
            and mat._nonzero == tuple(_sparse(row) for row in mat.rows))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rows_hold_exactly_the_nonzero_entries_for_every_producer(data):
    m, k, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    a = data.draw(k_matrices(m, k))
    b, c = data.draw(k_matrices(k, n)), data.draw(k_matrices(k, n))
    # [a | a] [b; c - b] = a c: every term of a b cancels against a term of -a b
    cancelling = Matrix.block([[a, a]]) * Matrix.block([[b], [c - b]])
    assert cancelling == a * c
    produced = [a * b, cancelling, a * c]
    flat = {p: x for p, x in enumerate(matrix_to_vec(a)) if not x.is_zero()}
    assert _to_matrix(flat, m, k) == a
    produced.append(_to_matrix(flat, m, k))
    s = data.draw(k_matrices(n, n))
    _, inv = s.det_inverse()
    if inv is not None:
        assert inv * s == Matrix.identity(n)
        produced += [inv, s.inverse()]
    shift = data.draw(k_entry)
    assert s.shift(shift) == s + Matrix.scalar(n, shift)
    produced.append(s.shift(shift))
    # char_poly reduces to Hessenberg form in place of forming products
    products = []
    mul = Matrix.__mul__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "__mul__", lambda x, y: products.append(y) or mul(x, y))
        char_poly(s)
    assert products == []
    if n <= 3:
        produced += algebra_closure([s, data.draw(k_matrices(n, n))])
    for mat in produced:
        assert rows_are_exact(mat)


def outcome(call):
    try:
        return call()
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_readers_leave_the_rows_unchanged(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    a = data.draw(k_matrices(m, n))
    s = data.draw(k_matrices(n, n))
    v = tuple(data.draw(st.lists(k_entry, min_size=n, max_size=n)))
    rhs = tuple(data.draw(st.lists(k_entry, min_size=m, max_size=m)))
    calls = [lambda: kernel(a), lambda: solve(a, rhs), lambda: mat_vec(a, v),
             lambda: a * s, s.det, s.inverse, s.det_inverse, lambda: s * s,
             lambda: char_poly(s)]
    rows = [{**row} for x in (a, s) for row in x._nonzero]
    for call in calls:
        first = outcome(call)
        assert outcome(call) == first
        assert [row for x in (a, s) for row in x._nonzero] == rows
    assert rows_are_exact(a) and rows_are_exact(s)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_produced_matrices_equal_and_hash_as_their_dense_rows(data):
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(k_matrices(n, n)), data.draw(k_matrices(n, n))
    produced = [a * b, a.shift(data.draw(k_entry)), -a, a - a, a + b]
    flat = {p: x for p, x in enumerate(matrix_to_vec(a)) if not x.is_zero()}
    produced.append(_to_matrix(flat, n, n))
    _, inv = a.det_inverse()
    if inv is not None:
        produced += [inv, inv * a]
    for mat in produced:
        dense = Matrix(mat.rows)
        assert mat == dense and hash(mat) == hash(dense)
    # zero matrices of different widths differ although no row has an entry
    assert Matrix.zero(n, n) != Matrix.zero(n, n + 1)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_apply_matches_the_dense_images(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    vectors = data.draw(st.lists(st.lists(k_entry, min_size=n, max_size=n), max_size=4))
    space = Subspace(vectors, n)
    for mat in (data.draw(k_matrices(n, n)), data.draw(k_matrices(m, n))):
        assert space.apply(mat) == reference_apply(space, mat)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_maps_into_matches_the_image_subspace(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    for rows in (n, m):
        mat = data.draw(k_matrices(rows, n))
        w = Subspace(data.draw(st.lists(st.lists(k_entry, min_size=n, max_size=n),
                                        max_size=3)), n)
        # a target that holds the image half the time
        extra = data.draw(st.lists(st.lists(k_entry, min_size=rows, max_size=rows),
                                   max_size=2))
        t = Subspace(extra + (list(w.apply(mat).basis) if data.draw(st.booleans()) else []),
                     rows)
        assert w.maps_into(mat, t) == t.contains_space(w.apply(mat))


@pytest.mark.parametrize("n", [1, 3])
def test_annihilator_swaps_zero_and_whole_space(n):
    zero, whole = Subspace([], n), Subspace.full(n)
    assert zero.annihilator() == whole
    assert whole.annihilator() == zero


@settings(max_examples=12, deadline=None)
@given(structured_matrices())
def test_annihilator_matches_oracle_kernel(a):
    # the rows of a span W; its annihilator is the kernel of those rows
    w = Subspace(a.rows, a.n)
    ann = w.annihilator()
    assert ann.dim == a.n - w.dim
    assert all(sum((f.get(j, ZERO) * x for j, x in v.items()), ZERO).is_zero()
               for f in ann.rows for v in w.rows)
    assert sym_rows_equal(ann.basis, oracle_kernel(sym_rows(a), a.n))


# ------------------------------- char_poly and closure against references
#
# char_poly reduces to Hessenberg form, and algebra_closure skips generators
# already in its span; both must give exactly what their references give.

k_nonzero = k_entry.filter(lambda x: not x.is_zero())


@st.composite
def hessenberg_cases(draw, n=None):
    """Square K matrices (n <= 6 unless given) of the shapes the Hessenberg
    reduction treats differently."""
    n = draw(st.integers(1, 6)) if n is None else n
    kind = draw(st.sampled_from(["diagonal", "permutation", "block", "companion",
                                 "zero subdiagonal", "swap", "dense"]))
    if kind == "diagonal":
        return Matrix([[draw(k_entry) if i == j else ZERO for j in range(n)]
                       for i in range(n)])
    if kind == "permutation":
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in enumerate(draw(st.permutations(range(n)))):
            rows[i][j] = draw(k_nonzero)
        return Matrix(rows)
    if kind == "companion":
        c = draw(st.lists(k_entry, min_size=n, max_size=n))
        return Matrix([[ONE if i == j + 1 else ZERO for j in range(n - 1)] + [-c[i]]
                       for i in range(n)])
    if kind == "block" and n > 1:
        a = draw(st.integers(1, n - 1))
        return Matrix.block([[draw(k_matrices(a, a)), Matrix.zero(a, n - a)],
                             [Matrix.zero(n - a, a), draw(k_matrices(n - a, n - a))]])
    rows = [list(row) for row in draw(k_matrices(n, n)).rows]
    if kind == "zero subdiagonal" and n > 1:
        # block upper triangular: column a - 1 stays zero from row a down, so
        # the reduction skips it and the recurrence meets h[a][a-1] = 0
        a = draw(st.integers(1, n - 1))
        for i in range(a, n):
            rows[i][:a] = [ZERO] * a
    if kind == "swap" and n > 2:
        # h[1][0] = 0 below a nonzero entry further down: the first step swaps
        rows[1][0] = ZERO
        rows[draw(st.integers(2, n - 1))][0] = draw(k_nonzero)
    return Matrix(rows)


@settings(max_examples=80, deadline=None)
@given(hessenberg_cases())
# a row/column swap: at the first column, and at the second after a plain step
@example(M((1, 0, ZETA), (0, SQRT2, 1), (4, 1, 0)))
@example(M((1, 2, 0, 0), (3, 0, 1, 0), (0, 0, 1, 2), (0, 5, I_UNIT, 1)))
# a zero subdiagonal: a column with nothing to clear, before one to clear
@example(M((1, 2, 3), (0, ZETA, 5), (0, 0, 6)))
@example(M((2, 1, 0, 1), (0, 1, 3, 0), (0, 2, SQRT2, 1), (0, 1, 0, 2)))
def test_char_poly_matches_faddeev_leverrier(a):
    assert char_poly(a).coeffs == reference_char_poly(a).coeffs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_algebra_closure_ignores_generator_order_and_products(data):
    n = data.draw(st.integers(1, 3))
    # scaled matrix units give path algebras, where a product missed shows
    units = st.builds(lambda p, x: _to_matrix({p: x}, n, n),
                      st.integers(0, n * n - 1), k_nonzero)
    gens = data.draw(st.lists(hessenberg_cases(n) | units, min_size=1, max_size=3))
    basis = algebra_closure(gens)
    assert basis == reference_algebra_closure(gens)
    assert algebra_closure(data.draw(st.permutations(gens))) == basis
    extended = list(gens)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, len(extended) - 1)) for _ in range(2))
        extended.append(extended[i] * extended[j])
    assert algebra_closure(extended) == basis
    assert algebra_closure(data.draw(st.permutations(extended))) == basis
