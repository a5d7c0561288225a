import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from totsym.field import I_UNIT, ONE, SQRT2, ZERO, ZETA, Scalar
from totsym.linalg import (
    Matrix,
    Polynomial,
    Subspace,
    algebra_closure,
    char_poly,
    intertwiner_space,
    invertible_in_space,
    kernel,
    mat_vec,
    matrix_to_vec,
    null_space,
    structurally_singular,
    transport_space,
    vec,
    vec_to_matrix,
)
from totsym import catalog, linalg
from totsym.linalg import _sparse, _to_matrix

from oracles import (
    K,
    k_matrix,
    k_rows,
    k_span,
    oracle_algebra_dimension,
    oracle_det,
    oracle_intertwiner_dimension,
    oracle_kernel,
    oracle_meet,
    oracle_rref,
    reference_algebra_closure,
    reference_apply,
    reference_char_poly,
    reference_invertible_search,
    reference_polynomial_at,
    sylvester_system,
    to_k,
    transport_system,
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
    assert [row[1] for row in a.rows] == [Scalar.rational(2), Scalar.rational(5)]
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


def test_matrix_from_its_nonzero_rows_and_a_sparse_vectorisation():
    m = M((1, 0, 2), (0, 0, 0))
    two = Scalar.rational(2)
    assert m.nonzero_rows == ({0: ONE, 2: two}, {})
    assert Matrix.from_nonzero_rows(m.nonzero_rows, 3) == m
    # a sparse vector reads as its dense form does; a zero entry is dropped
    assert vec_to_matrix({0: ONE, 2: two, 4: ZERO}, 2, 3) == m
    assert vec_to_matrix({0: ONE, 2: two, 4: ZERO}, 2, 3).nonzero_rows == m.nonzero_rows
    with pytest.raises(ValueError):
        vec_to_matrix({6: ONE}, 2, 3)


def test_mat_vec_coerces_plain_numbers():
    assert mat_vec(M((1, 2), (3, 4)), (1, 0)) == vec((1, 3))
    assert mat_vec(M((1, 2), (3, 4)), [0, Fraction(1, 2)]) == vec((1, Fraction(2)))


@settings(max_examples=20, deadline=None)
@given(square_matrices(3))
def test_det_matches_oracle(a):
    assert to_k(a.det()) == oracle_det(a)


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
    assert to_k(inv.rows[0][0]) == K.one / to_k(ZETA)


# -------------------------------------------------------------- kernels


@settings(max_examples=20, deadline=None)
@given(square_matrices(3))
def test_kernel_matches_oracle(a):
    ker = kernel(a)
    assert ker.dim == 3 - k_matrix(a).rank()
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
    assert u.contains_space(Subspace([(3, -2, 1)], 3))
    assert not u.contains_space(Subspace([(0, 0, 1)], 3))


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
    assert u.contains_space(cap) and w.contains_space(cap)


def test_invariance_and_image():
    a = M((0, 1), (0, 0))
    line = Subspace([(1, 0)], 2)
    assert line.maps_into(a, line)
    assert not Subspace([(0, 1)], 2).maps_into(a, Subspace([(0, 1)], 2))
    assert Subspace([], 2).maps_into(a, Subspace([], 2))
    assert reference_apply(Subspace.full(2), a) == line


def test_quotient_and_modulo_in_the_coordinates_off_the_pivots():
    # W = span(e0 + e2): the quotient basis is the cosets of e1, e2
    a = M((1, 1, 0), (0, 2, 0), (0, 0, 1))
    w = Subspace([(1, 0, 1)], 3)
    assert w.maps_into(a, w)
    # a·(e0 + e2) = e0 + e2; a·e1 = e0 + 2 e1 = 2 e1 - e2 + (e0 + e2), and
    # a·e2 = e2
    assert w.blocks([a]) == ([M((1,))], [M((2, 0), (-1, 1))])
    assert w.blocks([a, M((0, 1, 0), (1, 0, 0), (0, 0, 1))]) is None
    assert Subspace([(0, 1, 0)], 3).modulo(w) == Subspace([(1, 0)], 2)
    assert Subspace([(1, 0, 0)], 3).modulo(w) == Subspace([(0, -1)], 2)
    with pytest.raises(ValueError):
        Subspace.full(3).blocks([a])


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
    w = Subspace([[row[j] for row in p.rows] for j in (0, 1)], 4)
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


def test_polynomial_eval_and_repr():
    p = Polynomial([1, 0, 1])  # x^2 + 1
    assert p(I_UNIT).is_zero()
    assert p(ONE) == Scalar.rational(2)
    assert Polynomial([0, 0, 0]) == Polynomial([0])
    assert "x" in repr(p)
    a = M((1, 2), (0, 3))
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


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_intertwiner_dimension_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    as_, bs = (data.draw(st.lists(square_matrices(n), min_size=1, max_size=2))
               for _ in range(2))
    k = min(len(as_), len(bs))
    as_, bs = as_[:k], bs[:k]
    space = intertwiner_space(as_, bs)
    assert space.dim == oracle_intertwiner_dimension(as_, bs)
    for v in space.basis:
        x = vec_to_matrix(v, n)
        for a, b in zip(as_, bs):
            assert x * a == b * x


def test_intertwiner_rectangular():
    # X (1x2) with X * A = b * X for A = diag(1, 2), b = [2]
    a = M((1, 0), (0, 2))
    b = M((2,),)
    space = intertwiner_space([a], [b])
    assert space.dim == 1
    assert space.basis[0] == (ZERO, ONE)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(square_matrices(n), min_size=1, max_size=2)))
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
            assert span.contains_space(Subspace([matrix_to_vec(x * y)], 4))
    assert span.contains_space(Subspace([matrix_to_vec(Matrix.identity(2))], 4))


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
    a = invertible_in_space(space, 2)
    b = invertible_in_space(space, 2)
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
        lambda: line.maps_into(Matrix.identity(3), Subspace.full(3)),
        lambda: Subspace([{2: ONE}], 2),
        lambda: char_poly(wide),
        lambda: algebra_closure([Matrix.identity(2), Matrix.identity(3)]),
        lambda: algebra_closure([wide]),
        lambda: Matrix.identity(2) + Matrix.identity(3),
        lambda: Matrix.identity(2) - Matrix.identity(3),
        lambda: wide + wide.transpose(),
        lambda: Matrix([[]]).transpose(),
        lambda: wide.shift(ONE),
        lambda: mat_vec(Matrix.identity(3), vec((1, 2))),
        lambda: mat_vec(Matrix.identity(3), vec((1, 2, 3, 4))),
        lambda: Subspace([(1, 0, 0)], 3).contains_space(line),
        lambda: line.contains_space(Subspace([(1, 0, 0)], 3)),
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
def structured_square(draw, n=None):
    """A permutation, diagonal, block diagonal or rank deficient square
    matrix, n-by-n or of a drawn size up to 6."""
    kinds = ["permutation", "diagonal", "block", "deficient"]
    kind = draw(st.sampled_from(kinds if n != 1 else kinds[:2]))
    if kind == "permutation":
        perm = draw(st.permutations(range(draw(sizes) if n is None else n)))
        n = len(perm)
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = draw(nonzero_entry)
        return Matrix(rows)
    if kind == "diagonal":
        diag = draw(st.lists(sparse_entry, min_size=n or 1, max_size=n or 6))
        return Matrix([[x if i == j else ZERO for j in range(len(diag))]
                       for i, x in enumerate(diag)])
    if kind == "block":
        if n is None:
            a, b = (draw(st.integers(1, 3)) for _ in range(2))
        else:
            a = draw(st.integers(max(1, n - 3), min(3, n - 1)))
            b = n - a
        top = draw(st.lists(st.lists(sparse_entry, min_size=a, max_size=a),
                            min_size=a, max_size=a))
        bottom = draw(st.lists(st.lists(sparse_entry, min_size=b, max_size=b),
                               min_size=b, max_size=b))
        return Matrix.block([[Matrix(top), Matrix.zero(a, b)],
                             [Matrix.zero(b, a), Matrix(bottom)]])
    n = draw(st.integers(2, 6)) if n is None else n
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


def column(v):
    return Matrix.from_columns([v])


@settings(max_examples=12, deadline=None)
@given(structured_matrices())
def test_sparse_rref_and_kernel_match_oracle(a):
    ka = k_matrix(a)
    assert k_rows(Subspace(a.rows, a.n).basis) == oracle_rref(ka)
    assert k_rows(kernel(a).basis) == oracle_kernel(ka)


@settings(max_examples=12, deadline=None)
@given(structured_square())
def test_sparse_det_and_inverse_match_oracle(a):
    n = a.n
    assert to_k(a.det()) == oracle_det(a)
    if n > 1:  # swapping the first and last rows flips the sign
        swapped = Matrix((a.rows[-1],) + a.rows[1:-1] + (a.rows[0],))
        assert swapped.det() == -a.det()
    d, inv = a.det_inverse()
    assert d == a.det()
    # Gauss-Jordan on [A | I]: A is invertible iff every pivot is on the left
    reduced, pivots = k_matrix(a).hstack(k_matrix(Matrix.identity(n))).rref()
    if pivots[-1] >= n:
        assert inv is None and d.is_zero()
    else:
        assert k_rows(inv.rows) == reduced[:, n:].to_list()


@settings(max_examples=15, deadline=None)
@given(structured_matrices(), structured_matrices(), st.data())
def test_sparse_products_match_oracle(a, b, data):
    v = data.draw(st.lists(sparse_entry, min_size=a.n, max_size=a.n))
    product = k_matrix(a) * k_matrix(column(v))
    assert k_rows([mat_vec(a, tuple(v))]) == product.transpose().to_list()
    # b cut or padded with zero rows to a.n rows
    b = Matrix([b.rows[i] if i < b.m else (ZERO,) * b.n for i in range(a.n)])
    assert k_rows((a * b).rows) == (k_matrix(a) * k_matrix(b)).to_list()


@settings(max_examples=6, deadline=None)
@given(structured_matrices(), structured_matrices(), st.data())
def test_sparse_intersection_and_contains_match_oracle(a, b, data):
    n = a.n
    b = Matrix([row[:n] + (ZERO,) * (n - len(row)) for row in b.rows])
    u, w = Subspace(a.rows, n), Subspace(b.rows, n)
    ka = k_matrix(a)
    assert k_rows(u.intersection(w).basis) == oracle_meet(ka, k_matrix(b))
    v = data.draw(st.lists(sparse_entry, min_size=n, max_size=n))
    in_span = ka.vstack(k_matrix(Matrix([v]))).rank() == ka.rank()
    assert u.contains_space(Subspace([v], n)) == in_span


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
    words = [matrix_to_vec(w)
             for w in [Matrix.identity(n), *gens, *(g * h for g in gens for h in gens)]]
    assert k_rows(vectors) == oracle_rref(k_matrix(Matrix(words + vectors)))


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
# The exact witness for one space per path of the search, the number of
# candidates the reference search (a determinant on every candidate) tries
# before it, and the number of determinants the search itself computes,
# which skips the singles with fewer than n cells.  A change
# to the search order, to the random draws or to the arithmetic shows up
# here.  A coordinate space is decided by a perfect matching of its cells,
# which is the search's own choice, so its witness is checked by what any
# such choice gives: a permutation matrix on unit matrices of the space.


def diag(*xs):
    return Matrix([[x if i == j else ZERO for j in range(len(xs))]
                   for i, x in enumerate(xs)])


def counted_search(monkeypatch, space, n):
    calls = []
    det = Matrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    found = invertible_in_space(space, n)
    monkeypatch.setattr(Matrix, "det", det)
    return found, len(calls)


E = matrix_unit
GOLDEN_SEARCHES = {
    # phase: (basis, n, witness, candidates tried, determinants tried)
    "single": ([E(2, 0, 0), M((0, 1), (SQRT2, 0))], 2,
               M((0, 1), (SQRT2, 0)), 2, 1),
    # a coordinate space: witness and candidates None
    "coordinate": ([E(2, 0, 0), E(2, 0, 1), E(2, 1, 0), E(2, 1, 1)], 2,
                   None, None, 0),
    # both singles and the first draw are singular by their determinants
    "random_after_singles": ([M((0, 0, 1), (0, 0, 2), (-1, 1, 0)),
                              M((0, 0, 0), (1, 0, 1), (-1, -1, 0))], 3,
                             M((0, 0, -5), (-1, 0, -11), (6, -4, 0)), 4, 4),
    # one single has n cells, the other fewer and is not tried
    "random_after_one_single": (
        [diag(ONE, ZERO, ONE, ONE) + E(4, 0, 1) * SQRT2, diag(0, 1, 1, -1)], 4,
        Matrix([[-5, Scalar.rational(-5) * SQRT2, 0, 0], [0, -1, 0, 0], [0, 0, -6, 0],
                [0, 0, 0, -4]]), 4, 3),
    # no basis row has n cells: the draws alone
    "random_without_singles": (
        [diag(1, 0, 1, 1, 1, 1, 2, 2), diag(0, 1, 1, -1, 2, -2, 1, -1)],
        8, diag(-5, -1, -6, -4, -7, -3, -11, -9), 4, 2),
    "random": ([E(3, 0, 0), E(3, 0, 1), E(3, 0, 2), E(3, 1, 1) + E(3, 1, 2) * SQRT2,
                E(3, 2, 2)], 3,
               M((1, 1, -5), (0, -1, -SQRT2), (0, 0, 3)), 6, 1),
}


def is_coordinate(space):
    return bool(space.rows) and all(len(row) == 1 for row in space.rows)


def assert_permutation_of_units(found, space, n):
    """found has one 1 in each row and column, and each of those cells is a
    unit matrix of the basis of the coordinate space."""
    rows = found.nonzero_rows
    assert all(len(row) == 1 and set(row.values()) == {ONE} for row in rows)
    assert sorted(c for row in rows for c in row) == list(range(n))
    assert all({r * n + c: ONE} in space.rows for r, row in enumerate(rows) for c in row)


@pytest.mark.parametrize("phase", sorted(GOLDEN_SEARCHES))
def test_invertible_in_space_golden(monkeypatch, phase):
    mats, n, witness, candidates, determinants = GOLDEN_SEARCHES[phase]
    space = Subspace([matrix_to_vec(x) for x in mats], n * n)
    found, tried = counted_search(monkeypatch, space, n)
    assert tried == determinants
    if witness is None:
        assert is_coordinate(space)
        assert_permutation_of_units(found, space, n)
    else:
        assert found == witness
        assert reference_invertible_search(space, n) == (witness, candidates)


def test_invertible_in_space_rejects_a_space_of_the_wrong_size():
    # K^10 does not hold vectorised 3x3 matrices; the search must not drop
    # a coordinate and return a matrix outside the space
    with pytest.raises(ValueError):
        invertible_in_space(Subspace.full(10), 3)
    with pytest.raises(ValueError):
        invertible_in_space(Subspace.full(6), 2)
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
@given(sparse_spans())
# singular only through cancellation: span(J), and the rank-one matrices
# (1, 1)^T (x, y), whose supports together match
@example((ALL_ONES_2, 2))
@example((Subspace([matrix_to_vec(M((1, 0), (1, 0))),
                    matrix_to_vec(M((0, 1), (0, 1)))], 4), 2))
# coordinate spaces, with and without a perfect matching of their cells
@example((Subspace([{0: ONE}, {1: ONE}, {2: ONE}], 4), 2))
@example((Subspace([{0: ONE}, {2: ONE}], 4), 2))
def test_invertible_in_space_matches_the_reference_search(space_n):
    space, n = space_n
    found = assert_matches_the_reference(space, n)
    if structurally_singular(space, n):
        assert found is None


def assert_matches_the_reference(space, n):
    """The search's witness is the dense reference search's, or for a
    coordinate space a permutation matrix on its units, found exactly when
    the cells of some permutation are all units of the space."""
    found = invertible_in_space(space, n)
    if not is_coordinate(space):
        assert found == reference_invertible_search(space, n)[0]
    elif any(all({r * n + p[r]: ONE} in space.rows for r in range(n))
             for p in itertools.permutations(range(n))):
        assert_permutation_of_units(found, space, n)
    else:
        assert found is None
    return found


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
        assert oracle_det(vec_to_matrix(
            [fill.get(p, ZERO) for p in range(n * n)], n)) == K.zero


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


def coordinate_space(n, cells):
    """The span of the unit matrices e_rc at the (r, c) cells given."""
    return Subspace([{r * n + c: ONE} for r, c in cells], n * n)


def test_coordinate_spaces_are_decided_exactly(monkeypatch):
    # the cells of one permutation of 120: every random draw would miss a
    # cell with probability 1 - (10/11)^120, and the matching gives the
    # permutation matrix, the one invertible element up to scaling its
    # cells, with no determinant
    n = 120
    perm = [(7 * r + 3) % n for r in range(n)]
    space = coordinate_space(n, [(r, perm[r]) for r in range(n)])
    assert not structurally_singular(space, n)
    found, dets = counted_search(monkeypatch, space, n)
    assert dets == 0
    assert found == Matrix(
        [[ONE if c == perm[r] else ZERO for c in range(n)] for r in range(n)])
    # more cells: still the permutation matrix of one perfect matching
    extra = [(r, perm[r]) for r in range(n)] + [(r, (r + 1) % n) for r in range(0, n, 2)]
    found, dets = counted_search(monkeypatch, coordinate_space(n, extra), n)
    assert dets == 0
    assert found is not None and not found.det().is_zero()
    assert all(len(row) == 1 and (r, *row) in set(extra) for r, row in enumerate(found._nonzero))
    # no perfect matching: two rows share their one column
    cells = [(r, perm[r]) for r in range(n - 1)] + [(n - 1, perm[0])]
    assert structurally_singular(coordinate_space(n, cells), n)
    assert counted_search(monkeypatch, coordinate_space(n, cells), n) == (None, 0)


@st.composite
def narrow_spans(draw):
    """Spaces spanned by a few matrices with fewer than n nonzero cells."""
    n = draw(st.integers(2, 5))
    entries = st.dictionaries(st.integers(0, n * n - 1), pattern_scalar,
                              min_size=1, max_size=n - 1)
    mats = draw(st.lists(entries, min_size=1, max_size=6))
    return Subspace(mats, n * n), n


@settings(max_examples=40, deadline=None)
@given(narrow_spans())
def test_narrow_spaces_match_the_reference_search(space_n):
    # skipping the singles skips only singular candidates
    space, n = space_n
    assert_matches_the_reference(space, n)


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
    calls = [lambda: kernel(a), lambda: mat_vec(a, v),
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
        image = reference_apply(w, mat)
        t = Subspace(extra + (list(image.basis) if data.draw(st.booleans()) else []),
                     rows)
        assert w.maps_into(mat, t) == t.contains_space(image)


@pytest.mark.parametrize("n", [1, 3])
def test_annihilator_swaps_zero_and_whole_space(n):
    zero, whole = Subspace([], n), Subspace.full(n)
    assert zero.annihilator() == whole
    assert whole.annihilator() == zero


def test_annihilator_is_kept_and_takes_no_part_in_equality():
    w = Subspace([(1, 2, 0), (0, 1, 1)], 3)
    same = Subspace([(1, 3, 1), (0, 1, 1)], 3)
    ann = w.annihilator()
    # only w has its annihilator: the two still compare and hash equal
    assert w == same and hash(w) == hash(same)
    assert w.annihilator() == ann == same.annihilator()
    assert ann == Subspace([(2, -1, 1)], 3)


@settings(max_examples=12, deadline=None)
@given(structured_matrices())
def test_annihilator_matches_oracle_kernel(a):
    # the rows of a span W; its annihilator is the kernel of those rows
    w = Subspace(a.rows, a.n)
    ann = w.annihilator()
    assert ann.dim == a.n - w.dim
    assert all(sum((f.get(j, ZERO) * x for j, x in v.items()), ZERO).is_zero()
               for f in ann.rows for v in w.rows)
    assert k_rows(ann.basis) == oracle_kernel(k_matrix(a))


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


# a dense change of basis over K: no entry is zero
DENSE = M((1, ZETA, 2), (SQRT2, 1, I_UNIT), (-1, 3, ONE + SQRT2))
E12, E13, E23, E31 = (matrix_unit(3, i, j) for i, j in ((0, 1), (0, 2), (1, 2), (2, 0)))


@pytest.mark.parametrize("p", [Matrix.identity(3), DENSE], ids=["plain", "disguised"])
@pytest.mark.parametrize("gens, dim", [
    # E12 again, and E13 = E12 E23, which the span holds once E23 has joined
    ([E12, E23, E12, E13], 4),
    # then E31 gives all of M_3, but only if the products found after it
    # are multiplied by E12 and E23 as well
    ([E12, E23, E12, E13, E31], 9),
], ids=["proper", "full"])
def test_algebra_closure_matches_the_reference_after_a_change_of_basis(gens, dim, p):
    p_inv = p.inverse()
    disguised = [p * g * p_inv for g in gens]
    basis = algebra_closure(disguised)
    assert len(basis) == dim
    assert basis == reference_algebra_closure(disguised)


# The closures that spectral.irreducibility_certificate takes on three
# catalog sets, in its generator order [A_1, *witness, A_2, ...]: the
# number of products and of _insert calls is fixed, so a faster closure
# has to get there through cheaper operands, not by checking fewer products.
@pytest.mark.parametrize("make, dim, products, inserts", [
    (lambda: catalog.sporadic4(2), 12, 44, 52),
    (lambda: catalog.suspension_simplex(4, 3), 21, 100, 110),
    (lambda: catalog.induction(catalog.standard(2, 1, 3), 1, 2), 36, 68, 72),
], ids=["sporadic4", "suspension-simplex4", "induction6"])
def test_algebra_closure_makes_a_fixed_number_of_products(monkeypatch, make, dim,
                                                          products, inserts):
    t = make()
    gens = [*t.elements[:1], *t.witness, *t.elements[1:]]
    calls = {"mul": 0, "insert": 0}
    mul, insert = Matrix.__mul__, linalg._insert

    def counted_mul(x, y):
        calls["mul"] += 1
        return mul(x, y)

    def counted_insert(v, echelon):
        calls["insert"] += 1
        return insert(v, echelon)

    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    monkeypatch.setattr(linalg, "_insert", counted_insert)
    assert len(algebra_closure(gens)) == dim
    assert calls == {"mul": products, "insert": inserts}


# ------------------------------------ solution spaces in one elimination
#
# null_space eliminates each row at its last nonzero column and hands its
# kernel basis over as the canonical echelon form, and intersection and
# lift hand over echelon rows they already hold; each result must be, field
# for field, what reducing its rows again gives.


# the dense differentials report a failing draw as drawn: shrinking one
# over K takes minutes
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def assert_canonical(space):
    again = Subspace(space.rows, space.n)
    assert (space.n, space.pivots, space._echelon) == (again.n, again.pivots,
                                                       again._echelon)
    assert space == again and hash(space) == hash(again)


@st.composite
def dense_changes(draw, n):
    """(P, P^-1) for a dense P over K: unit lower times unit upper
    triangular, with nonzero entries off the diagonal."""
    def unit(lower):
        return Matrix([[ONE if r == c else (draw(k_nonzero) if (r > c) == lower else ZERO)
                        for c in range(n)] for r in range(n)])
    p = unit(True) * unit(False)
    return p, p.inverse()


@st.composite
def disguised_squares(draw, max_n):
    """A structured square matrix (a permutation, diagonal, block or rank
    deficient one) conjugated by a dense change of basis over K."""
    a = draw(structured_square().filter(lambda a: a.n <= max_n))
    p, p_inv = draw(dense_changes(a.n))
    return p * a * p_inv


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(disguised_squares(max_n=5), st.data())
def test_dense_kernels_are_canonical_and_match_oracle(a, data):
    ker = kernel(a)
    assert_canonical(ker)
    assert k_rows(ker.basis) == oracle_kernel(k_matrix(a))
    # a shift by an eigenvalue of the structured matrix leaves a kernel
    lam = data.draw(st.sampled_from([ZERO, ONE, a.trace()]))
    assert_canonical(kernel(a.shift(-lam)))


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_dense_solution_spaces_are_canonical(data):
    n = data.draw(st.integers(1, 4))
    p, p_inv = data.draw(dense_changes(n))
    as_ = data.draw(st.lists(structured_square(n), min_size=1, max_size=2))
    # the same family in a dense disguise: X -> P^-1 X, P^-1 X P and X P map
    # these spaces onto the commutant of the undisguised family
    bs = [p * a * p_inv for a in as_]
    commutant = intertwiner_space(as_, as_)
    assert commutant.dim == oracle_intertwiner_dimension(as_, as_)
    for left, right in ((as_, bs), (bs, bs), (bs, as_)):
        space = intertwiner_space(left, right)
        assert_canonical(space)
        assert space.dim == commutant.dim
        assert k_rows(space.basis) == oracle_kernel(sylvester_system(left, right))
        assert all(_to_matrix(x, n, n) * a == b * _to_matrix(x, n, n)
                   for x in space.rows for a, b in zip(left, right))
    planes = [kernel(a) for a in as_]
    targets = [reference_apply(w, p) for w in planes]
    space = transport_space(planes, targets)
    assert_canonical(space)
    assert k_rows(space.basis) == oracle_kernel(transport_system(planes, targets))
    assert all(w.maps_into(_to_matrix(x, n, n), t)
               for x in space.rows for w, t in zip(planes, targets))
    assert space.contains_space(Subspace([matrix_to_vec(p)], n * n))


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(square_matrices(3), disguised_squares(max_n=5))
def test_char_poly_matches_oracle_and_cayley_hamilton(small, disguised):
    for a in (small, disguised):
        p = char_poly(a)
        # sympy lists the coefficients from the highest degree down
        assert k_matrix(a).charpoly() == [to_k(c) for c in reversed(p.coeffs)]
        assert reference_polynomial_at(p, a).is_zero()


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_dense_meets_and_lifts_are_canonical(data):
    n = data.draw(st.integers(1, 4))
    p, _ = data.draw(dense_changes(n))
    u, w = (reference_apply(Subspace(data.draw(st.lists(
        st.lists(k_entry, min_size=n, max_size=n), max_size=n)), n), p) for _ in range(2))
    meet = u.intersection(w)
    assert_canonical(meet)
    assert k_rows(meet.basis) == oracle_meet(k_span(u), k_span(w))
    assert u.contains_space(meet) and w.contains_space(meet)
    assert meet.dim == u.dim + w.dim - (u + w).dim
    coords = Subspace(data.draw(st.lists(st.lists(k_entry, min_size=u.dim,
                                                  max_size=u.dim), max_size=3)), u.dim)
    lifted = u.lift(coords)
    assert_canonical(lifted)
    basis = u.basis
    assert lifted == Subspace([[sum((x[j] * b[q] for j, b in enumerate(basis)), ZERO)
                                for q in range(n)] for x in coords.basis], n)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_null_space_edge_cases(n):
    # no rows, and rows that are all zero: the whole space
    assert null_space([], n) == Subspace.full(n)
    assert null_space([{}, {}], n) == Subspace.full(n)
    assert_canonical(null_space([], n))
    # full rank: the zero space
    whole = null_space([{j: ONE, **({j + 1: SQRT2} if j + 1 < n else {})}
                        for j in range(n)], n)
    assert whole.dim == 0 and whole == Subspace([], n)
    # one dense row: a hyperplane, pivoted at every column but the last
    row = {j: ZETA + Scalar.rational(j) for j in range(n)}
    plane = null_space([row], n)
    assert_canonical(plane)
    assert plane.pivots == tuple(range(n - 1))
    assert all(sum((row[j] * x for j, x in v.items()), ZERO).is_zero() for v in plane.rows)
    # the rows given are read, not consumed
    assert row == {j: ZETA + Scalar.rational(j) for j in range(n)}


def pins(rows):
    """The columns that single-entry rows force to zero: a row with one
    entry outside the columns pinned so far pins that one, to a fixed
    point."""
    pinned = set()
    while True:
        new = {j for v in rows if len(v.keys() - pinned) == 1 for j in v.keys() - pinned}
        if not new:
            return pinned
        pinned |= new


def sylvester_rows(as_, bs):
    """The rows of X·A_i - B_i·X = 0 in the row-major entries of X, entry
    (r, c) of each product written out from the dense matrices."""
    n, m = as_[0].n, bs[0].n
    rows = []
    for a, b in zip(as_, bs):
        for r in range(m):
            for c in range(n):
                row = [ZERO] * (m * n)
                for q in range(n):
                    row[r * n + q] += a.rows[q][c]
                for p in range(m):
                    row[p * n + c] -= b.rows[r][p]
                rows.append(_sparse(row))
    return rows


def unpinned_kernel(rows, n):
    """The kernel of the sparse rows with no pinning: the rows reduced by
    Subspace, the kernel vector e_f - sum_p row_p[f] e_p of each free
    column f read off, and reduced again."""
    reduced = Subspace(rows, n)
    return Subspace([{f: ONE, **{p: -row[f] for p, row in reduced._echelon.items() if f in row}}
                     for f in range(n) if f not in reduced._echelon], n)


def fields(space):
    return space.n, space.pivots, space._echelon


def counting_inserts(monkeypatch):
    """Record a copy of every row handed to ``_insert``."""
    inserted = []
    insert = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda v, echelon: inserted.append(dict(v))
                        or insert(v, echelon))
    return inserted


def test_null_space_eliminates_each_row_once(monkeypatch):
    # no row is inserted twice and no kernel vector is inserted: one insert
    # per row that keeps two entries or more once its pins are deleted
    p = M((1, 0, 0), (SQRT2, 1, 0), (ZETA, 2, 1))
    a = p * M((1, 0, 0), (0, 1, 0), (0, 0, 2)) * p.inverse()
    inserted = counting_inserts(monkeypatch)
    rows = list(a.shift(-ONE)._nonzero) * 2
    space = null_space(rows, 3)
    assert space.dim == 2
    assert len(inserted) == sum(len(v.keys() - pins(rows)) >= 2 for v in rows) == 2
    inserted.clear()
    assert intertwiner_space([a], [a]).dim == 5
    system = sylvester_rows([a], [a])
    pinned = pins(system)
    assert len(inserted) == sum(len(v.keys() - pinned) >= 2 for v in system)
    assert all(len(v) >= 2 for v in inserted)
    # a planted chain: x0 = 0, then x1, then x2, so that only x3 + zeta x4
    # is eliminated (its columns re-keyed j -> 4 - j)
    chain = [{2: ONE, 1: SQRT2, 3: ONE, 4: ZETA}, {1: ONE, 2: ONE}, {0: ONE, 1: ZETA},
             {0: SQRT2}]
    line = Subspace([{3: -ZETA, 4: ONE}], 5)
    inserted.clear()
    assert null_space(chain, 5) == line
    assert inserted == [{1: ONE, 0: ZETA}]


def test_eliminations_negate_no_row_factor(monkeypatch):
    # every row update subtracts through field.add_multiple, which folds the
    # sign into its multiply-add, so an elimination builds no negated
    # Scalar; null_space's only negations are its kernel entries -row_p[f]
    dense = [Scalar([Fraction(3 * i + j + 1, 1 + (i + j) % 4) for j in range(8)])
             for i in range(24)]
    b = Matrix([dense[5 * i:5 * i + 5] for i in range(3)])
    system = [dict(enumerate(row)) for row in b.rows]
    a = Matrix([dense[3 * i:3 * i + 3] for i in range(3)])
    negated = []
    neg = Scalar.__neg__
    monkeypatch.setattr(Scalar, "__neg__", lambda x: negated.append(x) or neg(x))
    space = null_space(system, 5)
    assert len(negated) == sum(len(row) - 1 for row in space.rows)
    negated.clear()
    inv = a.inverse()
    assert negated == []
    monkeypatch.undo()
    assert space.dim == 2
    assert k_rows(space.basis) == oracle_kernel(k_matrix(b))
    assert a * inv == Matrix.identity(3)


# systems whose rows pin unknowns: single entries, chains in which each row
# holds one unknown beyond those pinned before it, duplicates and empty rows
@st.composite
def pinning_systems(draw):
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    rows = []
    for i in range(draw(st.integers(0, n))):
        before = draw(st.sets(st.sampled_from(order[:i]), max_size=2)) if i else set()
        rows.append({j: draw(pattern_scalar) for j in {order[i], *before}})
    rows += draw(st.lists(st.dictionaries(st.integers(0, n - 1), pattern_scalar, max_size=n),
                          max_size=n))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), n


@settings(max_examples=80, deadline=None)
@given(pinning_systems())
@example(([{0: ONE}], 1))  # n = 1
@example(([{}, {0: SQRT2}, {}], 1))
@example(([{}], 1))
@example(([{j: ZETA} for j in range(4)] * 2, 4))  # all singletons, duplicated
@example(([{1: ONE, 2: ONE}, {0: ONE, 1: ONE}, {0: ONE}, {2: ONE, 3: ONE, 4: ONE}], 5))
def test_pinned_kernels_are_the_kernels_without_pinning(system):
    rows, n = system
    given_rows = [dict(v) for v in rows]
    with pytest.MonkeyPatch.context() as patch:
        inserted = counting_inserts(patch)
        space = null_space(rows, n)
    assert fields(space) == fields(unpinned_kernel(rows, n))
    pinned = pins(rows)
    assert len(inserted) == sum(len(v.keys() - pinned) >= 2 for v in rows)
    assert not any(pinned & v.keys() for v in space.rows)
    # the rows given are read, never changed
    assert rows == given_rows


# diagonal families: repeated diagonal entries, and X m-by-n with m != n
diagonal_entry = st.sampled_from([ZERO, ONE, -ONE, SQRT2, ZETA])


@st.composite
def diagonal_families(draw):
    k = draw(st.integers(1, 3))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    as_, bs = ([diag(*draw(st.lists(diagonal_entry, min_size=size, max_size=size)))
                for _ in range(k)] for size in (n, m))
    return as_, bs


@settings(max_examples=40, deadline=None)
@given(diagonal_families())
@example(([diag(1, 1, 2)], [diag(1, 2)]))
@example(([diag(1, 2), diag(0, 0)], [diag(2, 1), diag(0, 1)]))
def test_diagonal_intertwiners_are_read_off_the_diagonals(family):
    as_, bs = family
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "null_space", None)  # no system is solved
        space = intertwiner_space(as_, bs)
    n, m = as_[0].n, bs[0].n
    assert fields(space) == fields(unpinned_kernel(sylvester_rows(as_, bs), m * n))
    assert space.dim == oracle_intertwiner_dimension(as_, bs)
