"""Acceptance gate: the headline exact identities, end to end.

Each test is one pass/fail criterion.  Everything here is exact field
arithmetic over Q(i, sqrt2, sqrt3) -- no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import combinations

from totsym.catalog import (
    dual_simplex_arrangement,
    induction,
    ncsimplex,
    partition_construction,
    simplex_arrangement,
    sporadic4,
    standard,
    tilde_sigma5_arrangement,
    tilde_sigma5_construction,
    tilde_sigma5_rep,
)
from totsym.core import (
    NOT_TOTALLY_SYMMETRIC,
    TOTALLY_SYMMETRIC,
    Arrangement,
    Tss,
    half_dim_normal_form,
    involution_checks,
    stabilizer_dimension,
    verify_arrangement,
    verify_tss,
)
from totsym.field import (
    HALF,
    I_UNIT,
    MU_SPORADIC,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    ZETA,
    ZETA_INV,
    Scalar,
)
from totsym.linalg import (
    Matrix,
    Subspace,
    algebra_closure,
    intertwiner_space,
    transport_space,
    vec_to_matrix,
)
from totsym.spectral import (
    IRREDUCIBLE,
    classify_commutative,
    depth_profile,
    jfold,
)

from oracles import (
    matrix_to_sympy,
    oracle_algebra_dimension,
    oracle_intertwiner_dimension,
    sym_matrix_zero,
)


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def M(*rows):
    return Matrix(rows)


def r(p, q=1):
    return Scalar.rational(Fraction(p, q))


def line(*coords):
    return Subspace([coords], len(coords))


# --------------------------------------------------- spin generator relations


def test_spin_presentation_relations():
    ts = tilde_sigma5_rep()
    minus = -Matrix.identity(4)
    for t in ts:
        assert t * t == minus
    for i in range(len(ts) - 1):
        assert (ts[i] * ts[i + 1]) ** 3 == minus
    for i in range(len(ts)):
        for j in range(i + 2, len(ts)):
            assert ts[i] * ts[j] == -(ts[j] * ts[i])


def test_spin_block_transport_defect():
    # top-left / bottom-right 2x2 blocks of the third and fourth generators:
    # conjugation transport fails by an exact sqrt(2) off-diagonal defect
    ts = tilde_sigma5_rep()
    p34 = ts[2].submatrix(range(2), range(2))
    q34 = ts[2].submatrix(range(2, 4), range(2, 4))
    p45 = ts[3].submatrix(range(2), range(2))
    assert p45 * q34 - p34 * p45 == M((ZERO, SQRT2), (-SQRT2, ZERO))
    assert p45 != p34 * p45 * q34.inverse()


# ----------------------------------------------------- the sporadic quadruple


def test_sporadic_quadruple_is_totally_symmetric():
    mu = (-ONE + r(2) * SQRT2 * I_UNIT) * r(1, 3)
    assert mu == MU_SPORADIC
    assert r(3) * mu * mu + r(2) * mu + r(3) == ZERO

    t = sporadic4(1)
    w = t.witness[0]
    p = w.submatrix(range(2), range(2))
    q_inv = w.submatrix(range(2, 4), range(2, 4)).inverse()
    xs = [e.submatrix(range(2), range(2, 4)) for e in t.elements]
    assert p * xs[0] * q_inv == xs[1]
    assert p * xs[1] * q_inv == xs[0]
    assert p * xs[2] * q_inv == xs[2]
    assert p * xs[3] * q_inv == xs[3]

    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness is t.witness


# ------------------------------------------------- commutative classification


def test_weight_classification_round_trip():
    table = {
        2: (([1, 1], 1), ([1, 2], 2)),
        3: (([1, 1, 1], 1), ([1, 1, 2], 3), ([1, 2, 3], 6)),
        4: (([1, 1, 1, 1], 1), ([1, 1, 1, 2], 4), ([1, 1, 2, 2], 6),
            ([1, 1, 2, 3], 12), ([1, 2, 3, 4], 24)),
    }
    for k, rows in table.items():
        for values, dim in rows:
            t = partition_construction(values)
            assert t.k == k and t.n == dim
            res = classify_commutative(t)
            assert res.verdict == IRREDUCIBLE
            assert res.weight.values == tuple(Scalar.rational(v) for v in values)


def test_induction_depth_law():
    lam = Scalar.rational(5)
    for k, p in ((1, 1), (2, 1), (1, 2), (2, 2)):
        base = standard(k, 1, 2) if k > 1 else Tss([M((2,))])
        t = induction(base, p, 5)
        assert depth_profile(t, 5).depth == p
        total, dims = Subspace([], t.n), 0
        for s in combinations(range(t.k), p):
            e = jfold(t, lam, 1, s)
            total, dims = total + e, dims + e.dim
        # the p-fold eigenspaces of the fresh eigenvalue fill the space
        assert dims == t.n
        assert total.dim == t.n


# -------------------------------------------------------- arrangement rigidity


def test_arrangement_stabilizers_are_scalar():
    for n in (2, 3, 4, 5):
        assert stabilizer_dimension(simplex_arrangement(n))[0] == 1
        assert stabilizer_dimension(dual_simplex_arrangement(n))[0] == 1
    assert stabilizer_dimension(tilde_sigma5_arrangement())[0] == 1


# -------------------------------------------- obstructions to representations


def test_braid_relation_obstruction():
    for symbols in (3, 4, 5, 6):
        d = symbols - 2
        c1 = ONE - Scalar.rational(4, d * d)
        c2 = Scalar.rational(4, d * d) - ONE
        assert (c1 == c2) == (symbols == 4)
        if symbols >= 4:
            t = ncsimplex(symbols - 1, -1, 1)
            a1, a2 = t.elements[0], t.elements[1]
            left, right = a1 * a2 * a1, a2 * a1 * a2
            assert left.rows[0][0] == c1
            assert right.rows[0][0] == c2
            assert (left == right) == (symbols == 4)

    third_i3 = I_UNIT * SQRT3 * r(1, 3)
    sixth_i6 = I_UNIT * SQRT6 * r(1, 6)
    expected_a1 = M((ONE, ZERO, -ONE - third_i3, -sixth_i6),
                    (ZERO, ONE, -sixth_i6, -ONE + third_i3),
                    (ZERO, ZERO, -ONE, ZERO),
                    (ZERO, ZERO, ZERO, -ONE))
    expected_a2 = M((-ONE, ZERO, ZERO, ZERO),
                    (ZERO, -ONE, ZERO, ZERO),
                    (-ONE + third_i3, sixth_i6, ONE, ZERO),
                    (sixth_i6, -ONE - third_i3, ZERO, ONE))
    t = tilde_sigma5_construction(1, -1)
    a1, a2 = t.elements[0], t.elements[1]
    assert a1 == expected_a1 and a2 == expected_a2
    assert (a1 * a2) ** 3 != Matrix.identity(4)


def test_half_dimensional_normal_form():
    assert ZETA * ZETA_INV == ONE
    assert ONE - ZETA == ZETA_INV

    _, t = half_dim_normal_form(tilde_sigma5_arrangement())
    sixth_i3 = I_UNIT * SQRT3 * r(1, 6)
    third_i6 = I_UNIT * SQRT6 * r(1, 3)
    assert t.elements == (
        M((ZETA, ZERO), (ZERO, ZETA_INV)),
        M((HALF + sixth_i3, third_i6), (third_i6, HALF - sixth_i3)),
    )
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC
    flags = involution_checks(t)
    assert len(flags) == 2
    for f in flags:
        assert f["conjugate_to_inverse"]
        assert f["conjugate_to_one_minus"]


# ------------------------------------------------------------ near-miss sets


def test_near_miss_sets_are_rejected():
    base = [line(1, 0), line(0, 1), line(1, 1)]
    for c in (2, 3, 4, 5, -1, -2, -3,
              Fraction(1, 2), Fraction(2, 3), Fraction(-1, 2)):
        a = Arrangement(base + [line(1, c)])
        cert = verify_arrangement(a)
        assert cert.verdict == NOT_TOTALLY_SYMMETRIC
        if c == -1:
            # (0, 1) is realizable but the 4-cycle is not, so (1, 2) is
            # solved directly and fails
            assert transport_space(a.planes, a.planes[1:] + a.planes[:1]).dim == 0
            assert cert.failing_transposition == 1
            assert cert.detail == (
                "no invertible transport exists for transposition (1, 2): "
                "the solution supports admit no perfect matching")

    quadruples = (
        (diag(1, 2, 3), diag(2, 3, 1), diag(3, 1, 2), diag(1, 3, 2)),
        (diag(1, 1, 2), diag(1, 2, 1), diag(2, 1, 1), diag(2, 2, 1)),
        (diag(1, 2, 2), diag(2, 1, 2), diag(2, 2, 1), diag(1, 1, 2)),
    )
    for quad in quadruples:
        assert verify_tss(Tss(quad)).verdict == NOT_TOTALLY_SYMMETRIC
    quad = quadruples[2]
    assert intertwiner_space(list(quad), list(quad[1:] + quad[:1])).dim == 0
    cert = verify_tss(Tss(quad))
    assert cert.failing_transposition == 1
    assert cert.detail == (
        "no invertible intertwiner exists for transposition (1, 2): "
        "the solution supports admit no perfect matching")


# -------------------------------------------------- oracle cross-verification


def test_intertwiners_and_closures_match_oracle():
    rng = random.Random(20260819)

    def rand_matrix(n, surd):
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if surd:
            rows[rng.randrange(n)][rng.randrange(n)] = SQRT2
        return Matrix(rows)

    def rand_invertible(n):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(n)])
            _, inv = p.det_inverse()
            if inv is not None:
                return p, inv

    for i in range(25):
        n = rng.choice((1, 2, 2, 3))
        count = rng.choice((1, 2))
        surd = n == 2 and i % 5 == 0
        As = [rand_matrix(n, surd and j == 0) for j in range(count)]
        if i % 2 == 0:
            p, p_inv = rand_invertible(n)
            Bs = [p * a * p_inv for a in As]
        else:
            Bs = [rand_matrix(n, False) for _ in range(count)]

        space = intertwiner_space(As, Bs)
        assert space.dim == oracle_intertwiner_dimension(As, Bs)
        for v in space.basis:
            x = matrix_to_sympy(vec_to_matrix(v, n))
            for a, b in zip(As, Bs):
                assert sym_matrix_zero(
                    x * matrix_to_sympy(a) - matrix_to_sympy(b) * x)

        assert len(algebra_closure(As)) == oracle_algebra_dimension(As)
