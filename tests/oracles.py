"""Independent exact oracles used by the test suite.

Everything here but the ``reference_*`` functions goes through sympy,
which shares no code with the package.  ``to_k`` reads a scalar's rational
coordinates into sympy's algebraic field K = Q(sqrt2, sqrt3, i), which
computes with a primitive element of degree 8 over Q; matrices become
DomainMatrices over K, eliminated by sympy, and agreement is checked by
exact arithmetic and equality in K.  ``to_sympy`` and ``sym_equal`` remain
for comparing a scalar with a closed form, and ``oracle_involution_flags``
works over Q[x].  ``reference_invertible_search`` is the invertible search
with every single tried and no exact shortcut, the reference for the
search's witnesses;
``reference_depth_table`` is the depth table with every j-fold eigenspace
intersected from scratch, the reference for ``spectral.depth_profile``;
``reference_char_poly`` is the characteristic polynomial by
Faddeev-LeVerrier, the reference for ``linalg.char_poly``;
``reference_algebra_closure`` closes the span of I and every generator
under right multiplication by every generator, the reference for
``linalg.algebra_closure``; ``reference_certificate`` solves every
adjacent transposition's space directly, the reference for the
from-scratch ``core.verify_tss`` and ``core.verify_arrangement``;
``reference_classify`` meets every block with every eigenspace of the next
element in all of K^n, the reference for ``spectral.classify_commutative``;
``reference_apply`` maps the dense basis vectors one by one, the
reference for ``linalg.Subspace.apply``; and
``reference_restriction_quotient`` and ``reference_reduce_arrangement``
conjugate by a dense change of basis U = [basis | standard vectors] and
cut blocks out of U^-1 M U, the references for
``core.restriction_quotient`` and ``core.reduce_arrangement``;
``reference_realize_permutation`` composes the witnesses along a
bubble-sort word built first, the reference for
``core.realize_permutation``; and ``reference_induction`` reads each block
off a table sigma_S per subset and its inverse, with the witness blocks
realized through the base witness, the reference for
``catalog.induction``.
"""

from __future__ import annotations

import functools
import itertools
import random

import sympy
from sympy import QQ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from totsym.core import (
    NOT_TOTALLY_SYMMETRIC,
    TOTALLY_SYMMETRIC,
    Arrangement,
    Certificate,
    NotInvariant,
    Tss,
    _no_invertible_detail,
    swap_adjacent,
)
from totsym.field import ONE, ZERO, Scalar, as_scalar
from totsym.linalg import (
    Matrix,
    Polynomial,
    Subspace,
    invertible_in_space,
    kernel,
    mat_vec,
    matrix_to_vec,
    vec_to_matrix,
)
from totsym.spectral import (
    NON_DIAGONALIZABLE,
    NOT_CLASSIFIED,
    ClassificationResult,
    Incomplete,
    NotCommutative,
    _classify_blocks,
    discover_eigenvalues,
    is_commutative,
)

_SYM_BASIS = (
    sympy.Integer(1),
    sympy.sqrt(2),
    sympy.sqrt(3),
    sympy.sqrt(6),
    sympy.I,
    sympy.I * sympy.sqrt(2),
    sympy.I * sympy.sqrt(3),
    sympy.I * sympy.sqrt(6),
)


# built once per session: constructing the field and its basis takes about
# half a second
K = QQ.algebraic_field(sympy.sqrt(2), sympy.sqrt(3), sympy.I)
_K_BASIS = tuple(K.from_sympy(b) for b in _SYM_BASIS)


def to_sympy(s: Scalar):
    return sympy.expand(sum(sympy.Rational(x) * b for x, b in zip(s.c, _SYM_BASIS)))


def sym_equal(expr_a, expr_b) -> bool:
    """Two scalar sympy expressions equal: the check of a scalar against a
    closed form such as exp(i pi / 3)."""
    return sympy.simplify(sympy.expand(expr_a - expr_b)) == 0


def to_k(s: Scalar):
    """The element of K with the rational coordinates of s."""
    return sum((b * QQ(p, q) for (p, q), b in zip(s.ratios(), _K_BASIS) if p), K.zero)


def _power_coordinates(x):
    """The 8 rational coordinates of an element of K in the powers of its
    primitive element, highest first."""
    coeffs = x.to_list()
    return [QQ(0)] * (8 - len(coeffs)) + coeffs


@functools.cache
def _from_power_coordinates():
    """The inverse of the matrix whose columns are the basis of K's scalars
    in the powers of the primitive element."""
    columns = DomainMatrix([_power_coordinates(b) for b in _K_BASIS], (8, 8), QQ)
    return columns.transpose().inv()


def from_k(x):
    """The Scalar that ``to_k`` sends to x: how a failure report spells an
    element of K, whose own repr carries the whole minimal polynomial."""
    coords = _from_power_coordinates() * DomainMatrix(
        [[c] for c in _power_coordinates(x)], (8, 1), QQ)
    return Scalar.from_ratios([(int(q.numerator), int(q.denominator))
                               for (q,) in coords.to_list()])


def k_rows(rows):
    """Dense rows of Scalars as lists of elements of K, for comparison with
    the rows an oracle returns."""
    return [[to_k(x) for x in row] for row in rows]


def k_matrix(m):
    """A Matrix of Scalars as a DomainMatrix over K."""
    return DomainMatrix(k_rows(m.rows), (m.m, m.n), K)


def k_span(space):
    """The echelon basis of a Subspace, one row per vector, as a
    DomainMatrix over K."""
    return DomainMatrix(k_rows(space.basis), (space.dim, space.n), K)


def oracle_rref(dm):
    """Nonzero rows of the reduced row echelon form of a DomainMatrix over
    K, in pivot order."""
    reduced, pivots = dm.rref()
    return reduced.to_list()[:len(pivots)]


def oracle_kernel(dm):
    """RREF basis of {x in K^n : row . x = 0 for every row of dm}."""
    # eliminated by Gauss-Jordan (sympy's fraction-free default is slow over
    # K); the basis read off need not be reduced
    return oracle_rref(dm.nullspace(divide_last=True))


def oracle_meet(ku, kw):
    """RREF basis of the meet of the row spaces of two DomainMatrices over
    K: the kernel of [U^T | -W^T] gives the combinations of U's rows."""
    combos = ku.transpose().hstack(-kw.transpose()).nullspace(divide_last=True)
    return oracle_rref(combos[:, :ku.shape[0]] * ku)


def oracle_det(m):
    """Determinant of a square matrix of Scalars, in K."""
    return k_matrix(m).det()


def sylvester_system(As, Bs):
    """The stacked Sylvester systems X A_t - B_t X = 0 over K, in the
    row-major entries of X; X is m-by-n for A_t n-by-n and B_t m-by-m."""
    n, m = As[0].n, Bs[0].n
    rows = []
    for A, B in zip(As, Bs):
        sa, sb = k_rows(A.rows), k_rows(B.rows)
        for r in range(m):
            for c in range(n):
                row = [K.zero] * (m * n)
                for q in range(n):
                    row[r * n + q] += sa[q][c]
                for p in range(m):
                    row[p * n + c] -= sb[r][p]
                rows.append(row)
    return DomainMatrix(rows, (len(rows), m * n), K)


def oracle_intertwiner_dimension(As, Bs) -> int:
    """dim{X : X A_t = B_t X for all t}, by the rank of the Sylvester
    systems."""
    return As[0].n * Bs[0].n - sylvester_system(As, Bs).rank()


def transport_system(planes, targets):
    """The conditions f . X w = 0 over K, in the row-major entries of X, for
    each basis vector w of a plane and each f in the annihilator of its
    target: X maps every plane into its target."""
    rows = []
    for w, t in zip(planes, targets):
        for f in oracle_kernel(k_span(t)):
            rows += [[x * y for x in f for y in v] for v in k_rows(w.basis)]
    width = targets[0].n * planes[0].n
    return DomainMatrix(rows, (len(rows), width), K)


def _similarity_invariants(sm):
    """The invariant factors of xI - M over Q[x], each made monic."""
    x = sympy.Symbol("x")
    factors = invariant_factors(x * sympy.eye(sm.rows) - sm, domain=sympy.QQ[x])
    return [sympy.Poly(f, x).monic() for f in factors]


def oracle_involution_flags(a):
    """``core.involution_checks``' flags for one rational matrix A: whether
    A^-1 and I - A, both formed in sympy, have the invariant factors of A.
    Similarity of rational matrices does not depend on the field, so this
    decides it over K as well."""
    sa = sympy.Matrix([[to_sympy(x) for x in row] for row in a.rows])
    own = _similarity_invariants(sa)
    return {
        "conjugate_to_inverse": _similarity_invariants(sa.inv()) == own,
        "conjugate_to_one_minus": _similarity_invariants(sympy.eye(sa.rows) - sa) == own,
    }


def oracle_algebra_dimension(gens) -> int:
    """Dimension of the unital algebra generated by gens: right-multiply a
    basis of the span of I and gens by I and every generator until the
    span's dimension stops growing, with spans reduced over K."""
    n = gens[0].n
    base = [DomainMatrix.eye(n, K)] + [k_matrix(g) for g in gens]
    span = _span(base, n)
    while True:
        wider = _span(span + [a * b for a in span for b in base], n)
        if len(wider) == len(span):
            return len(span)
        span = wider


def _span(mats, n):
    """The RREF basis, as n-by-n DomainMatrices, of the span of the
    vectorized matrices."""
    rows = [sum(m.to_list(), []) for m in mats]
    basis = oracle_rref(DomainMatrix(rows, (len(rows), n * n), K))
    return [DomainMatrix([v[r * n:(r + 1) * n] for r in range(n)], (n, n), K)
            for v in basis]


def reference_invertible_search(space, n):
    """The search for an invertible element of a subspace of vectorised
    n-by-n matrices that is not a coordinate space, with a determinant on
    every candidate: the same candidates as ``linalg.invertible_in_space``
    (each single basis element, then 300 random combinations drawn from
    seed 0), in the same order and from the same random draws, combined
    densely.

    Returns (the first invertible candidate or None, candidates tried).
    """
    basis = space.basis
    k = len(basis)
    if k == 0:
        return None, 0

    def candidates():
        for i in range(k):
            yield {i: 1}
        rng = random.Random(0)
        for _ in range(300):
            yield {i: rng.randint(-5, 5) for i in range(k)}

    tried = 0
    for coeffs in candidates():
        tried += 1
        v = [ZERO] * (n * n)
        for i, c in coeffs.items():
            v = [x + Scalar.rational(c) * y for x, y in zip(v, basis[i])]
        x = vec_to_matrix(v, n)
        if not x.det().is_zero():
            return x, tried
    return None, tried


def reference_meet(firsts, indices, n):
    """The intersection of the subspaces ``firsts[i]`` over indices, taken
    one at a time from all of K^n."""
    out = Subspace.full(n)
    for i in indices:
        out = out.intersection(firsts[i])
    return out


def reference_depth_table(firsts, n):
    """The depth table of the eigenspaces ``firsts`` of k elements: entry j
    is the dimension of their j-fold intersection, or None when two j-subsets
    give different dimensions.  Every subset is intersected from scratch."""
    k = len(firsts)
    table = []
    for j in range(1, k + 1):
        dims = {reference_meet(firsts, s, n).dim
                for s in itertools.combinations(range(k), j)}
        table.append(dims.pop() if len(dims) == 1 else None)
    return table


def reference_char_poly(a):
    """det(xI - A) by Faddeev-LeVerrier: M_1 = A, c_k = -tr(M_k)/k and
    M_{k+1} = A (M_k + c_k I), so the coefficient of x^(n-k) is c_k."""
    n = a.n
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m_k = a
    for k in range(1, n + 1):
        c = -(m_k.trace() * Scalar.rational(1, k))
        coeffs[n - k] = c
        if k < n:
            m_k = a * m_k.shift(c)
    return Polynomial(coeffs)


def reference_apply(space, mat):
    """The image mat(W), spanned by mat times each dense basis vector of W."""
    return Subspace([mat_vec(mat, v) for v in space.basis], mat.m)


def reference_polynomial_at(poly, a):
    """poly(a) for a square matrix a, by Horner's rule over whole matrices."""
    acc = Matrix.zero(a.n)
    for c in reversed(poly.coeffs):
        acc = acc * a + Matrix.scalar(a.n, c)
    return acc


def reference_algebra_closure(gens):
    """The reduced echelon basis, as matrices, of the span of I and gens
    closed under right multiplication by every generator: each element that
    enlarges the span is multiplied by every generator in turn."""
    n = gens[0].n
    found = [Matrix.identity(n), *gens]
    span = Subspace([matrix_to_vec(x) for x in found], n * n)
    while found:
        new = []
        for x in found:
            for g in gens:
                prod = x * g
                v = matrix_to_vec(prod)
                bigger = Subspace([*span.basis, v], n * n)
                if bigger.dim > span.dim:
                    span = bigger
                    new.append(prod)
        found = new
    return [vec_to_matrix(v, n) for v in span.basis]


def reference_certificate(members, n, solve, what):
    """The from-scratch certificate with the space of each adjacent
    transposition solved directly by ``solve(members, targets)``
    (``linalg.intertwiner_space`` or ``linalg.transport_space``) and searched
    in turn; ``what`` names the solutions in the detail text."""
    members = list(members)
    found = []
    for j in range(len(members) - 1):
        targets = list(members)
        targets[j], targets[j + 1] = targets[j + 1], targets[j]
        space = solve(members, targets)
        p = invertible_in_space(space, n)
        if p is None:
            return Certificate(
                NOT_TOTALLY_SYMMETRIC, failing_transposition=j,
                detail=_no_invertible_detail(what, j, space, n))
        found.append(p)
    return Certificate(TOTALLY_SYMMETRIC, witness=tuple(found))


def reference_classify(t, pool=()):
    """The commutative classification with its former refinement, the
    reference for ``spectral.classify_commutative``: commutativity is
    checked first by all k(k-1) products, and every block is met with every
    eigenspace of the next element, each computed in all of K^n."""
    if not is_commutative(t):
        raise NotCommutative("elements do not pairwise commute")
    candidates = tuple(pool) + tuple(t.params)
    blocks = None
    for a in t.elements:
        found = discover_eigenvalues(a, candidates)
        if isinstance(found, Incomplete):
            return ClassificationResult(
                NOT_CLASSIFIED,
                detail=f"eigenvalue discovery stalled: {found!r}")
        eigenspaces = [(r, kernel(a.shift(-r))) for r in dict.fromkeys(found)]
        if sum(e.dim for _, e in eigenspaces) < t.n:
            return ClassificationResult(NON_DIAGONALIZABLE)
        if blocks is None:
            blocks = [(e, (r,)) for r, e in eigenspaces if e.dim]
            continue
        refined = []
        for space, col in blocks:
            for r, e in eigenspaces:
                piece = space.intersection(e)
                if piece.dim:
                    refined.append((piece, col + (r,)))
        blocks = refined
    if blocks is None:
        blocks = [(Subspace.full(t.n), ())]
    return _classify_blocks(t, blocks)


def _basis_change_through(space):
    """Invertible U whose first dim(space) columns are the echelon basis of
    the space, the rest the standard vectors e_f off its pivots, in order."""
    n = space.n
    extension = [tuple(ONE if t == f else ZERO for t in range(n))
                 for f in range(n) if f not in space.pivots]
    return Matrix.from_columns(list(space.basis) + extension)


def _split_conjugate(mats, u, u_inv, d):
    """Conjugate each matrix by U and split into (top-left d, bottom-right),
    raising NotInvariant when the bottom-left block is not zero."""
    tops, bottoms = [], []
    n = u.n
    for m in mats:
        c = u_inv * m * u
        if d < n:
            if not c.submatrix(range(d, n), range(d)).is_zero():
                raise NotInvariant("subspace is not invariant")
            bottoms.append(c.submatrix(range(d, n), range(d, n)))
        tops.append(c.submatrix(range(d), range(d)))
    return tops, bottoms


def reference_restriction_quotient(t, space, witness=None):
    """(restriction, quotient) of a matrix set by a dense change of basis,
    the reference for ``core.restriction_quotient``."""
    if witness is None:
        witness = t.witness
    mats = list(t.elements) + list(witness or ())
    if not all(space.maps_into(m, space) for m in mats):
        raise NotInvariant("subspace is not invariant")
    d = space.dim
    if d == 0:
        return None, Tss(t.elements, witness=witness, params=t.params)
    u = _basis_change_through(space)
    u_inv = u.inverse()
    el_tops, el_bottoms = _split_conjugate(t.elements, u, u_inv, d)
    w_tops = w_bottoms = None
    if witness is not None:
        w_tops, w_bottoms = _split_conjugate(list(witness), u, u_inv, d)
    restriction = Tss(el_tops, witness=w_tops, params=t.params)
    if d == t.n:
        return restriction, None
    return restriction, Tss(el_bottoms, witness=w_bottoms, params=t.params)


def reference_reduce_arrangement(a):
    """The arrangement modulo the common intersection Q of its planes, in
    the coordinates of a dense change of basis through Q, the reference for
    ``core.reduce_arrangement``."""
    q = a.planes[0]
    for w in a.planes[1:]:
        q = q.intersection(w)
    if q.dim == 0:
        return a
    u = _basis_change_through(q)
    u_inv = u.inverse()
    qd = q.dim
    planes = [Subspace([mat_vec(u_inv, v)[qd:] for v in w.basis], a.n - qd)
              for w in a.planes]
    witness = None
    if a.witness is not None:
        witness = tuple(_split_conjugate(list(a.witness), u, u_inv, qd)[1])
    return Arrangement(planes, witness=witness)


def reference_realize_permutation(witness, sigma, n=None):
    """A matrix realizing sigma (one-line, 0-based) by composing the
    adjacent-transposition witnesses along a bubble-sort word, the
    reference for ``core.realize_permutation``."""
    sigma = list(sigma)
    k = len(sigma)
    if sorted(sigma) != list(range(k)):
        raise ValueError("not a permutation in one-line notation")
    if len(witness) != max(k - 1, 0):
        raise ValueError("witness length does not match the permutation size")
    if k <= 1 or not len(witness):
        if n is None:
            n = witness[0].n if len(witness) else None
        if n is None:
            raise ValueError("ambient dimension needed for the empty witness")
        return Matrix.identity(n)
    word = []
    arr = sigma[:]
    for _ in range(k):
        swapped = False
        for p in range(k - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                word.append(p)
                swapped = True
        if not swapped:
            break
    result = Matrix.identity(witness[0].n)
    for p in word:
        result = witness[p] * result
    return result


def reference_induction(t, p, lam):
    """The induction of a witnessed set by p indices through a table
    sigma_S per subset, the reference for ``catalog.induction``.

    sigma_S sends S monotonically onto the top block (and the rest
    monotonically onto the bottom); element i acts on the S-block through
    the original element indexed by sigma_S(i), read as lam*I when that
    index lands in the top block.  The witness blocks are the realized
    permutations sigma_{tau(S)} tau sigma_S^-1 of the bottom block.  The
    size bound of the catalog is not applied.
    """
    lam = as_scalar(lam)
    if t.witness is None:
        raise ValueError("induction needs a witnessed set")
    if p < 1:
        raise ValueError("need at least one new index")
    k, n = t.k, t.n
    kp = k + p
    subsets = list(itertools.combinations(range(kp), p))
    index = {s: a for a, s in enumerate(subsets)}
    sig = {}
    for s in subsets:
        one = [0] * kp
        comp = [x for x in range(kp) if x not in s]
        for pos, x in enumerate(comp):
            one[x] = pos
        for pos, x in enumerate(s):
            one[x] = k + pos
        sig[s] = one
    originals = list(t.elements) + [Matrix.scalar(n, lam)] * p
    zero = Matrix.zero(n, n)
    nblocks = len(subsets)
    elements = []
    for i in range(kp):
        grid = [[zero] * nblocks for _ in range(nblocks)]
        for a, s in enumerate(subsets):
            grid[a][a] = originals[sig[s][i]]
        elements.append(Matrix.block(grid))
    witness = []
    for j in range(kp - 1):
        tau = swap_adjacent(range(kp), j)
        grid = [[zero] * nblocks for _ in range(nblocks)]
        for a, s in enumerate(subsets):
            ts = tuple(sorted(tau[x] for x in s))
            inv = [0] * kp
            for x in range(kp):
                inv[sig[s][x]] = x
            # sigma_{tau(S)} tau sigma_S^{-1}, restricted to the bottom block
            pi = [sig[ts][tau[inv[y]]] for y in range(k)]
            grid[index[ts]][a] = reference_realize_permutation(t.witness, pi, n=n)
        witness.append(Matrix.block(grid))
    return Tss(elements, witness=witness, params=t.params + (lam,))
