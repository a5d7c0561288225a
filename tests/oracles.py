"""Independent exact oracles used by the test suite.

Everything here but the ``reference_*`` functions goes through sympy,
which shares no code with the package: scalars become symbolic radical
expressions, matrices become sympy Matrices, and agreement is checked by
exact symbolic simplification.  ``reference_invertible_search`` is the invertible search
without its structural test, the reference for the search's witnesses;
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
``core.restriction_quotient`` and ``core.reduce_arrangement``.
"""

from __future__ import annotations

import itertools
import os
import random

import sympy

from totsym.core import (
    NOT_TOTALLY_SYMMETRIC,
    TOTALLY_SYMMETRIC,
    Arrangement,
    Certificate,
    NotInvariant,
    Tss,
    _no_invertible_detail,
    is_commutative,
)
from totsym.field import ONE, ZERO, Scalar
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


def to_sympy(s: Scalar):
    return sympy.expand(sum(sympy.Rational(x) * b for x, b in zip(s.c, _SYM_BASIS)))


def sym_equal(expr_a, expr_b) -> bool:
    return sympy.simplify(sympy.expand(expr_a - expr_b)) == 0


def matrix_to_sympy(m):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in m.rows])


def sym_matrix_zero(sm) -> bool:
    return all(sympy.simplify(e) == 0 for e in sm)


def oracle_intertwiner_dimension(As, Bs) -> int:
    """dim{X : X A_t = B_t X for all t}, via sympy nullspace of the stacked
    Sylvester systems (row-major unknowns)."""
    n = As[0].n
    rows = []
    for A, B in zip(As, Bs):
        sa, sb = matrix_to_sympy(A), matrix_to_sympy(B)
        for r in range(n):
            for c in range(n):
                row = [sympy.Integer(0)] * (n * n)
                for m in range(n):
                    row[r * n + m] += sa[m, c]
                    row[m * n + c] -= sb[r, m]
                rows.append(row)
    M = sympy.Matrix(rows)
    return n * n - M.rank(simplify=True)


def oracle_algebra_dimension(gens) -> int:
    """Dimension of the unital algebra generated by gens: saturate words of
    increasing length (right-multiplying by the generators) and rank the
    vectorized span in sympy."""
    n = gens[0].n
    base = [sympy.eye(n)] + [matrix_to_sympy(g) for g in gens]
    seen = list(base)
    rank = _span_rank(seen, n)
    while True:
        products = [sympy.expand(a * b) for a in seen for b in base]
        new_rank = _span_rank(seen + products, n)
        if new_rank == rank:
            return rank
        seen = seen + products
        rank = new_rank


def _span_rank(mats, n):
    """Rank of the vectorized span of sympy matrices."""
    rows = [[m[r, c] for r in range(n) for c in range(n)] for m in mats]
    return len(oracle_rref(rows))


def oracle_rref(rows):
    """Nonzero rows of the reduced row echelon form of the given rows, in
    pivot order, by a from-scratch Gauss-Jordan over sympy expressions
    (simplification decides zeroness)."""
    width = len(rows[0]) if rows else 0
    pivots = []  # (pivot index, fully reduced row with unit pivot)
    for raw in rows:
        if len(pivots) == width:
            break
        row = [sympy.expand(x) for x in raw]
        for p, erow in pivots:
            f = row[p]
            if sympy.simplify(f) != 0:
                row = [sympy.expand(x - f * y) for x, y in zip(row, erow)]
        p = next((j for j, x in enumerate(row)
                  if sympy.simplify(x) != 0), None)
        if p is None:
            continue
        inv = row[p]
        row = [sympy.radsimp(sympy.expand(x / inv)) for x in row]
        for q, erow in pivots:
            g = erow[p]
            if sympy.simplify(g) != 0:
                erow[:] = [sympy.expand(x - g * y) for x, y in zip(erow, row)]
        pivots.append((p, row))
    return [row for _, row in sorted(pivots, key=lambda t: t[0])]


def oracle_kernel(rows, n):
    """RREF basis of {x in K^n : row . x = 0 for every row}."""
    reduced = oracle_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if sympy.simplify(x) != 0)
              for r in reduced]
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [sympy.Integer(0)] * n
        v[f] = sympy.Integer(1)
        for p, r in zip(pivots, reduced):
            v[p] = -r[f]
        basis.append(v)
    return oracle_rref(basis)


def sym_rows_equal(ours, theirs) -> bool:
    """Dense rows of Scalars equal, entry by entry, to rows of sympy expressions."""
    return (len(ours) == len(theirs)
            and all(len(a) == len(b) and all(sym_equal(to_sympy(x), y)
                                              for x, y in zip(a, b))
                    for a, b in zip(ours, theirs)))


def oracle_det(m):
    """Determinant of a square matrix of Scalars, by sympy."""
    return matrix_to_sympy(m).det(method="berkowitz")


def reference_invertible_search(space, n, seed=None):
    """The search for an invertible element of a subspace of vectorised
    n-by-n matrices with a determinant on every candidate: the same
    candidates as ``linalg.invertible_in_space``, in the same order and from
    the same random draws, combined densely.

    Returns (the first invertible candidate or None, candidates tried).
    """
    basis = space.basis
    k = len(basis)
    if k == 0:
        return None, 0

    def candidates():
        for i in range(k):
            yield {i: 1}
        for i, j in itertools.combinations(range(k), 2):
            yield {i: 1, j: 1}
            yield {i: 1, j: -1}
        if k <= 4 and n <= 8:
            for coeffs in itertools.product(range(-2, 3), repeat=k):
                if any(coeffs):
                    yield dict(enumerate(coeffs))
        rng = random.Random(int(os.environ.get("TSS_SEED", "0"))
                            if seed is None else seed)
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
                if not span.contains(v):
                    span = Subspace([*span.basis, v], n * n)
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
