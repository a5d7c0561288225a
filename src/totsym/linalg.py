"""Exact linear algebra over the scalar field: matrices, subspaces, solvers.

A Matrix is immutable and is its rows of nonzero entries ``{column: nonzero
Scalar}``; the dense tuple of rows is a view built on access for the edges
that want tuples (printing, documents, submatrices).  Products run over the
nonzero rows, and every elimination (determinant, inverse, solve, kernel,
subspace bases and intersections, algebra closure) goes through one
sparse-row Gauss-Jordan routine, ``_insert``, over rows of that form.
Subspaces keep that reduced echelon form, which is canonical, so equality of
subspaces is plain ``==``.  A Subspace is also where a matrix meets a
subspace: containment of images (``maps_into``), the restriction, the
quotient and the image in a quotient are all read off that form, in the
echelon basis of W and the cosets of the non-pivot unit vectors for K^n/W.
"""

import itertools
import os
import random
from dataclasses import dataclass

from .field import MINUS_ONE, ONE, ZERO, Scalar, as_scalar

__all__ = [
    "Matrix",
    "NoSolution",
    "Polynomial",
    "Singular",
    "Subspace",
    "algebra_closure",
    "char_poly",
    "conjugate_space",
    "intertwiner_space",
    "invertible_in_space",
    "kernel",
    "mat_vec",
    "matrix_to_vec",
    "null_space",
    "solve",
    "structurally_singular",
    "transport_space",
    "vec_to_matrix",
]


def _require_square(mat, what):
    if mat.m != mat.n:
        raise ValueError(f"{what} of a non-square {mat.m}x{mat.n} matrix")


def _require_same_ambient(n, m):
    if n != m:
        raise ValueError(f"ambient dimensions differ: {n} and {m}")


def _require_same_shape(a, b, op):
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"shape mismatch {a.m}x{a.n} {op} {b.m}x{b.n}")


def _from_nonzero(nonzero, n):
    """The Matrix of width n whose rows are ``nonzero``, a nonempty sequence
    of {column: nonzero Scalar} that the matrix takes over."""
    return object.__new__(Matrix)._settle(tuple(nonzero), n)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Matrix:
    """An m-by-n matrix of Scalars, held as its rows of nonzero entries.

    ``_nonzero`` is a tuple of one {column: nonzero Scalar} per row.  No
    producer stores a zero entry, so equality and hashing read those rows
    directly.  Readers share the dicts and copy a row before changing it.
    ``rows`` is the dense tuple of rows, built on each access.
    """

    m: int
    n: int
    _nonzero: tuple

    def __init__(self, rows):
        rows = [vec(row) for row in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self._settle(tuple(_sparse(r) for r in rows), width)

    def _settle(self, nonzero, n):
        object.__setattr__(self, "_nonzero", nonzero)
        object.__setattr__(self, "m", len(nonzero))
        object.__setattr__(self, "n", n)
        return self

    @property
    def rows(self):
        """The dense rows, as a tuple of tuples of Scalar."""
        n = self.n
        return tuple(tuple(row.get(j, ZERO) for j in range(n)) for row in self._nonzero)

    @classmethod
    def identity(cls, n):
        return cls.scalar(n, ONE)

    @classmethod
    def zero(cls, m, n=None):
        n = m if n is None else n
        return cls([[ZERO] * n] * m)

    @classmethod
    def scalar(cls, n, s):
        s = as_scalar(s)
        return cls([[s if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols):
        return cls(zip(*[vec(c) for c in cols]))

    @classmethod
    def block(cls, grid):
        """Assemble a matrix from a 2-d grid of matrix blocks."""
        out_rows = []
        for band in grid:
            if any(b.m != band[0].m for b in band):
                raise ValueError("block heights differ within a band")
            out_rows.extend(itertools.chain(*rows) for rows in zip(*(b.rows for b in band)))
        return cls(out_rows)

    def column(self, j):
        return tuple(row.get(j, ZERO) for row in self._nonzero)

    def columns(self):
        return [self.column(j) for j in range(self.n)]

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return Matrix(tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx))

    def transpose(self):
        return Matrix(zip(*self.rows))

    def trace(self):
        _require_square(self, "trace")
        return sum((row[i] for i, row in enumerate(self._nonzero) if i in row), ZERO)

    def diagonal(self):
        """The diagonal entries of a square diagonal matrix, else None."""
        if self.m != self.n:
            return None
        rows = self._nonzero
        if any(row.keys() - {i} for i, row in enumerate(rows)):
            return None
        return tuple(row.get(i, ZERO) for i, row in enumerate(rows))

    def is_zero(self):
        return not any(self._nonzero)

    def is_identity(self):
        return self.m == self.n and self == Matrix.identity(self.n)

    def _plus(self, f, rows):
        """self + f * (the matrix with the sparse rows given), f = 1 or -1."""
        out = [dict(row) for row in self._nonzero]
        for row, add in zip(out, rows):
            _axpy(row, f, add)
        return _from_nonzero(out, self.n)

    def __add__(self, other):
        _require_same_shape(self, other, "+")
        return self._plus(ONE, other._nonzero)

    def __sub__(self, other):
        _require_same_shape(self, other, "-")
        return self._plus(MINUS_ONE, other._nonzero)

    def shift(self, c):
        """self + c*I."""
        _require_square(self, "shift")
        c = as_scalar(c)
        return self if c.is_zero() else self._plus(ONE, ({i: c} for i in range(self.n)))

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        # only nonzero a[i][k] * b[k][j] contribute, and such a product is
        # never zero: only entries that were summed can cancel
        other_rows = other._nonzero
        out = []
        for row in self._nonzero:
            acc = {}
            for k, a in row.items():
                _axpy(acc, a, other_rows[k])
            out.append(acc)
        return _from_nonzero(out, other.n)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        s = as_scalar(s)
        if s.is_zero():
            return Matrix.zero(self.m, self.n)
        return _from_nonzero([{j: s * x for j, x in row.items()} for row in self._nonzero],
                             self.n)

    def __pow__(self, k):
        _require_square(self, "power")
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return Matrix.identity(self.n)
        acc = None
        base = self
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def det(self):
        return _det_inverse(self, want_inverse=False)[0]

    def inverse(self):
        _, inv = _det_inverse(self, want_inverse=True)
        if inv is None:
            raise Singular("matrix is singular")
        return inv

    def det_inverse(self):
        """(det, inverse) in one elimination; inverse is None when singular."""
        return _det_inverse(self, want_inverse=True)

    def __hash__(self):
        return hash((self.n, tuple(frozenset(row.items()) for row in self._nonzero)))

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return f"[{body}]"


# ---------------------------------------------------------------------------
# sparse rows and the elimination kernel


def _sparse(v):
    """The nonzero entries of a dense vector, as a row {index: Scalar}."""
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def _to_matrix(row, m, n):
    """The m-by-n matrix whose row-major vectorisation is the sparse row."""
    nonzero = [{} for _ in range(m)]
    for p, x in row.items():
        i, j = divmod(p, n)
        nonzero[i][j] = x
    return _from_nonzero(nonzero, n)


def _vectorise(mat):
    """The row-major vectorisation of mat as a fresh sparse row."""
    n = mat.n
    return {i * n + j: x for i, row in enumerate(mat._nonzero)
            for j, x in row.items()}


def _axpy(v, f, row):
    """v += f * row for sparse rows, in place, dropping entries that cancel.

    A factor of 1 or -1 adds or subtracts the entries without multiplying.
    """
    plus = f == ONE
    if plus or f == MINUS_ONE:
        for j, x in row.items():
            y = v.get(j)
            if y is None:
                v[j] = x if plus else -x
            else:
                y = y + x if plus else y - x
                if y.is_zero():
                    del v[j]
                else:
                    v[j] = y
        return
    for j, x in row.items():
        x = f * x
        y = v.get(j)
        if y is None:
            v[j] = x
        else:
            y = y + x
            if y.is_zero():
                del v[j]
            else:
                v[j] = y


def _reduce(v, echelon):
    """Clear every pivot column of ``echelon`` from the sparse row v, in place.

    ``echelon`` maps each pivot column p to the rest of its row (the entry 1
    at p is implicit), and no row has an entry in another row's pivot
    column, so one pass over v's pivot columns suffices.
    """
    for p in [p for p in v if p in echelon]:
        _axpy(v, -v.pop(p), echelon[p])
    return v


def _insert(v, echelon):
    """One Gauss-Jordan step: add the sparse row v (consumed) to the reduced
    echelon form ``echelon``.

    Returns (pivot column, the leading entry v had there after reduction),
    or None when v lies in the span already.  Afterwards ``echelon`` is the
    reduced row echelon form of all rows inserted so far.
    """
    _reduce(v, echelon)
    if not v:
        return None
    p = min(v)
    lead = v.pop(p)
    if lead != ONE:
        inv = lead.inverse()
        v = {j: x * inv for j, x in v.items()}
    for row in echelon.values():
        f = row.pop(p, None)
        if f is not None:
            _axpy(row, -f, v)
    echelon[p] = v
    return p, lead


def _det_inverse(mat, want_inverse):
    """(det, inverse or None) by inserting the rows of [mat | I] one by one.

    Row i is inserted once, scaled by 1/lead_i and otherwise changed only by
    adding multiples of other rows, and ends as the unit row e_{p_i}; so
    det = prod(lead_i) * sign(i -> p_i).  Singular once a row's left part
    reduces to zero.
    """
    _require_square(mat, "determinant")
    n = mat.n
    echelon = {}
    det = ONE
    cols = []
    for i, row in enumerate(mat._nonzero):
        v = dict(row)
        if want_inverse:
            v[n + i] = ONE
        hit = _insert(v, echelon)
        if hit is None or hit[0] >= n:
            return ZERO, None
        cols.append(hit[0])
        det = det * hit[1]
    if sum(a > b for a, b in itertools.combinations(cols, 2)) % 2:
        det = -det
    if not want_inverse:
        return det, None
    # every left column is a pivot, so only the right half is left in a row
    return det, _from_nonzero([{j - n: x for j, x in echelon[p].items()}
                               for p in range(n)], n)


# ---------------------------------------------------------------------------
# vectors (plain tuples of Scalar) and solvers


def vec(xs):
    return tuple(as_scalar(x) for x in xs)


def mat_vec(m, v):
    v = vec(v)
    if len(v) != m.n:
        raise ValueError(f"shape mismatch {m.m}x{m.n} * vector of length {len(v)}")
    nonzero = _sparse(v)
    out = []
    for row in m._nonzero:
        acc = ZERO
        for j, a in row.items():
            b = nonzero.get(j)
            if b is not None:
                acc = acc + a * b
        out.append(acc)
    return tuple(out)


def matrix_to_vec(m):
    """Row-major flattening of a matrix into a tuple."""
    return tuple(x for row in m.rows for x in row)


def vec_to_matrix(v, m, n=None):
    n = m if n is None else n
    if len(v) != m * n:
        raise ValueError(f"vector of length {len(v)} is not a {m}x{n} matrix")
    return Matrix(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(m)))


def null_space(rows, n):
    """The x in K^n with sum(row[j] * x[j]) == 0 for every sparse row
    {j: Scalar} given (the rows are consumed), as a canonical Subspace."""
    echelon = {}
    for v in rows:
        _insert(v, echelon)
    free = {f: {f: ONE} for f in range(n) if f not in echelon}
    for p, row in echelon.items():
        for f, x in row.items():
            free[f][p] = -x
    return Subspace(list(free.values()), n)


def kernel(mat):
    """The right null space, as a canonical Subspace of K^cols."""
    return null_space([dict(row) for row in mat._nonzero], mat.n)


class NoSolution(ValueError):
    pass


class Singular(ZeroDivisionError):
    pass


def solve(mat, rhs):
    """One exact solution of mat * x = rhs; raises NoSolution if inconsistent."""
    n = mat.n
    rhs = vec(rhs)
    if len(rhs) != mat.m:
        raise ValueError(f"shape mismatch {mat.m}x{n} system, right side of "
                         f"length {len(rhs)}")
    echelon = {}
    for row, b in zip(mat._nonzero, rhs):
        v = dict(row)
        if not b.is_zero():
            v[n] = b
        _insert(v, echelon)
    if n in echelon:
        raise NoSolution("inconsistent linear system")
    return tuple(echelon[p].get(n, ZERO) if p in echelon else ZERO
                 for p in range(n))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Subspace:
    """A subspace of K^n held as a canonical reduced-echelon basis.

    Two Subspace objects are equal iff they describe the same subspace.
    Vectors may be given dense (length-n sequences) or sparse ({index:
    Scalar}); ``basis`` gives the dense rows and ``rows`` the sparse ones.
    """

    n: int
    pivots: tuple
    _echelon: dict

    def __init__(self, vectors, n):
        echelon = {}
        for v in vectors:
            if isinstance(v, dict):
                if v and not (min(v) >= 0 and max(v) < n):
                    raise ValueError("vector index outside the ambient dimension")
                v = {j: x for j, x in v.items() if not x.is_zero()}
            else:
                v = vec(v)
                if len(v) != n:
                    raise ValueError("vector length does not match ambient dimension")
                v = _sparse(v)
            _insert(v, echelon)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pivots", tuple(sorted(echelon)))
        object.__setattr__(self, "_echelon", echelon)

    @classmethod
    def full(cls, n):
        return cls([{j: ONE} for j in range(n)], n)

    @classmethod
    def from_matrix_columns(cls, mat):
        return cls(mat.columns(), mat.m)

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def rows(self):
        """The reduced echelon basis as fresh sparse rows, in pivot order."""
        return [{p: ONE, **self._echelon[p]} for p in self.pivots]

    @property
    def basis(self):
        """The reduced echelon basis as dense tuples, in pivot order."""
        n = self.n
        return tuple(tuple(row.get(j, ZERO) for j in range(n)) for row in self.rows)

    def matrix_columns(self):
        """The basis as the columns of an n-by-dim matrix."""
        return Matrix.from_columns(self.basis)

    def contains(self, v):
        v = vec(v)
        _require_same_ambient(self.n, len(v))
        return not _reduce(_sparse(v), self._echelon)

    def contains_space(self, other):
        return all(not _reduce(row, self._echelon) for row in other.rows)

    def __add__(self, other):
        _require_same_ambient(self.n, other.n)
        return Subspace(self.rows + other.rows, self.n)

    def intersection(self, other):
        """Zassenhaus: reduce [B1|B1; B2|0], read the intersection off the
        rows whose left half vanished."""
        _require_same_ambient(self.n, other.n)
        n = self.n
        echelon = {}
        for row in self.rows:
            _insert({**row, **{n + j: x for j, x in row.items()}}, echelon)
        for row in other.rows:
            _insert(row, echelon)
        return Subspace([{j - n: x for j, x in ((p, ONE), *row.items())}
                         for p, row in echelon.items() if p >= n], n)

    def _images(self, mat):
        """The images mat·b_j of the echelon basis b_1..b_d, as sparse rows."""
        _require_same_ambient(self.n, mat.n)
        # the nonzero rows of the n-by-d matrix B: {q: {j: entry q of b_j}}
        b_rows = {}
        for j, b in enumerate(self.rows):
            for q, x in b.items():
                b_rows.setdefault(q, {})[j] = x
        images = [{} for _ in self.pivots]
        for i, row in enumerate(mat._nonzero):
            acc = {}
            for q, a in row.items():
                b_row = b_rows.get(q)
                if b_row is not None:
                    _axpy(acc, a, b_row)
            for j, x in acc.items():
                images[j][i] = x
        return images

    def apply(self, mat):
        """The image subspace mat(W)."""
        return Subspace(self._images(mat), mat.m)

    def maps_into(self, mat, target):
        """Whether mat maps this subspace W of K^n into the subspace target
        of K^m, for an m-by-n mat: every image of W's echelon basis reduces
        to zero against target's.  No image subspace is built."""
        _require_same_ambient(target.n, mat.m)
        echelon = target._echelon
        return all(not _reduce(image, echelon) for image in self._images(mat))

    def annihilator(self):
        """The row vectors f with f·w = 0 for every w in this subspace, as a
        subspace of K^n: the kernel of the matrix of its echelon rows."""
        if not self.pivots:
            return Subspace.full(self.n)
        return kernel(_from_nonzero(self.rows, self.n))

    def restriction(self, mat):
        """The d-by-d matrix M of mat on this nonzero subspace W, in its
        echelon basis b_1..b_d (mat·b_j = sum_i M[i][j] b_i), or None when
        mat does not map W into itself.

        The images mat·b_j are reduced against W.  In reduced echelon form a
        vector of W has its coordinates at the pivots, so those entries of
        the images make the columns of M.
        """
        _require_square(mat, "restriction")
        pivots, echelon = self.pivots, self._echelon
        if not pivots:
            raise ValueError("restriction to the zero subspace")
        m_rows = [{} for _ in pivots]
        for j, image in enumerate(self._images(mat)):
            for i, p in enumerate(pivots):
                x = image.get(p)
                if x is not None:
                    m_rows[i][j] = x
            if _reduce(image, echelon):
                return None
        return _from_nonzero(m_rows, len(pivots))

    def _cosets(self, rows):
        """The cosets of the sparse rows (consumed) in K^n/W, as sparse rows
        in the basis of the cosets of e_f for the non-pivot columns f, in
        increasing order.  A row reduced against W is zero at every pivot,
        so it is sum x_f e_f, and its coset is sum x_f [e_f]."""
        echelon = self._echelon
        index = {f: i for i, f in enumerate(f for f in range(self.n) if f not in echelon)}
        return [{index[f]: x for f, x in _reduce(row, echelon).items()} for row in rows]

    def quotient(self, mat):
        """The matrix of mat on K^n/W, for a proper subspace W, in the basis
        of ``_cosets``, or None when mat does not map W into itself: its
        column f is the coset of mat·e_f, for each non-pivot column f."""
        free = [f for f in range(self.n) if f not in self._echelon]
        if not free:
            raise ValueError("quotient by the whole space")
        if not self.maps_into(mat, self):
            return None
        columns = self._cosets(_sparse(mat.column(f)) for f in free)
        return _from_nonzero(columns, len(free)).transpose()

    def modulo(self, q):
        """The image of this subspace in K^n/q, a subspace of K^(n - dim q)
        in the coordinates of ``q.quotient``."""
        _require_same_ambient(self.n, q.n)
        return Subspace(q._cosets(self.rows), q.n - q.dim)

    def lift(self, coords):
        """The subspace B·U of K^n, for a subspace U of K^d given in the
        coordinates of this subspace's echelon basis b_1..b_d (the columns
        of B): each x in U goes to sum_j x_j b_j."""
        _require_same_ambient(self.dim, coords.n)
        pivots, echelon = self.pivots, self._echelon
        vectors = []
        for x in coords.rows:
            v = {}
            for j, c in x.items():
                # b_j is 1 at its pivot, and no other b_i has an entry there
                p = pivots[j]
                v[p] = c
                _axpy(v, c, echelon[p])
            vectors.append(v)
        return Subspace(vectors, self.n)

    def __hash__(self):
        return hash((self.n, tuple((p, frozenset(self._echelon[p].items()))
                                   for p in self.pivots)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


# ---------------------------------------------------------------------------
# polynomials and the characteristic polynomial


@dataclass(frozen=True, slots=True, repr=False)
class Polynomial:
    """Univariate polynomial, coefficients ascending; zero is ``(ZERO,)``."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = [as_scalar(c) for c in self.coeffs] or [ZERO]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = as_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, a):
        acc = Matrix.zero(a.n)
        for c in reversed(self.coeffs):
            acc = (acc * a).shift(c)
        return acc

    def deflate(self, root):
        """Divide by (x - root).  Returns (quotient, remainder scalar)."""
        root = as_scalar(root)
        out = []
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        return Polynomial(list(reversed(out))), rem

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero() and self.degree > 0:
                continue
            mono = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            terms.append(f"({c!r})*{mono}" if k else repr(c))
        return " + ".join(terms) if terms else "0"


def _hessenberg(a):
    """The rows {column: nonzero Scalar} of an upper Hessenberg matrix similar
    to the square matrix a over K (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9).

    Column c = m - 1 is cleared below row m by similarity transformations:
    the first row i >= m with a nonzero entry in column c is brought to row
    m by swapping rows i and m and columns i and m; then for each later row
    i with a nonzero entry u*h[m][c] there, row i -= u * row m and column
    m += u * column i.  A column with no such entry is skipped, and so is
    every zero entry.
    """
    n = a.n
    h = [dict(row) for row in a._nonzero]
    for m in range(1, n - 1):
        c = m - 1
        i = next((i for i in range(m, n) if c in h[i]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                x, y = row.pop(i, None), row.pop(m, None)
                if x is not None:
                    row[m] = x
                if y is not None:
                    row[i] = y
        inv = h[m][c].inverse()
        for i in range(m + 1, n):
            x = h[i].get(c)
            if x is None:
                continue
            u = x * inv
            _axpy(h[i], -u, h[m])  # clears h[i][c] exactly
            for row in h:
                y = row.get(i)
                if y is not None:
                    _axpy(row, u, {m: y})
    return h


def char_poly(a):
    """Characteristic polynomial det(xI - A) (monic), in O(n^3) field
    operations and no matrix product.

    A is reduced to an upper Hessenberg matrix H similar to it (see
    ``_hessenberg``); then p_0 = 1 and, with h the entries of H,

        p_{m+1} = x p_m - sum_{i<=m} h[i][m] t_i p_i,
        t_i = h[i+1][i] h[i+2][i+1] ... h[m][m-1]  (t_m = 1)

    is the characteristic polynomial of H's leading (m+1)-by-(m+1) block
    (Cohen, Alg. 2.2.10), so p_n is A's.  A zero subdiagonal entry ends the
    sum early.
    """
    _require_square(a, "characteristic polynomial")
    h = _hessenberg(a)
    polys = [[ONE]]  # polys[m]: the leading m-by-m block's, ascending
    for m in range(a.n):
        p = [ZERO, *polys[m]]
        t = ONE  # t_i
        for i in range(m, -1, -1):
            if i < m:
                s = h[i + 1].get(i)
                if s is None:
                    break
                t = t * s
            e = h[i].get(m)
            if e is not None:
                f = e * t
                for j, y in enumerate(polys[i]):
                    p[j] = p[j] - f * y
        polys.append(p)
    return Polynomial(polys[-1])


# ---------------------------------------------------------------------------
# intertwiners and algebra closure


def intertwiner_space(as_, bs):
    """The space of X with X @ as_[i] == bs[i] @ X, as row-major vectors.

    Returns a Subspace of K^(m*n) where X is m-by-n: each A acts on K^n,
    each B on K^m.
    """
    if len(as_) != len(bs):
        raise ValueError("mismatched family lengths")
    if not as_:
        raise ValueError("need at least one pair")
    n = as_[0].n
    m = bs[0].n
    rows = []
    for a, b in zip(as_, bs):
        a_cols = [{} for _ in range(a.n)]
        for i, row in enumerate(a._nonzero):
            for j, x in row.items():
                a_cols[j][i] = x
        b_rows = b._nonzero
        # entry (r, c) of X a - b X, unknowns X[p, q] at index p*n + q
        for r in range(m):
            for c in range(n):
                row = {r * n + q: x for q, x in a_cols[c].items()}
                _axpy(row, -ONE, {p * n + c: y for p, y in b_rows[r].items()})
                rows.append(row)
    return null_space(rows, m * n)


def transport_space(planes, targets):
    """The space of n-by-n P with P·W_i ⊆ T_i for every plane W_i and its
    target T_i, subspaces of K^n, as row-major vectors: f·P·w = 0 for each
    echelon row w of W_i and each f in the annihilator of T_i."""
    n = planes[0].n
    rows = []
    for w, tgt in zip(planes, targets):
        for f in tgt.annihilator().rows:
            for col in w.rows:
                # the coefficient of P[p][q] is f[p]*col[q]
                rows.append({p * n + q: x * y for p, x in f.items()
                             for q, y in col.items()})
    return null_space(rows, n * n)


def _default_seed():
    return int(os.environ.get("TSS_SEED", "0"))


def _support_masks(rows, n):
    """The union of the supports of sparse vectorised n-by-n matrices, as one
    bitmask of columns per matrix row."""
    masks = [0] * n
    for row in rows:
        for p in row:
            masks[p // n] |= 1 << (p % n)
    return masks


def _has_perfect_matching(masks):
    """Whether the pattern with columns ``masks[r]`` in row r (a square 0/1
    pattern) has a perfect matching, by Kuhn's augmenting paths.

    The search for each row keeps its path on an explicit stack, so a path
    through every row of a large pattern needs no recursion.
    """
    n = len(masks)
    union = 0
    for mask in masks:
        if not mask:
            return False
        union |= mask
    if union != (1 << n) - 1:
        return False
    owner = [None] * n  # column -> the row matched to it
    for root in range(n):
        seen = 0
        rows, todo, cols = [root], [masks[root]], []
        while rows:
            free = todo[-1] & ~seen
            if not free:
                rows.pop()
                todo.pop()
                if cols:
                    cols.pop()
                continue
            bit = free & -free
            seen |= bit
            todo[-1] ^= bit
            c = bit.bit_length() - 1
            r = owner[c]
            if r is None:
                # augment: each row on the path takes the column after it
                for r, c in zip(rows, cols + [c]):
                    owner[c] = r
                break
            rows.append(r)
            todo.append(masks[r])
            cols.append(c)
        else:
            return False
    return True


def _require_vectorised(space, n):
    if space.n != n * n:
        raise ValueError(
            f"a space in K^{space.n} does not hold vectorised {n}x{n} matrices")


def structurally_singular(space, n):
    """Whether every element of a subspace of vectorised n-by-n matrices is
    singular because of its support alone.

    When the union of the supports of the basis rows has no perfect
    matching, every term of every element's Leibniz expansion is zero
    (Konig-Hall), so no element is invertible; this is exact and needs no
    field arithmetic.  False says only that the supports allow one.
    """
    _require_vectorised(space, n)
    return not _has_perfect_matching(_support_masks(space.rows, n))


def invertible_in_space(space, n, seed=None):
    """Search a subspace of vectorised n-by-n matrices for an invertible one.

    Deterministic sweeps first (single basis elements, pairwise sums and
    differences, then a small integer-coefficient grid when the dimension
    allows), falling back to seeded random combinations.  Each candidate is
    an integer combination of the sparse basis rows.  A candidate whose
    support admits no perfect matching is singular and skipped (the union
    of the supports of the basis rows it uses is tested once per set of
    rows); the others are combined and tested by their determinant.
    Returns a Matrix or None, which is exact when the whole space is
    structurally singular (see ``structurally_singular``).
    """
    _require_vectorised(space, n)
    if space.dim == 0 or structurally_singular(space, n):
        return None
    basis = space.rows
    k = len(basis)
    matchable = {}

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
        rng = random.Random(_default_seed() if seed is None else seed)
        for _ in range(300):
            yield {i: rng.randint(-5, 5) for i in range(k)}

    for coeffs in candidates():
        used = frozenset(i for i, c in coeffs.items() if c)
        ok = matchable.get(used)
        if ok is None:
            ok = matchable[used] = _has_perfect_matching(
                _support_masks([basis[i] for i in used], n))
        if not ok:
            continue
        acc = {}
        for i, c in coeffs.items():
            if c:
                _axpy(acc, Scalar.rational(c), basis[i])
        x = _to_matrix(acc, n, n)
        if not x.det().is_zero():
            return x
    return None


def conjugate_space(space, p, p_inv):
    """The subspace {p·X·p_inv : X in space} of vectorised n-by-n matrices,
    for an invertible n-by-n p whose inverse is p_inv, as a canonical Subspace.
    """
    n = p.n
    _require_vectorised(space, n)
    return Subspace([_vectorise(p * _to_matrix(row, n, n) * p_inv)
                     for row in space.rows], space.n)


def algebra_closure(gens):
    """Basis of the unital matrix algebra generated by gens.

    Starts from span{I} and takes the generators in order.  A generator
    already in the span is skipped: the span is an algebra by then, so it
    stays closed under it.  Any other generator joins the span and becomes
    active: every element found before it is multiplied on the right by it,
    and every element found from then on by every active generator.  The
    span is then closed under right multiplication by each active
    generator, so it holds every word in them and is the algebra they
    generate.  Stops as soon as the span is all of M_n.  The result is
    returned as a list of matrices whose vectorisations are in reduced
    echelon form (the standard matrix units when it is M_n), which depends
    only on the algebra, not on the order or repetition of the generators.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.m != n or g.n != n for g in gens):
        raise ValueError("generators must be square matrices of one size")
    full = n * n
    echelon = {}
    _insert({i * (n + 1): ONE for i in range(n)}, echelon)  # I
    found = []  # the elements other than I that enlarged the span
    active = []
    for g in gens:
        if not _insert(_vectorise(g), echelon):
            continue
        active.append(g)
        every = tuple(active)
        todo = [(x, (g,)) for x in found]  # I * g is g itself
        found.append(g)
        todo.append((g, every))
        for x, hs in todo:
            for h in hs:
                prod = x * h
                if _insert(_vectorise(prod), echelon):
                    if len(echelon) == full:
                        return [_to_matrix({p: ONE}, n, n) for p in range(full)]
                    found.append(prod)
                    todo.append((prod, every))
    return [_to_matrix({p: ONE, **echelon[p]}, n, n) for p in sorted(echelon)]
