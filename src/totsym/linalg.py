"""Exact linear algebra over the scalar field: matrices, subspaces, solvers.

Matrices are immutable (rows are tuples of tuples of Scalar), but the work
done on them is sparse: each matrix carries its nonzero rows ``{column:
nonzero Scalar}`` once they are known, products run over those, and every
elimination (determinant, inverse, solve, kernel, subspace bases and
intersections, algebra closure) goes through one sparse-row Gauss-Jordan
routine, ``_insert``, over rows of that form.  Subspaces keep that reduced
echelon form, which is canonical, so equality of subspaces is plain ``==``.
"""

import itertools
import os
import random

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
    "outer",
    "solve",
    "structurally_singular",
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
    """The m-by-n Matrix whose rows have the nonzero entries ``nonzero`` (a
    nonempty sequence of {column: nonzero Scalar}, kept as its cache)."""
    rows = []
    for row in nonzero:
        dense = [ZERO] * n
        for j, x in row.items():
            dense[j] = x
        rows.append(tuple(dense))
    mat = object.__new__(Matrix)
    object.__setattr__(mat, "rows", tuple(rows))
    object.__setattr__(mat, "m", len(rows))
    object.__setattr__(mat, "n", n)
    object.__setattr__(mat, "_nonzero", tuple(nonzero))
    return mat


def _nonzero_rows(mat):
    """The rows of mat as {column: nonzero Scalar}, computed once per matrix.

    The dicts are shared by every caller: copy a row before changing it.
    """
    nonzero = mat._nonzero
    if nonzero is None:
        nonzero = tuple([_sparse(row) for row in mat.rows])
        object.__setattr__(mat, "_nonzero", nonzero)
    return nonzero


class Matrix:
    """A dense m-by-n matrix of Scalars.

    ``rows`` is the dense tuple of rows; the nonzero rows (see
    ``_nonzero_rows``) are cached alongside on first use and do not take
    part in equality.
    """

    __slots__ = ("rows", "m", "n", "_nonzero")

    def __init__(self, rows):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", width)
        object.__setattr__(self, "_nonzero", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, m, n=None):
        n = m if n is None else n
        return cls(tuple(tuple(ZERO for _ in range(n)) for _ in range(m)))

    @classmethod
    def scalar(cls, n, s):
        s = as_scalar(s)
        return cls(tuple(tuple(s if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def from_columns(cls, cols):
        return cls(tuple(zip(*[tuple(as_scalar(x) for x in c) for c in cols])))

    @classmethod
    def block(cls, grid):
        """Assemble a matrix from a 2-d grid of matrix blocks."""
        out_rows = []
        for band in grid:
            height = band[0].m
            if any(b.m != height for b in band):
                raise ValueError("block heights differ within a band")
            for i in range(height):
                out_rows.append(tuple(itertools.chain.from_iterable(
                    b.rows[i] for b in band)))
        return cls(out_rows)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.n)]

    def submatrix(self, row_idx, col_idx):
        return Matrix(tuple(tuple(self.rows[i][j] for j in col_idx)
                            for i in row_idx))

    def transpose(self):
        return Matrix(tuple(zip(*self.rows)))

    def trace(self):
        _require_square(self, "trace")
        t = ZERO
        for i in range(self.m):
            t = t + self.rows[i][i]
        return t

    def diagonal(self):
        """The diagonal entries of a square diagonal matrix, else None."""
        if self.m != self.n:
            return None
        rows = _nonzero_rows(self)
        if any(row.keys() - {i} for i, row in enumerate(rows)):
            return None
        return tuple(row.get(i, ZERO) for i, row in enumerate(rows))

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def is_identity(self):
        return self.m == self.n and self == Matrix.identity(self.n)

    def __add__(self, other):
        _require_same_shape(self, other, "+")
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        _require_same_shape(self, other, "-")
        return Matrix(tuple(tuple(a - b for a, b in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def shift(self, c):
        """self + c*I, built from and into the nonzero rows."""
        _require_square(self, "shift")
        c = as_scalar(c)
        if c.is_zero():
            return self
        nonzero = []
        for i, row in enumerate(_nonzero_rows(self)):
            row = dict(row)
            _axpy(row, ONE, {i: c})
            nonzero.append(row)
        return _from_nonzero(nonzero, self.n)

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        # only nonzero a[i][k] * b[k][j] contribute, and such a product is
        # never zero: only entries that were summed can cancel
        other_rows = _nonzero_rows(other)
        out = []
        for row in _nonzero_rows(self):
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
        return Matrix(tuple(tuple(s * x for x in r) for r in self.rows))

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

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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
    return {i * n + j: x for i, row in enumerate(_nonzero_rows(mat))
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
    for i, row in enumerate(_nonzero_rows(mat)):
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
    if len(v) != m.n:
        raise ValueError(f"shape mismatch {m.m}x{m.n} * vector of length {len(v)}")
    nonzero = _sparse(v)
    out = []
    for row in _nonzero_rows(m):
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


def outer(u, v):
    """Column u times row v."""
    u, v = vec(u), vec(v)
    return Matrix(tuple(tuple(a * b for b in v) for a in u))


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
    return null_space([dict(row) for row in _nonzero_rows(mat)], mat.n)


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
    for row, b in zip(_nonzero_rows(mat), rhs):
        v = dict(row)
        if not b.is_zero():
            v[n] = b
        _insert(v, echelon)
    if n in echelon:
        raise NoSolution("inconsistent linear system")
    return tuple(echelon[p].get(n, ZERO) if p in echelon else ZERO
                 for p in range(n))


class Subspace:
    """A subspace of K^n held as a canonical reduced-echelon basis.

    Two Subspace objects are equal iff they describe the same subspace.
    Vectors may be given dense (length-n sequences) or sparse ({index:
    Scalar}); ``basis`` gives the dense rows and ``rows`` the sparse ones.
    """

    __slots__ = ("n", "pivots", "_echelon")

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

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

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

    def apply(self, mat):
        """The image subspace mat(W)."""
        _require_same_ambient(self.n, mat.n)
        return Subspace([mat_vec(mat, v) for v in self.basis], mat.m)

    def is_invariant_under(self, mat):
        return all(self.contains(mat_vec(mat, v)) for v in self.basis)

    def restriction(self, mat):
        """The d-by-d matrix M of mat on this nonzero subspace W, in its
        echelon basis b_1..b_d (mat·b_j = sum_i M[i][j] b_i), or None when
        mat does not map W into itself.

        The images mat·b_j are reduced against W.  In reduced echelon form a
        vector of W has its coordinates at the pivots, so those entries of
        the images make the columns of M.
        """
        _require_same_ambient(self.n, mat.n)
        _require_square(mat, "restriction")
        pivots, echelon = self.pivots, self._echelon
        if not pivots:
            raise ValueError("restriction to the zero subspace")
        # the nonzero rows of the n-by-d matrix B: {q: {j: entry q of b_j}}
        b_rows = {}
        for j, b in enumerate(self.rows):
            for q, x in b.items():
                b_rows.setdefault(q, {})[j] = x
        images = [{} for _ in pivots]
        for i, row in enumerate(_nonzero_rows(mat)):
            acc = {}
            for q, a in row.items():
                b_row = b_rows.get(q)
                if b_row is not None:
                    _axpy(acc, a, b_row)
            for j, x in acc.items():
                images[j][i] = x
        m_rows = [{} for _ in pivots]
        for j, image in enumerate(images):
            for i, p in enumerate(pivots):
                x = image.get(p)
                if x is not None:
                    m_rows[i][j] = x
            if _reduce(image, echelon):
                return None
        return _from_nonzero(m_rows, len(pivots))

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

    def extension_columns(self):
        """Standard basis vectors (lowest index first) completing this
        subspace to all of K^n."""
        out = []
        for j in range(self.n):
            if j not in self.pivots:
                out.append(tuple(ONE if t == j else ZERO for t in range(self.n)))
        return out

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.n == other.n
                and self._echelon == other._echelon)

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n})"


# ---------------------------------------------------------------------------
# polynomials and the characteristic polynomial


class Polynomial:
    """Univariate polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [as_scalar(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    h = [dict(row) for row in _nonzero_rows(a)]
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
        for i, row in enumerate(_nonzero_rows(a)):
            for j, x in row.items():
                a_cols[j][i] = x
        b_rows = _nonzero_rows(b)
        # entry (r, c) of X a - b X, unknowns X[p, q] at index p*n + q
        for r in range(m):
            for c in range(n):
                row = {r * n + q: x for q, x in a_cols[c].items()}
                _axpy(row, -ONE, {p * n + c: y for p, y in b_rows[r].items()})
                rows.append(row)
    return null_space(rows, m * n)


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


def _require_vectorised(space, m, n):
    if space.n != m * n:
        raise ValueError(
            f"a space in K^{space.n} does not hold vectorised {m}x{n} matrices")


def structurally_singular(space, n):
    """Whether every element of a subspace of vectorised n-by-n matrices is
    singular because of its support alone.

    When the union of the supports of the basis rows has no perfect
    matching, every term of every element's Leibniz expansion is zero
    (Konig-Hall), so no element is invertible; this is exact and needs no
    field arithmetic.  False says only that the supports allow one.
    """
    _require_vectorised(space, n, n)
    return not _has_perfect_matching(_support_masks(space.rows, n))


def invertible_in_space(space, m, n=None, seed=None):
    """Search a subspace of vectorised m-by-n matrices for an invertible one.

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
    n = m if n is None else n
    _require_vectorised(space, m, n)
    if m != n or space.dim == 0 or structurally_singular(space, n):
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
        x = _to_matrix(acc, m, n)
        if not x.det().is_zero():
            return x
    return None


def conjugate_space(space, p, p_inv):
    """The subspace {p·X·p_inv : X in space} of vectorised n-by-n matrices,
    for an invertible n-by-n p whose inverse is p_inv, as a canonical Subspace.
    """
    n = p.n
    _require_vectorised(space, n, n)
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
