"""Exact linear algebra over the scalar field: matrices, subspaces, solvers.

Everything here is dense and exact.  Matrices are immutable (rows are
tuples of tuples of Scalar), subspaces are kept in a canonical reduced
echelon basis so that equality of subspaces is plain ``==``.
"""

import itertools
import os
import random

from .field import ONE, ZERO, Scalar

__all__ = [
    "Matrix",
    "NoSolution",
    "Polynomial",
    "Singular",
    "Subspace",
    "algebra_closure",
    "char_poly",
    "intertwiner_space",
    "invertible_in_space",
    "kernel",
    "mat_vec",
    "matrix_to_vec",
    "outer",
    "solve",
    "vec_to_matrix",
]


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    return Scalar.rational(x)


def _require_square(mat, what):
    if mat.m != mat.n:
        raise ValueError(f"{what} of a non-square {mat.m}x{mat.n} matrix")


def _require_same_ambient(n, m):
    if n != m:
        raise ValueError(f"ambient dimensions differ: {n} and {m}")


class Matrix:
    """A dense m-by-n matrix of Scalars."""

    __slots__ = ("rows", "m", "n")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", width)

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
        s = _coerce(s)
        return cls(tuple(tuple(s if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def from_columns(cls, cols):
        return cls(tuple(zip(*[tuple(_coerce(x) for x in c) for c in cols])))

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

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def is_identity(self):
        return self.m == self.n and self == Matrix.identity(self.n)

    def __add__(self, other):
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return Matrix(tuple(tuple(a - b for a, b in zip(r, s))
                            for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = ZERO
                for a, b in zip(row, col):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        s = _coerce(s)
        return Matrix(tuple(tuple(s * x for x in r) for r in self.rows))

    def __pow__(self, k):
        _require_square(self, "power")
        if k < 0:
            return self.inverse() ** (-k)
        acc = Matrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def det(self):
        d, _ = _gauss_det_inv(self, want_inverse=False)
        return d

    def inverse(self):
        d, inv = _gauss_det_inv(self, want_inverse=True)
        if inv is None:
            raise Singular("matrix is singular")
        return inv

    def det_inverse(self):
        """(det, inverse) in one elimination; inverse is None when singular."""
        return _gauss_det_inv(self, want_inverse=True)

    def conjugate_by(self, p):
        """p * self * p^-1."""
        return p * self * p.inverse()

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return f"[{body}]"


def _gauss_det_inv(mat, want_inverse):
    _require_square(mat, "determinant")
    n = mat.n
    a = [list(row) for row in mat.rows]
    if want_inverse:
        for i in range(n):
            a[i].extend(ONE if j == i else ZERO for j in range(n))
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            return ZERO, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv_p = a[col][col].inverse()
        a[col] = [x * inv_p for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if not want_inverse:
        return det, None
    return det, Matrix(tuple(tuple(row[n:]) for row in a))


# ---------------------------------------------------------------------------
# vectors (plain tuples of Scalar) and row reduction


def vec(xs):
    return tuple(_coerce(x) for x in xs)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(s, u):
    return tuple(s * a for a in u)


def vec_is_zero(u):
    return all(a.is_zero() for a in u)


def mat_vec(m, v):
    out = []
    for row in m.rows:
        acc = ZERO
        for a, b in zip(row, v):
            if not a.is_zero() and not b.is_zero():
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


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = rows[r][c].inverse()
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows], pivots


def _kernel_basis(mat):
    rows, pivots = _rref(mat.rows)
    free = [c for c in range(mat.n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * mat.n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def kernel(mat):
    """The right null space, as a canonical Subspace of K^cols."""
    return Subspace(_kernel_basis(mat), mat.n)


class NoSolution(ValueError):
    pass


class Singular(ZeroDivisionError):
    pass


def solve(mat, rhs):
    """One exact solution of mat * x = rhs; raises NoSolution if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(mat.rows, rhs)]
    rows, pivots = _rref(aug)
    if mat.n in pivots:
        raise NoSolution("inconsistent linear system")
    x = [ZERO] * mat.n
    for r, p in enumerate(pivots):
        x[p] = rows[r][mat.n]
    return tuple(x)


class Subspace:
    """A subspace of K^n held as a canonical reduced-echelon basis.

    Two Subspace objects are equal iff they describe the same subspace.
    """

    __slots__ = ("n", "basis", "pivots")

    def __init__(self, vectors, n):
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != n:
                raise ValueError("vector length does not match ambient dimension")
        if vectors:
            rows, pivots = _rref(vectors)
            basis = tuple(rows[: len(pivots)])
        else:
            basis, pivots = (), []
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def full(cls, n):
        return cls([tuple(ONE if j == i else ZERO for j in range(n))
                    for i in range(n)], n)

    @classmethod
    def from_matrix_columns(cls, mat):
        return cls(mat.columns(), mat.m)

    @property
    def dim(self):
        return len(self.basis)

    def matrix_columns(self):
        """The basis as the columns of an n-by-dim matrix."""
        return Matrix.from_columns(self.basis)

    def contains(self, v):
        v = list(vec(v))
        for row, p in zip(self.basis, self.pivots):
            if not v[p].is_zero():
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x.is_zero() for x in v)

    def contains_space(self, other):
        return all(self.contains(v) for v in other.basis)

    def __add__(self, other):
        _require_same_ambient(self.n, other.n)
        return Subspace(list(self.basis) + list(other.basis), self.n)

    def intersection(self, other):
        """Zassenhaus: reduce [B1|B1; B2|0], read the intersection off the
        rows whose left half vanished."""
        _require_same_ambient(self.n, other.n)
        n = self.n
        stacked = [list(v) + list(v) for v in self.basis]
        stacked += [list(v) + [ZERO] * n for v in other.basis]
        if not stacked:
            return Subspace([], n)
        rows, _ = _rref(stacked)
        out = []
        for row in rows:
            left, right = row[:n], row[n:]
            if all(x.is_zero() for x in left) and not all(x.is_zero() for x in right):
                out.append(right)
        return Subspace(out, n)

    def apply(self, mat):
        """The image subspace mat(W)."""
        _require_same_ambient(self.n, mat.n)
        return Subspace([mat_vec(mat, v) for v in self.basis], mat.m)

    def is_invariant_under(self, mat):
        return all(self.contains(mat_vec(mat, v)) for v in self.basis)

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
                and self.basis == other.basis)

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
        coeffs = [_coerce(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = _coerce(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, a):
        acc = Matrix.zero(a.n)
        for c in reversed(self.coeffs):
            acc = acc * a + Matrix.scalar(a.n, c)
        return acc

    def deflate(self, root):
        """Divide by (x - root).  Returns (quotient, remainder scalar)."""
        root = _coerce(root)
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


def char_poly(a):
    """Characteristic polynomial det(xI - A) by Faddeev-LeVerrier (monic)."""
    _require_square(a, "characteristic polynomial")
    n = a.n
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m_k = Matrix.identity(n)
    for k in range(1, n + 1):
        m_k = a * m_k
        c = -(m_k.trace() * Scalar.rational(1, k))
        coeffs[n - k] = c
        if k < n:
            m_k = m_k + Matrix.scalar(n, c)
    return Polynomial(coeffs)


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
        # entry (r, c) of X a - b X, unknowns X[p, q] at index p*n + q
        for r in range(m):
            for c in range(n):
                row = [ZERO] * (m * n)
                for q in range(n):
                    row[r * n + q] = row[r * n + q] + a.rows[q][c]
                for p in range(m):
                    row[p * n + c] = row[p * n + c] - b.rows[r][p]
                rows.append(row)
    return kernel(Matrix(rows))


def _default_seed():
    return int(os.environ.get("TSS_SEED", "0"))


def invertible_in_space(space, m, n=None, seed=None):
    """Search a subspace of vectorised m-by-n matrices for an invertible one.

    Deterministic sweeps first (single basis elements, pairwise sums and
    differences, then a small integer-coefficient grid when the dimension
    allows), falling back to seeded random combinations.  Returns a Matrix
    or None.
    """
    n = m if n is None else n
    if m != n or space.dim == 0:
        return None
    mats = [vec_to_matrix(v, m, n) for v in space.basis]

    def good(x):
        return None if x.det().is_zero() else x

    for x in mats:
        if good(x):
            return x
    for x, y in itertools.combinations(mats, 2):
        hit = good(x + y) or good(x - y)
        if hit:
            return hit
    k = len(mats)
    if k <= 4 and n <= 8:
        for coeffs in itertools.product(range(-2, 3), repeat=k):
            if all(c == 0 for c in coeffs):
                continue
            acc = Matrix.zero(m, n)
            for c, x in zip(coeffs, mats):
                if c:
                    acc = acc + x.scale(c)
            if good(acc):
                return acc
    rng = random.Random(_default_seed() if seed is None else seed)
    for _ in range(300):
        acc = Matrix.zero(m, n)
        for x in mats:
            c = rng.randint(-5, 5)
            if c:
                acc = acc + x.scale(c)
        if good(acc):
            return acc
    return None


def _sparse_reduce(v, echelon):
    """Reduce dict-vector v against echelon {pivot: vector}; v is consumed."""
    while v:
        p = min(v)
        row = echelon.get(p)
        if row is None:
            inv_p = v[p].inverse()
            return p, {i: inv_p * x for i, x in v.items()}
        f = v.pop(p)
        for i, x in row.items():
            if i == p:
                continue
            acc = v.get(i, ZERO) - f * x
            if acc.is_zero():
                v.pop(i, None)
            else:
                v[i] = acc
    return None, None


def algebra_closure(gens, include_identity=True, dim_cap=None):
    """Basis of the unital matrix algebra generated by gens.

    Worklist saturation: every new independent element is multiplied by
    every generator on both sides.  The result is returned as a list of
    matrices whose vectorisations are in reduced echelon form.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.m != n or g.n != n for g in gens):
        raise ValueError("generators must be square matrices of one size")
    full = n * n if dim_cap is None else dim_cap

    echelon = {}

    def to_sparse(mat):
        return {i * n + j: x
                for i, row in enumerate(mat.rows)
                for j, x in enumerate(row) if not x.is_zero()}

    def insert(mat):
        p, row = _sparse_reduce(to_sparse(mat), echelon)
        if p is None:
            return False
        echelon[p] = row
        return True

    frontier = []
    seeds = list(gens) + ([Matrix.identity(n)] if include_identity else [])
    for g in seeds:
        if insert(g):
            frontier.append(g)
    while frontier and len(echelon) < full:
        nxt = []
        for x in frontier:
            for g in gens:
                for prod in (x * g, g * x):
                    if insert(prod):
                        nxt.append(prod)
                        if len(echelon) >= full:
                            break
                if len(echelon) >= full:
                    break
            if len(echelon) >= full:
                break
        frontier = nxt

    # canonicalise: back-substitute the echelon rows, then rebuild matrices
    dense = []
    for p in sorted(echelon):
        row = [ZERO] * (n * n)
        for i, x in echelon[p].items():
            row[i] = x
        dense.append(row)
    if not dense:
        return []
    rows, _ = _rref(dense)
    return [vec_to_matrix(r, n, n) for r in rows[: len(echelon)]]
