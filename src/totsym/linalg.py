"""Exact linear algebra over the scalar field: matrices, subspaces, solvers.

A Matrix is immutable and is its rows of nonzero entries ``{column: nonzero
Scalar}``, which ``Matrix.nonzero_rows`` reads and ``Matrix.from_nonzero_rows``
takes, as documents do; the dense tuple of rows is a view built on access
for the edges that want tuples (printing, submatrices).  Products run over the
nonzero rows, and every elimination (determinant, inverse, kernel,
subspace bases, sums and intersections, algebra closure) goes through one
sparse-row Gauss-Jordan routine, ``_insert``, over rows of that form.
Subspaces keep that reduced echelon form, which is canonical, so equality of
subspaces is plain ``==``.  A kernel, and so each solution space, takes one
elimination: ``null_space`` first pins the unknowns that single-entry rows
force to zero, pivots each remaining row at its last nonzero column, and
the kernel basis it then reads off is already canonical, so it is not
reduced a second time.  Diagonal families need no elimination at all:
``diagonal_groups`` groups their coordinates by column of diagonal entries,
and ``intertwiner_space`` reads its coordinate subspace
(``Subspace.coordinate``) off those groups.
A Subspace is also where a matrix meets a
subspace: containment of images (``maps_into``), the restriction, the
quotient and the image in a quotient are all read off that form, in the
echelon basis of W and the cosets of the non-pivot unit vectors for K^n/W.
"""

import itertools
import random
from dataclasses import dataclass, field

from .field import MINUS_ONE, ONE, ZERO, Scalar, add_multiple, as_scalar

__all__ = [
    "Matrix",
    "Polynomial",
    "Singular",
    "Subspace",
    "algebra_closure",
    "char_poly",
    "conjugate_space",
    "diagonal_groups",
    "intertwiner_space",
    "invertible_in_space",
    "kernel",
    "mat_vec",
    "matrix_to_vec",
    "null_space",
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


def _from_echelon(echelon, n):
    """The Subspace of K^n whose canonical reduced echelon form is
    ``echelon``, {pivot: the rest of its row}, which the subspace takes
    over; the Subspace counterpart of ``_from_nonzero``."""
    return object.__new__(Subspace)._settle(echelon, n)


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

    @classmethod
    def from_nonzero_rows(cls, rows, n):
        """The matrix of width n whose rows of nonzero entries are ``rows``,
        a nonempty sequence of {column: nonzero Scalar} with every column
        below n, which the matrix takes over.  Those conditions are the
        caller's to keep: nothing is checked, so no entry is visited."""
        return _from_nonzero(rows, n)

    @property
    def nonzero_rows(self):
        """The rows of nonzero entries, a tuple of {column: nonzero Scalar};
        the dicts are the matrix's own, so read them without changing them."""
        return self._nonzero

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

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return Matrix(tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx))

    def transpose(self):
        if not self.n:
            raise ValueError("matrix needs at least one row")
        return _from_nonzero(_columns(self), self.m)

    def trace(self):
        _require_square(self, "trace")
        return sum((row[i] for i, row in enumerate(self._nonzero) if i in row), ZERO)

    def diagonal(self):
        """The diagonal entries of a square diagonal matrix, else None, which
        is given at the first row with an entry off the diagonal."""
        if self.m != self.n:
            return None
        entries = []
        for i, row in enumerate(self._nonzero):
            x = row.get(i)
            if len(row) != (x is not None):
                return None
            entries.append(ZERO if x is None else x)
        return tuple(entries)

    def is_zero(self):
        return not any(self._nonzero)

    def _plus(self, f, rows):
        """self + f * (the matrix with the sparse rows given), f = 1 or -1."""
        out = [dict(row) for row in self._nonzero]
        for row, add in zip(out, rows):
            add_multiple(row, f, add)
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
                add_multiple(acc, a, other_rows[k])
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


def _columns(mat):
    """The columns of mat as fresh sparse rows {row index: Scalar}."""
    cols = [{} for _ in range(mat.n)]
    for i, row in enumerate(mat._nonzero):
        for j, x in row.items():
            cols[j][i] = x
    return cols


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


def _reduce(v, echelon):
    """Clear every pivot column of ``echelon`` from the sparse row v, in place.

    ``echelon`` maps each pivot column p to the rest of its row (the entry 1
    at p is implicit), and no row has an entry in another row's pivot
    column, so one pass over v's pivot columns suffices.
    """
    for p in [p for p in v if p in echelon]:
        add_multiple(v, v.pop(p), echelon[p], subtract=True)
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
            add_multiple(row, f, v, subtract=True)
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
    """The m-by-n matrix whose row-major vectorisation is v, given dense (a
    sequence of m*n scalars) or sparse ({index: Scalar}, as ``Subspace.rows``
    gives)."""
    n = m if n is None else n
    if isinstance(v, dict):
        if v and not (min(v) >= 0 and max(v) < m * n):
            raise ValueError(f"vector index outside a {m}x{n} matrix")
        return _to_matrix({p: x for p, x in v.items() if not x.is_zero()}, m, n)
    if len(v) != m * n:
        raise ValueError(f"vector of length {len(v)} is not a {m}x{n} matrix")
    return Matrix(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(m)))


def _pinned(rows):
    """The unknowns that single-entry rows force to zero, and the rows left.

    A row with one nonzero entry at j says x[j] = 0, so j is pinned; a row
    with one entry outside the pinned columns then pins that one too.  This
    repeats until no row pins a new unknown: each row counts its unpinned
    entries, and a column, once pinned, counts down the rows that hold it.
    Returns (pinned columns, the rows, unchanged, with at least two unpinned
    entries); empty rows are dropped."""
    rows = [v for v in rows if v]
    if min(map(len, rows), default=2) > 1:
        return set(), rows
    todo = [j for v in rows if len(v) == 1 for j in v]
    holders = {}  # column -> the rows of two or more entries that hold it
    for i, v in enumerate(rows):
        if len(v) > 1:
            for j in v:
                holders.setdefault(j, []).append(i)
    unpinned = [len(v) for v in rows]
    pinned = set()
    while todo:
        j = todo.pop()
        if j in pinned:
            continue
        pinned.add(j)
        for i in holders.get(j, ()):
            unpinned[i] -= 1
            if unpinned[i] == 1:
                todo.extend(q for q in rows[i] if q not in pinned)
    return pinned, [v for v, left in zip(rows, unpinned) if left > 1]


def null_space(rows, n):
    """The x in K^n with sum(row[j] * x[j]) == 0 for every sparse row
    {j: Scalar} given, as a canonical Subspace, in one elimination.

    First every unknown that a single-entry row forces to zero is pinned
    (``_pinned``).  The row space is then span{e_j : j pinned} plus the
    other rows with their pinned columns deleted, and its reduced echelon
    form is those unit rows and the reduced form of the rest, so only the
    rest is eliminated, and no kernel vector has an entry at a pinned
    column.  The rest is reduced with each pivot at the last nonzero column
    of its row (``_insert`` on the columns re-keyed j -> n-1-j, which copies
    the rows).  Then a pivot row p has entries only at free columns f < p,
    and the kernel vector of the free column f, e_f - sum_p row_p[f] e_p
    over the pivots p > f, leads with its 1 at f, where no other kernel
    vector has an entry: these vectors are already the reduced echelon basis
    of the kernel, with pivots at the free columns, so it is not reduced
    again.  The rows given are read, never changed.
    """
    pinned, rest = _pinned(rows)
    last = n - 1
    echelon = {}
    for v in rest:
        _insert({last - j: x for j, x in v.items() if j not in pinned}, echelon)
    free = {f: {} for f in range(n) if last - f not in echelon and f not in pinned}
    for q, row in echelon.items():
        for g, x in row.items():
            free[last - g][last - q] = -x
    return _from_echelon(free, n)


def kernel(mat):
    """The right null space, as a canonical Subspace of K^cols."""
    return null_space(mat._nonzero, mat.n)


class Singular(ZeroDivisionError):
    pass


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Subspace:
    """A subspace of K^n held as a canonical reduced-echelon basis.

    Two Subspace objects are equal iff they describe the same subspace.
    Vectors may be given dense (length-n sequences) or sparse ({index:
    Scalar}); ``basis`` gives the dense rows and ``rows`` the sparse ones.
    """

    n: int
    pivots: tuple
    _annihilator: object = field(compare=False)  # set on first use
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
        self._settle(echelon, n)

    def _settle(self, echelon, n):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pivots", tuple(sorted(echelon)))
        object.__setattr__(self, "_echelon", echelon)
        object.__setattr__(self, "_annihilator", None)
        return self

    @classmethod
    def full(cls, n):
        return cls.coordinate(range(n), n)

    @classmethod
    def coordinate(cls, indices, n):
        """The span of the unit vectors e_j of K^n for j in ``indices``, whose
        reduced echelon form is those unit rows as they stand."""
        echelon = {j: {} for j in indices}
        if echelon and not (min(echelon) >= 0 and max(echelon) < n):
            raise ValueError("vector index outside the ambient dimension")
        return _from_echelon(echelon, n)

    @classmethod
    def from_matrix_columns(cls, mat):
        return cls(_columns(mat), mat.m)

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

    def contains_space(self, other):
        _require_same_ambient(self.n, other.n)
        return all(not _reduce(row, self._echelon) for row in other.rows)

    def __add__(self, other):
        """The sum U + W: the echelon rows of the smaller operand inserted
        into a copy of the larger one's reduced echelon form, which is not
        eliminated again.  When the smaller is zero or the larger is all of
        K^n, the larger is the sum as it stands.  Neither operand changes."""
        _require_same_ambient(self.n, other.n)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        if big.dim == big.n or not small.pivots:
            return big
        echelon = {p: dict(row) for p, row in big._echelon.items()}
        for row in small.rows:
            _insert(row, echelon)
        return _from_echelon(echelon, self.n)

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
        # a row with its pivot in the right half has no entry in the left
        # half, so these rows, shifted, are the meet's reduced echelon form
        return _from_echelon({p - n: {j - n: x for j, x in row.items()}
                              for p, row in echelon.items() if p >= n}, n)

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
                    add_multiple(acc, a, b_row)
            for j, x in acc.items():
                images[j][i] = x
        return images

    def maps_into(self, mat, target):
        """Whether mat maps this subspace W of K^n into the subspace target
        of K^m, for an m-by-n mat: every image of W's echelon basis reduces
        to zero against target's.  No image subspace is built."""
        _require_same_ambient(target.n, mat.m)
        echelon = target._echelon
        return all(not _reduce(image, echelon) for image in self._images(mat))

    def annihilator(self):
        """The row vectors f with f·w = 0 for every w in this subspace, as a
        subspace of K^n: the kernel of the matrix of its echelon rows,
        solved on the first call and kept for the later ones."""
        if self._annihilator is None:
            object.__setattr__(self, "_annihilator", kernel(_from_nonzero(self.rows, self.n))
                               if self.pivots else Subspace.full(self.n))
        return self._annihilator

    def restriction(self, mat):
        """The d-by-d matrix M of mat on this nonzero subspace W, in its
        echelon basis b_1..b_d (mat·b_j = sum_i M[i][j] b_i), or None when
        mat does not map W into itself.

        The images mat·b_j are reduced against W.  In reduced echelon form a
        vector of W has its coordinates at the pivots, so those entries of
        the images make the columns of M.  On all of K^n the echelon basis
        is the unit vectors, and M is mat as it stands.
        """
        _require_square(mat, "restriction")
        pivots, echelon = self.pivots, self._echelon
        if not pivots:
            raise ValueError("restriction to the zero subspace")
        if len(pivots) == self.n:
            _require_same_ambient(self.n, mat.n)
            return mat
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

    def blocks(self, mats):
        """(restrictions, quotients) of the square matrices mats on this
        proper nonzero subspace W, or None when some matrix does not map W
        into itself.  Restrictions are as ``restriction`` gives them; the
        quotient of mat is its matrix on K^n/W in the basis of ``_cosets``,
        whose column f is the coset of mat·e_f for each non-pivot column f.
        Every matrix is restricted, which checks its invariance, before any
        quotient is built, so no invariance is checked twice."""
        if self.dim == self.n:
            raise ValueError("quotient by the whole space")
        restrictions = []
        for mat in mats:
            restricted = self.restriction(mat)
            if restricted is None:
                return None
            restrictions.append(restricted)
        free = [f for f in range(self.n) if f not in self._echelon]
        quotients = []
        for mat in mats:
            images = _columns(mat)
            columns = self._cosets(images[f] for f in free)
            quotients.append(_from_nonzero(columns, len(free)).transpose())
        return restrictions, quotients

    def modulo(self, q):
        """The image of this subspace in K^n/q, a subspace of K^(n - dim q)
        in the coordinates of the quotients of ``q.blocks``."""
        _require_same_ambient(self.n, q.n)
        return Subspace(q._cosets(self.rows), q.n - q.dim)

    def lift(self, coords):
        """The subspace B·U of K^n, for a subspace U of K^d given in the
        coordinates of this subspace's echelon basis b_1..b_d (the columns
        of B): each x in U goes to sum_j x_j b_j.

        b_j is 1 at its pivot p_j, where no other b_i has an entry, and zero
        before it.  So the image of U's echelon row with pivot i leads with
        a 1 at p_i and is zero at p_j for U's other pivots j: the images are
        the reduced echelon basis of B·U as they stand.  Into all of K^n,
        where B is the identity, U is its own lift.
        """
        _require_same_ambient(self.dim, coords.n)
        if self.dim == self.n:
            return coords
        pivots, echelon = self.pivots, self._echelon
        lifted = {}
        for i, x in coords._echelon.items():
            p = pivots[i]
            v = dict(echelon[p])
            for j, c in x.items():
                q = pivots[j]
                v[q] = c
                add_multiple(v, c, echelon[q])
            lifted[p] = v
        return _from_echelon(lifted, self.n)

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
            add_multiple(h[i], u, h[m], subtract=True)  # clears h[i][c] exactly
            for row in h:
                y = row.get(i)
                if y is not None:
                    add_multiple(row, u, {m: y})
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


def diagonal_groups(mats):
    """The coordinates of a family of square diagonal matrices A_1..A_k,
    grouped by their column of diagonal entries: {(A_1[c][c], ...,
    A_k[c][c]): [the coordinates c with that column, increasing]}, keyed in
    order of each group's first coordinate.  None for the empty family,
    which has no coordinates to group, and at the first matrix that is not
    diagonal, after which no matrix is read."""
    if not mats:
        return None
    diagonals = []
    for a in mats:
        entries = a.diagonal()
        if entries is None:
            return None
        diagonals.append(entries)
    groups = {}
    for c, column in enumerate(zip(*diagonals)):
        groups.setdefault(column, []).append(c)
    return groups


def intertwiner_space(as_, bs):
    """The space of X with X @ as_[i] == bs[i] @ X, as row-major vectors.

    Returns a Subspace of K^(m*n) where X is m-by-n: each A acts on K^n,
    each B on K^m.  Entry (r, c) of X·A_i - B_i·X is one row of the system,
    and ``null_space`` solves it.  The rows come cell by cell, row (r, c)
    of every pair before row (r, c + 1): the k equations of one cell hold
    the same unknowns (row r and column c of X), so each meets the others
    while the echelon form is still small, and a dependent one reduces to
    zero early.  The reduced echelon form is canonical, so the order
    changes the cost of the elimination, not the space.

    A family of diagonal matrices needs no elimination.  There entry (r, c)
    is X[r][c]·(a_i,c - b_i,r), so the space is spanned by the unit
    matrices e_rc whose column c of the A's and row r of the B's carry the
    same tuple of diagonal entries (a_i,c)_i = (b_i,r)_i, the groups of
    ``diagonal_groups``.  Their vectorisations are the unit vectors at
    r·n + c: a coordinate subspace.
    """
    if len(as_) != len(bs):
        raise ValueError("mismatched family lengths")
    if not as_:
        raise ValueError("need at least one pair")
    n = as_[0].n
    m = bs[0].n
    a_groups = diagonal_groups(as_)
    if a_groups is not None:
        b_groups = diagonal_groups(bs)
        if b_groups is not None:
            return Subspace.coordinate((r * n + c for key, rows in b_groups.items()
                                        for r in rows for c in a_groups.get(key, ())),
                                       m * n)
    # entry (r, c) of X a - b X, unknowns X[p, q] at index p*n + q: A's
    # column c at r*n + q and B's row r, negated, at p*n + c, which meet
    # only at r*n + c, where the entry is a[c][c] - b[r][r]
    a_cols = [_columns(a) for a in as_]
    rows = []
    for r in range(m):
        b_parts = [(b_row.get(r), [(p * n, -y) for p, y in b_row.items()])
                   for b_row in (b._nonzero[r] for b in bs)]
        for c in range(n):
            for cols, (b_rr, b_negated) in zip(a_cols, b_parts):
                a_col = cols[c]
                row = {r * n + q: x for q, x in a_col.items()}
                row.update({pn + c: y for pn, y in b_negated})
                a_cc = a_col.get(c)
                if a_cc is not None and b_rr is not None:
                    if a_cc == b_rr:
                        del row[r * n + c]
                    else:
                        row[r * n + c] = a_cc - b_rr
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


def _support_masks(rows, n):
    """The union of the supports of sparse vectorised n-by-n matrices, as one
    bitmask of columns per matrix row."""
    masks = [0] * n
    for row in rows:
        for p in row:
            masks[p // n] |= 1 << (p % n)
    return masks


def _perfect_matching(masks):
    """A perfect matching of the pattern with columns ``masks[r]`` in row r
    (a square 0/1 pattern), as the row matched to each column, or None when
    there is none, by Kuhn's augmenting paths.

    The search for each row keeps its path on an explicit stack, so a path
    through every row of a large pattern needs no recursion.
    """
    n = len(masks)
    union = 0
    for mask in masks:
        if not mask:
            return None
        union |= mask
    if union != (1 << n) - 1:
        return None
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
            return None
    return owner


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
    field arithmetic.  False says only that the supports allow one, except
    for a coordinate space (each canonical basis row has one entry), which
    then holds the permutation matrix of the matching.
    ``invertible_in_space`` runs this test once, on the whole space, and
    leaves every other singular candidate to its determinant.
    """
    _require_vectorised(space, n)
    return _perfect_matching(_support_masks(space.rows, n)) is None


def invertible_in_space(space, n):
    """Search a subspace of vectorised n-by-n matrices for an invertible one,
    by one rule for each kind of space.

    A space whose supports admit no perfect matching is singular (see
    ``structurally_singular``) and gives None.  A coordinate space, spanned
    by unit matrices (each canonical basis row has one entry), holds the
    permutation matrix of that matching, which is invertible and is
    returned with no determinant.  Any other space tries its single basis
    elements with n cells or more (a matrix with fewer is singular), then
    300 random integer combinations of its basis drawn from seed 0.  Each
    candidate is combined and tested by its determinant.
    Returns a Matrix or None, which is exact when the space is structurally
    singular or a coordinate space.
    """
    _require_vectorised(space, n)
    basis = space.rows
    matching = _perfect_matching(_support_masks(basis, n))
    if matching is None or not basis:
        return None
    if all(len(row) == 1 for row in basis):
        return _to_matrix({r * n + c: ONE for c, r in enumerate(matching)}, n, n)
    k = len(basis)

    def candidates():
        for i, row in enumerate(basis):
            if len(row) >= n:
                yield {i: 1}
        # seeded only once the singles miss: seeding costs more than most hits
        rng = random.Random(0)
        for _ in range(300):
            yield {i: rng.randint(-5, 5) for i in range(k)}

    for coeffs in candidates():
        acc = {}
        for i, c in coeffs.items():
            if c:
                add_multiple(acc, Scalar.rational(c), basis[i])
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

    What is multiplied is not an element x that enlarged the span but its
    row as reduced when it joined, (x - v) / c with v in the span so far
    and c the leading entry, as the MeatAxe spins reduced vectors.  Those
    rows are zero at every earlier pivot, so products and reductions read
    fewer entries.  The span is still the generated algebra: at every step
    I and the reduced rows span what I and the elements span, and when a
    generator g joins, the span is the algebra A of the generators before
    it, which their reduced rows generate too, so closure under A and under
    the reduced row of g is closure under g = c * (reduced row) + v.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.m != n or g.n != n for g in gens):
        raise ValueError("generators must be square matrices of one size")
    full = n * n
    echelon = {}
    _insert({i * (n + 1): ONE for i in range(n)}, echelon)  # I
    found = []  # reduced rows of the elements other than I that enlarged the span
    active = []

    def reduced(pivot):  # the row just inserted at pivot, as a matrix
        return _to_matrix({pivot: ONE, **echelon[pivot]}, n, n)

    for g in gens:
        joined = _insert(_vectorise(g), echelon)
        if not joined:
            continue
        g = reduced(joined[0])
        active.append(g)
        every = tuple(active)
        todo = [(x, (g,)) for x in found]  # I * g is g itself
        found.append(g)
        todo.append((g, every))
        for x, hs in todo:
            for h in hs:
                joined = _insert(_vectorise(x * h), echelon)
                if joined:
                    if len(echelon) == full:
                        return [_to_matrix({p: ONE}, n, n) for p in range(full)]
                    prod = reduced(joined[0])
                    found.append(prod)
                    todo.append((prod, every))
    return [_to_matrix({p: ONE, **echelon[p]}, n, n) for p in sorted(echelon)]
