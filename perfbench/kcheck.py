"""Independent exact checks over K = Q(i, sqrt2, sqrt3), used to judge the
library's answers without calling the library.

A scalar is a tuple of eight Fractions over the documented coordinate basis
(1, sqrt2, sqrt3, sqrt6, i, i*sqrt2, i*sqrt3, i*sqrt6); a matrix is a list
of rows of such tuples.  Products are exact.  Invertibility is certified by
a nonzero determinant under a ring homomorphism K -> F_p for a prime
p = 1 (mod 24), which holds only if the determinant over K is nonzero; a
zero image is reported as "not certified", never as singular.
"""

from fractions import Fraction

ZERO = (Fraction(0),) * 8


def _mul_table():
    # coordinate index = 4*imag + a + 2*b for i^imag * sqrt2^a * sqrt3^b
    table = []
    for x in range(8):
        ix, ax, bx = x >> 2, x & 1, (x >> 1) & 1
        row = []
        for y in range(8):
            iy, ay, by = y >> 2, y & 1, (y >> 1) & 1
            coef = (2 if ax and ay else 1) * (3 if bx and by else 1)
            if ix and iy:
                coef = -coef
            row.append((coef, 4 * (ix ^ iy) + (ax ^ ay) + 2 * (bx ^ by)))
        table.append(tuple(row))
    return tuple(table)


_TABLE = _mul_table()


def coords(scalar):
    """The eight coordinates of a library Scalar, as Fractions."""
    return tuple(Fraction(x) for x in scalar.c)


def matrix(m):
    """A library Matrix as a list of rows of coordinate tuples."""
    return [[coords(x) for x in row] for row in m.rows]


def kadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def kmul(x, y):
    out = [0] * 8
    for i, a in enumerate(x):
        if not a:
            continue
        row = _TABLE[i]
        for j, b in enumerate(y):
            if b:
                coef, idx = row[j]
                out[idx] += coef * a * b
    return tuple(Fraction(v) for v in out)


def row_dot(row, v):
    acc = ZERO
    for x, y in zip(row, v):
        if any(x) and any(y):
            acc = kadd(acc, kmul(x, y))
    return acc


def matvec(a, v):
    return [row_dot(row, v) for row in a]


def matmul(a, b):
    cols = list(zip(*b))
    return [[row_dot(row, col) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# a splitting prime and the homomorphism K -> F_p


def _is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, p):
    """Tonelli-Shanks square root of a quadratic residue a mod p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _splitting_prime():
    # p = 1 (mod 24) makes -1, 2 and 3 squares mod p, so K embeds in F_p
    p = (1 << 61) // 24 * 24 + 1
    while not _is_prime(p):
        p -= 24
    return p


P = _splitting_prime()
_S2, _S3, _I = _sqrt_mod(2, P), _sqrt_mod(3, P), _sqrt_mod(P - 1, P)
_IMAGES = tuple(
    pow(_I, x >> 2, P) * pow(_S2, x & 1, P) * pow(_S3, (x >> 1) & 1, P) % P
    for x in range(8))


def image(x):
    """The image of a coordinate tuple in F_p."""
    acc = 0
    for q, b in zip(x, _IMAGES):
        if q:
            acc += q.numerator * pow(q.denominator, -1, P) * b
    return acc % P


def certified_invertible(a):
    """True when det(a) has a nonzero image in F_p, hence det(a) != 0 in K."""
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    m = [[image(x) for x in row] for row in a]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, P)
        for r in range(col + 1, n):
            f = m[r][col] * inv % P
            if f:
                m[r] = [(x - f * y) % P for x, y in zip(m[r], m[col])]
    return True


# ---------------------------------------------------------------------------
# subspaces held in reduced echelon form


def in_span_rref(basis, v):
    """Exact membership of v in the span of basis rows that are in reduced
    echelon form.  Returns None when the rows are not in that form."""
    pivots = []
    for row in basis:
        p = next((j for j, x in enumerate(row) if any(x)), None)
        if p is None:
            return None
        pivots.append(p)
    one = (Fraction(1),) + ZERO[1:]
    for r, row in enumerate(basis):
        for s, p in enumerate(pivots):
            if row[p] != (one if r == s else ZERO):
                return None
    v = list(v)
    for row, p in zip(basis, pivots):
        f = v[p]
        if any(f):
            v = [kadd(x, kmul(tuple(-c for c in f), y)) for x, y in zip(v, row)]
    return not any(any(x) for x in v)
