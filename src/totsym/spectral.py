"""Eigenstructure analytics for totally symmetric sets.

Generalized eigenspace filtrations, j-fold eigenspaces and depth profiles,
restricted eigenvalue discovery over K, the classification algorithm for
commutative sets, Burnside-style irreducibility certificates, and the two
exact nonexistence computations for small-dimensional realizations.
"""

from itertools import combinations, permutations

from .catalog import Weight, ncsimplex, tilde_sigma5_construction, tilde_sigma5_rep
from .core import ensure, is_commutative
from .field import (
    HALF,
    I_UNIT,
    NotRepresentable,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    TWO,
    ZERO,
    ZETA,
    ZETA_INV,
    Scalar,
    sqrt_restricted,
)
from .linalg import (
    Matrix,
    Subspace,
    algebra_closure,
    char_poly,
    kernel,
    mat_vec,
    matrix_to_vec,
)

__all__ = [
    "ClassificationResult",
    "DepthProfile",
    "EigenFiltration",
    "FullAlgebra",
    "Incomplete",
    "IRREDUCIBLE",
    "NON_DIAGONALIZABLE",
    "NOT_CLASSIFIED",
    "NotAnEigenvalue",
    "NotCommutative",
    "ProperAlgebra",
    "REDUCIBLE",
    "classify_commutative",
    "depth_profile",
    "discover_eigenvalues",
    "filtration",
    "generalized_eigenspace",
    "halfdim_nonexistence_suite",
    "irreducibility_certificate",
    "jfold",
    "rep_obstruction_suite",
]

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "ReducibleWitness"
NON_DIAGONALIZABLE = "NonDiagonalizable"
NOT_CLASSIFIED = "NotClassified"


class NotAnEigenvalue(ValueError):
    """The requested scalar is not an eigenvalue of any element."""


class NotCommutative(ValueError):
    """The classification algorithm needs a commutative set."""


def _scalar(x):
    return x if isinstance(x, Scalar) else Scalar.rational(x)


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# filtrations


def generalized_eigenspace(a, lam, c):
    """Kernel of (A - lam*I)^c."""
    if c < 1:
        raise ValueError("need degree c >= 1")
    lam = _scalar(lam)
    return kernel((a - Matrix.scalar(a.n, lam)) ** c)


class EigenFiltration:
    """The strictly increasing chain E_{lam,1} < E_{lam,2} < ... computed
    until it stabilizes.  Empty when lam is not an eigenvalue."""

    __slots__ = ("eigenvalue", "spaces")

    def __init__(self, eigenvalue, spaces):
        spaces = tuple(spaces)
        dims = [0] + [s.dim for s in spaces]
        jumps = [b - a for a, b in zip(dims, dims[1:])]
        ensure(all(cur.contains_space(prev) for prev, cur in zip(spaces, spaces[1:])),
               "filtration spaces are not nested")
        # successive quotient dimensions weakly decrease, and the c-th space
        # holds at least c copies of its top quotient
        ensure(all(a >= b for a, b in zip(jumps, jumps[1:])),
               f"filtration quotient dimensions {jumps} increase")
        ensure(all(dims[c] >= c * jumps[c - 1] for c in range(1, len(dims))),
               f"filtration dimensions {dims[1:]} are too small for their quotients")
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "spaces", spaces)

    def __setattr__(self, name, value):
        raise AttributeError("EigenFiltration is immutable")

    @property
    def dims(self):
        return tuple(s.dim for s in self.spaces)

    def __eq__(self, other):
        return (isinstance(other, EigenFiltration)
                and self.eigenvalue == other.eigenvalue
                and self.spaces == other.spaces)

    def __hash__(self):
        return hash((self.eigenvalue, self.spaces))

    def __repr__(self):
        return f"EigenFiltration({self.eigenvalue!r}, dims={self.dims})"


def filtration(a, lam):
    """Generalized eigenspace chain of A at lam, stopped at stabilization."""
    lam = _scalar(lam)
    spaces = []
    prev, c = 0, 1
    while True:
        e = generalized_eigenspace(a, lam, c)
        if e.dim == prev:
            break
        spaces.append(e)
        prev, c = e.dim, c + 1
    return EigenFiltration(lam, spaces)


def jfold(t, lam, c, s):
    """Intersection of the degree-c generalized lam-eigenspaces over the
    index subset s."""
    lam = _scalar(lam)
    out = Subspace.full(t.n)
    for i in sorted(set(s)):
        out = out.intersection(generalized_eigenspace(t.elements[i], lam, c))
    return out


# ---------------------------------------------------------------------------
# depth


class DepthProfile:
    """Table j -> dimension of the j-fold eigenspace, plus the depth: the
    largest j at which that dimension is still positive."""

    __slots__ = ("eigenvalue", "mu", "depth")

    def __init__(self, eigenvalue, mu):
        mu = tuple(mu)
        ensure(all(a >= b for a, b in zip(mu, mu[1:])),
               f"depth table {mu} increases")
        depth = max((j + 1 for j, m in enumerate(mu) if m > 0), default=0)
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "depth", depth)

    def __setattr__(self, name, value):
        raise AttributeError("DepthProfile is immutable")

    def __repr__(self):
        return f"DepthProfile({self.eigenvalue!r}, mu={self.mu}, depth={self.depth})"


def depth_profile(t, lam):
    """Depth data of lam on the set t.

    The table entry mu(j) is taken from the canonical subset {0..j-1}; for
    k <= 5 every same-size subset is cross-checked to give the same
    dimension.
    """
    lam = _scalar(lam)
    firsts = [generalized_eigenspace(a, lam, 1) for a in t.elements]
    if all(e.dim == 0 for e in firsts):
        raise NotAnEigenvalue(f"{lam!r} is not an eigenvalue")

    def meet(indices):
        out = Subspace.full(t.n)
        for i in indices:
            out = out.intersection(firsts[i])
        return out

    mu = []
    for j in range(1, t.k + 1):
        dim = meet(range(j)).dim
        if t.k <= 5:
            ensure(all(meet(s).dim == dim for s in combinations(range(t.k), j)),
                   f"{j}-fold eigenspace dimension depends on the subset")
        mu.append(dim)
    return DepthProfile(lam, mu)


# ---------------------------------------------------------------------------
# eigenvalue discovery


class Incomplete:
    """Roots found so far plus a residual factor the pool could not split."""

    __slots__ = ("roots", "residual")

    def __init__(self, roots, residual):
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError("Incomplete is immutable")

    def __repr__(self):
        return f"Incomplete(roots={list(self.roots)!r}, residual={self.residual!r})"


def _candidate_pool(extra):
    pool = [Scalar.rational(r) for r in range(-3, 4)] + [ZETA, ZETA_INV]
    for x in extra:
        x = _scalar(x)
        if x not in pool:
            pool.append(x)
    return pool


def discover_eigenvalues(a, pool=()):
    """Eigenvalues of A with multiplicity, sorted, or Incomplete.

    Trial deflation of the characteristic polynomial by each candidate in
    the pool (small rationals, the primitive sixth roots of unity, and any
    caller-supplied scalars), then a quadratic-formula finish on a residual
    of degree at most two.
    """
    p = char_poly(a)
    roots = []
    for c in _candidate_pool(pool):
        while p.degree > 0:
            q, rem = p.deflate(c)
            if not rem.is_zero():
                break
            roots.append(c)
            p = q
    if p.degree == 1:
        roots.append(-p.coeffs[0] * p.coeffs[1].inverse())
    elif p.degree == 2:
        c0, c1, c2 = p.coeffs
        disc = c1 * c1 - Scalar.rational(4) * c2 * c0
        if not disc.is_rational():
            return Incomplete(roots, p)
        try:
            s = sqrt_restricted(disc.rational_value())
        except NotRepresentable:
            return Incomplete(roots, p)
        half_inv = (TWO * c2).inverse()
        roots.extend([(-c1 + s) * half_inv, (-c1 - s) * half_inv])
    elif p.degree > 2:
        return Incomplete(roots, p)
    return sorted(roots, key=Scalar.sort_key)


# ---------------------------------------------------------------------------
# classification of commutative sets


class ClassificationResult:
    """Verdict of the commutative classification, with its payload: the
    weight on an Irreducible verdict, a proper invariant subspace on a
    ReducibleWitness verdict."""

    __slots__ = ("verdict", "weight", "subspace", "detail")

    def __init__(self, verdict, weight=None, subspace=None, detail=""):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name, value):
        raise AttributeError("ClassificationResult is immutable")

    @property
    def partition(self):
        return self.weight.partition if self.weight is not None else None

    def __repr__(self):
        extra = f", weight={self.weight!r}" if self.weight is not None else ""
        return f"ClassificationResult({self.verdict}{extra})"


def _orbit(column):
    return {tuple(column[s] for s in sigma)
            for sigma in permutations(range(len(column)))}


def classify_commutative(t, pool=()):
    """Decide whether a commutative set is the diagonal model on a weight.

    Simultaneous eigenspace refinement: each joint eigenline carries the
    k-tuple of eigenvalues its basis vector sees.  The set is the diagonal
    model of a weight exactly when those tuples enumerate a free
    permutation orbit, each tuple once.
    """
    if not is_commutative(t):
        raise NotCommutative("elements do not pairwise commute")
    candidates = tuple(pool) + tuple(t.params)
    blocks = [(Subspace.full(t.n), ())]
    for a in t.elements:
        found = discover_eigenvalues(a, candidates)
        if isinstance(found, Incomplete):
            return ClassificationResult(
                NOT_CLASSIFIED,
                detail=f"eigenvalue discovery stalled: {found!r}")
        eigenspaces = [(r, kernel(a - Matrix.scalar(t.n, r)))
                       for r in dict.fromkeys(found)]
        if sum(e.dim for _, e in eigenspaces) < t.n:
            return ClassificationResult(NON_DIAGONALIZABLE)
        refined = []
        for space, col in blocks:
            for r, e in eigenspaces:
                piece = space.intersection(e)
                if piece.dim:
                    refined.append((piece, col + (r,)))
        blocks = refined

    columns = [col for _, col in blocks]
    if all(space.dim == 1 for space, _ in blocks) and columns:
        orbit = _orbit(columns[0])
        if len(columns) == len(orbit) and set(columns) == orbit:
            values = sorted(columns[0], key=Scalar.sort_key)
            return ClassificationResult(IRREDUCIBLE, weight=Weight(values))

    # not a free orbit: exhibit a proper invariant subspace if one exists
    for i in range(t.k):
        classes = sorted({col[i] for col in columns}, key=Scalar.sort_key)
        if len(classes) > 1:
            witness = kernel(t.elements[i] - Matrix.scalar(t.n, classes[0]))
            return ClassificationResult(REDUCIBLE, subspace=witness)
    if t.n > 1:
        line = Subspace([blocks[0][0].basis[0]], t.n)
        return ClassificationResult(REDUCIBLE, subspace=line)
    return ClassificationResult(
        NOT_CLASSIFIED, detail="distinct scalars on a line")


# ---------------------------------------------------------------------------
# irreducibility certificates


class FullAlgebra:
    """The elements and witnesses generate all of End(K^n)."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("FullAlgebra is immutable")

    def __repr__(self):
        return f"FullAlgebra(dim={self.dim})"


class ProperAlgebra:
    """A proper generated algebra, with an invariant subspace when one was
    found over K."""

    __slots__ = ("dim", "invariant_subspace")

    def __init__(self, dim, invariant_subspace=None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "invariant_subspace", invariant_subspace)

    def __setattr__(self, name, value):
        raise AttributeError("ProperAlgebra is immutable")

    def __repr__(self):
        return f"ProperAlgebra(dim={self.dim})"


def irreducibility_certificate(t, witness=None):
    """Burnside test: the set is irreducible relative to its witness exactly
    when elements plus witness matrices generate the full matrix algebra.

    On a proper closure, searches for a K-rational invariant subspace as the
    module generated by an eigenvector.
    """
    witness = witness if witness is not None else t.witness
    if witness is None:
        raise ValueError("needs a realization witness")
    gens = list(t.elements) + list(witness)
    basis = algebra_closure(gens)
    if len(basis) == t.n * t.n:
        return FullAlgebra(len(basis))
    return ProperAlgebra(len(basis), _invariant_submodule(t, basis))


def _invariant_submodule(t, basis):
    found = discover_eigenvalues(t.elements[0], t.params)
    roots = found.roots if isinstance(found, Incomplete) else found
    for r in dict.fromkeys(roots):
        eigen = kernel(t.elements[0] - Matrix.scalar(t.n, r))
        for v in eigen.basis:
            module = Subspace([mat_vec(b, v) for b in basis], t.n)
            if module.dim < t.n:
                return module
    return None


# ---------------------------------------------------------------------------
# exact obstruction computations


def _printed_involution_pair():
    third_i3 = I_UNIT * SQRT3 * Scalar.rational(1, 3)
    sixth_i6 = I_UNIT * SQRT6 * Scalar.rational(1, 6)
    a1 = Matrix([
        [ONE, ZERO, -ONE - third_i3, -sixth_i6],
        [ZERO, ONE, -sixth_i6, -ONE + third_i3],
        [ZERO, ZERO, -ONE, ZERO],
        [ZERO, ZERO, ZERO, -ONE],
    ])
    a2 = Matrix([
        [-ONE, ZERO, ZERO, ZERO],
        [ZERO, -ONE, ZERO, ZERO],
        [-ONE + third_i3, sixth_i6, ONE, ZERO],
        [sixth_i6, -ONE - third_i3, ZERO, ONE],
    ])
    return a1, a2


def rep_obstruction_suite():
    """Exact checks that low-dimensional realizations cannot be upgraded to
    group representations: the braid-style relation A1*A2*A1 = A2*A1*A2
    fails for every noncommutative simplex set except the one on three
    elements, and the involution specialization of the spin construction
    violates (A1*A2)^3 = I."""
    checks = []
    for symbols in (3, 4, 5, 6):
        d = symbols - 2
        c1 = ONE - Scalar.rational(4, d * d)
        c2 = Scalar.rational(4, d * d) - ONE
        ok = (c1 == c2) == (symbols == 4)
        detail = f"first coordinates {c1!r} and {c2!r}"
        if symbols >= 4:
            t = ncsimplex(symbols - 1, -1, 1)
            a1, a2 = t.elements[0], t.elements[1]
            left, right = a1 * a2 * a1, a2 * a1 * a2
            ok = ok and left.rows[0][0] == c1 and right.rows[0][0] == c2
            ok = ok and (left == right) == (symbols == 4)
        checks.append(_check(f"obstruction.braid.{symbols}", ok, detail))

    t = tilde_sigma5_construction(1, -1)
    a1, a2 = t.elements[0], t.elements[1]
    p1, p2 = _printed_involution_pair()
    checks.append(_check(
        "obstruction.spin.involution_pair",
        a1 == p1 and a2 == p2,
        "first two elements at eigenvalues (1, -1)"))
    cube = (a1 * a2) ** 3
    checks.append(_check(
        "obstruction.spin.braid_power",
        cube != Matrix.identity(4),
        f"(A1*A2)^3 = {cube!r}" if cube == Matrix.identity(4) else ""))
    return checks


def halfdim_nonexistence_suite():
    """Exact checks behind the nonexistence of certain half-dimensional
    sets: the spin-generator block identity that rules out a single
    repeated eigenvalue with nontrivial Jordan structure, and the rank-2
    linear system that caps pairwise-complementary 2-plane families at
    five members."""
    ts = tilde_sigma5_rep()
    p34 = ts[2].submatrix(range(2), range(2))
    q34 = ts[2].submatrix(range(2, 4), range(2, 4))
    p45 = ts[3].submatrix(range(2), range(2))
    target = Matrix([[ZERO, SQRT2], [-SQRT2, ZERO]])
    checks = [
        _check("halfdim.block_identity",
               p45 * q34 - p34 * p45 == target,
               f"difference {p45 * q34 - p34 * p45!r}"),
        _check("halfdim.transport_clash",
               p45 != p34 * p45 * q34.inverse(),
               "conjugating the distant generator block must move it"),
    ]

    a4 = Matrix([[ZETA, (ZETA_INV - ZETA) * HALF], [ZERO, ZETA_INV]])
    a6 = Matrix([[HALF, SQRT3 * HALF * I_UNIT],
                 [SQRT3 * HALF * I_UNIT, HALF]])

    def residual(c, d):
        y = Matrix([[c + d, c - d], [d - c, -c - d]])
        return a6 * y * a4 - a4 * y

    sc, sd = residual(ONE, ZERO), residual(ZERO, ONE)
    top_row_ok = (sc.rows[0][0] == HALF - SQRT3 * I_UNIT
                  and sd.rows[0][0] == -ONE + SQRT3 * HALF * I_UNIT
                  and sc.rows[0][1] == -Scalar.rational(7, 2) * ZETA
                  and sd.rows[0][1] == -HALF * ZETA * ZETA)
    checks.append(_check(
        "halfdim.top_row_coefficients",
        top_row_ok,
        f"coefficient rows {sc.rows[0]!r}, {sd.rows[0]!r}"))
    system = Matrix.from_columns([matrix_to_vec(sc), matrix_to_vec(sd)])
    checks.append(_check(
        "halfdim.system_rank",
        kernel(system).dim == 0,
        "the 4x2 coefficient system admits only the zero solution"))
    return checks
