"""Catalog of totally symmetric sets and arrangements, with exact witnesses.

Diagonal families (standard, partition, permutation type), the induction
construction, the simplex family with duals, systems and suspensions,
eigenspace constructions over decomposition systems, the five-element
family attached to the double cover of Sigma_5, and the sporadic
four-element set in dimension four.  Every constructor returns an object
whose bundled witness passes exact verification.
"""

from itertools import combinations
from math import comb, factorial, prod

from .core import (
    Arrangement,
    DecompositionSystem,
    Tss,
    Weight,
    realize_permutation,
    suspension,
    swap_adjacent,
)
from .field import (
    HALF,
    I_UNIT,
    MU_SPORADIC,
    ONE,
    SQRT3,
    SQRT6,
    TWO,
    ZERO,
    ZETA,
    ZETA_INV,
    Scalar,
    as_scalar,
)
from .linalg import Matrix, Subspace, kernel

__all__ = [
    "DuplicateEigenvalue",
    "EqualEigenvalues",
    "NotInjective",
    "Weight",
    "dual_simplex_arrangement",
    "eigenspace_construction",
    "induction",
    "ncsimplex",
    "partition_construction",
    "permutation_type",
    "simplex_arrangement",
    "simplex_system",
    "sporadic4",
    "standard",
    "suspension_simplex",
    "tilde_sigma5_arrangement",
    "tilde_sigma5_construction",
    "tilde_sigma5_rep",
    "tilde_sigma5_system",
]


class EqualEigenvalues(ValueError):
    pass


class NotInjective(ValueError):
    pass


class DuplicateEigenvalue(ValueError):
    pass


def _diag(entries):
    entries = list(entries)
    n = len(entries)
    return Matrix([[entries[r] if r == c else ZERO for c in range(n)]
                   for r in range(n)])


# the largest ambient dimension a constructor builds: 5! = 120 admits every
# weight of up to five values
MAX_DIM = 120
# the most scalar entries a constructor builds, members and witnesses
# together: 2^17 admits the permutation set of five values, 9 * 120^2
MAX_ENTRIES = 2 ** 17


def _require_size(dim, what, k, d=None, unit="dimensions"):
    """Refuse a construction of k members on K^dim before any matrix of it
    is built: first by its dimension, then by its scalar entries, the
    members (dim-by-dim matrices, or the d basis vectors of a plane) and
    the k - 1 witnesses together."""
    if dim > MAX_DIM:
        raise ValueError(f"{what} has {dim} {unit}, more than the {MAX_DIM} "
                         f"a construction may have")
    entries = k * (dim if d is None else d) * dim + (k - 1) * dim * dim
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} has {entries} scalar entries, more than the "
                         f"{MAX_ENTRIES} a construction may build")


def _perm_matrix(one_line):
    """P with P e_c = e_{sigma(c)} for sigma in one-line, 0-based notation."""
    n = len(one_line)
    return Matrix([[ONE if r == one_line[c] else ZERO for c in range(n)]
                   for r in range(n)])


# ---------------------------------------------------------------------------
# diagonal families


def standard(k, lam=2, nu=1):
    """k diagonal k-by-k matrices: nu in slot i, lam elsewhere."""
    lam, nu = as_scalar(lam), as_scalar(nu)
    if lam == nu:
        raise EqualEigenvalues("slot and background eigenvalues coincide")
    if k < 1:
        raise ValueError("need k >= 1")
    _require_size(k, "the standard set", k)
    elements = [_diag([nu if j == i else lam for j in range(k)])
                for i in range(k)]
    witness = [_perm_matrix(swap_adjacent(range(k), j)) for j in range(k - 1)]
    return Tss(elements, witness=witness, params=(lam, nu))


def partition_construction(w):
    """Diagonal set on the orbit of a weight under coordinate permutations.

    Basis vectors are the distinct reorderings f of the weight values;
    element i scales f by f(i), and transpositions act by precomposition.
    The dimension is the multinomial coefficient of the weight's partition,
    and a weight whose orbit exceeds MAX_DIM points, or whose set exceeds
    MAX_ENTRIES scalar entries, is refused before anything is built.
    """
    if not isinstance(w, Weight):
        w = Weight(w)
    _require_size(factorial(w.k) // prod(factorial(m) for m in w.partition),
                  "the orbit of this weight", w.k, unit="points")
    orbit = list(w.orbit())
    index = {f: a for a, f in enumerate(orbit)}
    elements = [_diag([f[i] for f in orbit]) for i in range(w.k)]
    witness = [_perm_matrix([index[tuple(swap_adjacent(f, j))] for f in orbit])
               for j in range(w.k - 1)]
    return Tss(elements, witness=witness, params=tuple(orbit[0]))


def permutation_type(values):
    """The k!-dimensional diagonal set of an injective weight."""
    w = values if isinstance(values, Weight) else Weight(values)
    if len(set(w.values)) != w.k:
        raise NotInjective("values must be pairwise distinct")
    return partition_construction(w)


# ---------------------------------------------------------------------------
# induction


def induction(t, p, lam):
    """Extend a witnessed k-element set by p indices with eigenvalue lam.

    The result acts on one copy of the original space per p-subset S of the
    k+p indices.  A fixed permutation sigma_S sends S monotonically onto the
    top block (and the rest monotonically onto the bottom); element i acts
    on the S-block through the original element indexed by sigma_S(i), read
    as lam*I when that index lands in the top block.  Realization matrices
    permute the blocks and twist each by a realized original permutation.
    The dimension is C(k+p, p) times the original one.
    """
    lam = as_scalar(lam)
    if t.witness is None:
        raise ValueError("induction needs a witnessed set")
    if p < 1:
        raise ValueError("need at least one new index")
    k, n = t.k, t.n
    _require_size(comb(k + p, p) * n, "the induced set", k + p)
    kp = k + p
    subsets = list(combinations(range(kp), p))
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
            grid[index[ts]][a] = realize_permutation(t.witness, pi, n=n)
        witness.append(Matrix.block(grid))
    return Tss(elements, witness=witness, params=t.params + (lam,))


# ---------------------------------------------------------------------------
# the simplex family


def _simplex_points(n):
    pts = [tuple(ONE if r == i else ZERO for r in range(n)) for i in range(n)]
    pts.append(tuple(-ONE for _ in range(n)))
    return pts


def _simplex_covectors(n):
    diag = Scalar.rational(n)
    rows = [tuple(diag if j == i else -ONE for j in range(n))
            for i in range(n)]
    rows.append(tuple(-ONE for _ in range(n)))
    return rows


def _simplex_witness(n):
    """Transposition matrices permuting the n+1 simplex points on the nose."""
    mats = []
    for j in range(n - 1):
        mats.append(_perm_matrix(swap_adjacent(range(n), j)))
    last = [[-ONE if c == n - 1 else (ONE if r == c else ZERO)
             for c in range(n)] for r in range(n)]
    mats.append(Matrix(last))
    return mats


def simplex_arrangement(n):
    """The n+1 vertex lines of a simplex spanning K^n, strongly witnessed."""
    if n < 1:
        raise ValueError("need n >= 1")
    _require_size(n, "the simplex arrangement", n + 1, d=1)
    pts = _simplex_points(n)
    wit = _simplex_witness(n)
    reps = [Matrix.from_columns([v]) for v in pts]
    return Arrangement([Subspace([v], n) for v in pts], witness=wit,
                       representatives=reps)


def dual_simplex_arrangement(n):
    """The n+1 hyperplanes cut out by the simplex vertex covectors."""
    if n < 1:
        raise ValueError("need n >= 1")
    _require_size(n, "the dual simplex arrangement", n + 1, d=n - 1)
    planes = [kernel(Matrix([row])) for row in _simplex_covectors(n)]
    return Arrangement(planes, witness=_simplex_witness(n))


def simplex_system(n):
    """Each simplex line paired with its complementary covector kernel."""
    if n < 1:
        raise ValueError("need n >= 1")
    # each row of the grid is n basis vectors of K^n
    _require_size(n, "the simplex system", n + 1)
    grid = [(Subspace([v], n), kernel(Matrix([c])))
            for v, c in zip(_simplex_points(n), _simplex_covectors(n))]
    return DecompositionSystem(grid, witness=_simplex_witness(n))


def suspension_simplex(n, lam=2):
    """The suspension of the simplex lines: pairs (lam*I, point column)."""
    _require_size(n + 1, "the suspended simplex", n + 1)
    return suspension(simplex_arrangement(n), as_scalar(lam))


# ---------------------------------------------------------------------------
# eigenspace constructions


def eigenspace_construction(d, eigenvalues):
    """One matrix per grid row, acting as the j-th eigenvalue on part j."""
    eigs = [as_scalar(x) for x in eigenvalues]
    if len(eigs) != d.parts:
        raise ValueError("need exactly one eigenvalue per part")
    if len(set(eigs)) != len(eigs):
        raise DuplicateEigenvalue("eigenvalues must be pairwise distinct")
    elements = []
    for row in d.grid:
        cols, diag = [], []
        for lam, part in zip(eigs, row):
            cols.extend(part.basis)
            diag.extend([lam] * part.dim)
        u = Matrix.from_columns(cols)
        elements.append(u * _diag(diag) * u.inverse())
    return Tss(elements, witness=d.witness, params=tuple(eigs))


def ncsimplex(k, lam=2, mu=1):
    """k matrices in dimension k-1: eigenvalue lam on a simplex line, mu on
    the complementary hyperplane.  Noncommutative for k >= 3."""
    lam, mu = as_scalar(lam), as_scalar(mu)
    if lam == mu:
        raise EqualEigenvalues("line and hyperplane eigenvalues coincide")
    if k < 2:
        raise ValueError("need k >= 2")
    return eigenspace_construction(simplex_system(k - 1), [lam, mu])


# ---------------------------------------------------------------------------
# the five-element family in dimension four

_THIRD = Scalar.rational(1, 3)
_SIXTH = Scalar.rational(1, 6)


def tilde_sigma5_rep():
    """Four 4x4 matrices satisfying the spin presentation of Sigma_5:
    generator squares and braid cubes equal -I, distant pairs anticommute."""
    zeta2 = ZETA * ZETA
    p12 = Matrix([[ZERO, -ONE], [ONE, ZERO]])
    p34 = Matrix([[ZERO, -zeta2], [-ZETA, ZERO]])
    q34 = Matrix([[ZERO, -ZETA], [-zeta2, ZERO]])
    s63 = I_UNIT * SQRT6 * _THIRD
    s33 = I_UNIT * SQRT3 * _THIRD
    p45 = Matrix([[s63, s33], [s33, -s63]])
    zero = Matrix.zero(2, 2)
    return [
        Matrix.block([[zero, p12], [p12, zero]]),
        Matrix.block([[p12, -p12], [zero, -p12]]),
        Matrix.block([[p34, zero], [zero, q34]]),
        Matrix.block([[p45, zero], [zero, p45]]),
    ]


def _plane_representatives():
    eye = Matrix.identity(2)
    zero = Matrix.zero(2, 2)
    a4 = _diag([ZETA, ZETA_INV])
    s36 = I_UNIT * SQRT3 * _SIXTH
    s63 = I_UNIT * SQRT6 * _THIRD
    a5 = Matrix([[HALF + s36, s63], [s63, HALF - s36]])
    return [
        Matrix.block([[eye], [zero]]),
        Matrix.block([[zero], [eye]]),
        Matrix.block([[eye], [eye]]),
        Matrix.block([[a4], [eye]]),
        Matrix.block([[a5], [eye]]),
    ]


def _first_complement():
    s612 = I_UNIT * SQRT6 * Scalar.rational(1, 12)
    s36 = I_UNIT * SQRT3 * _SIXTH
    return Matrix([
        [s612, HALF + s36],
        [HALF - s36, s612],
        [ZERO, ONE],
        [ONE, ZERO],
    ])


def _staircase(ts):
    """Lifts L_i with L_1 = I and L_{i+1} = T_i L_i, sending index 1 to i."""
    lifts = [Matrix.identity(4)]
    for t in ts:
        lifts.append(t * lifts[-1])
    return lifts


def tilde_sigma5_arrangement():
    """Five pairwise-complementary 2-planes in K^4, permuted by the spin
    representation matrices."""
    planes = [Subspace.from_matrix_columns(w) for w in _plane_representatives()]
    return Arrangement(planes, witness=tilde_sigma5_rep())


def tilde_sigma5_system():
    """Each of the five 2-planes paired with its transported complement."""
    ts = tilde_sigma5_rep()
    lifts = _staircase(ts)
    w1a = _first_complement()
    planes = [Subspace.from_matrix_columns(w) for w in _plane_representatives()]
    comps = [Subspace.from_matrix_columns(l * w1a) for l in lifts]
    return DecompositionSystem(list(zip(planes, comps)), witness=ts)


def tilde_sigma5_construction(lam=2, mu=1):
    """Five matrices with eigenvalue lam on the i-th 2-plane and mu on its
    complement, conjugate-transported along the spin generators."""
    lam, mu = as_scalar(lam), as_scalar(mu)
    if lam == mu:
        raise EqualEigenvalues("plane and complement eigenvalues coincide")
    ts = tilde_sigma5_rep()
    m = Matrix.block([[_plane_representatives()[0], _first_complement()]])
    base = m * _diag([lam, lam, mu, mu]) * m.inverse()
    elements = [l * base * l.inverse() for l in _staircase(ts)]
    return Tss(elements, witness=ts, params=(lam, mu))


# ---------------------------------------------------------------------------
# the sporadic four-element set


def sporadic4(nu=1):
    """Four commuting 4x4 matrices, single eigenvalue nu of depth two.

    The strictly upper blocks are the identity together with the simplex
    trio at the quadratic parameter mu = (-1 + 2*sqrt2*i)/3, lam = 1/mu;
    the first transposition is realized by an asymmetric pair (P, Q), the
    others by doubled simplex witnesses.
    """
    nu = as_scalar(nu)
    mu = MU_SPORADIC
    lam = mu.inverse()
    alpha = (mu - lam) * HALF
    trio = ncsimplex(3, lam, mu)
    eye2 = Matrix.identity(2)
    zero2 = Matrix.zero(2, 2)
    nu2 = Matrix.scalar(2, nu)
    elements = [Matrix.block([[nu2, x], [zero2, nu2]])
                for x in [eye2] + list(trio.elements)]
    b = alpha.inverse() * (ONE - mu)
    p = Matrix([[ONE, b], [TWO, -ONE]])
    q = Matrix([[lam, alpha + mu * b], [TWO * lam, -lam]])
    witness = [Matrix.block([[p, zero2], [zero2, q]])]
    witness += [Matrix.block([[w, zero2], [zero2, w]]) for w in trio.witness]
    return Tss(elements, witness=witness, params=(nu,))
