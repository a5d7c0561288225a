"""Eigenstructure analytics for totally symmetric sets.

Weights, generalized eigenspace filtrations, j-fold eigenspaces and depth
profiles, restricted eigenvalue discovery over K, the classification
algorithm for commutative sets, Burnside-style irreducibility certificates,
and the ``ensure`` invariant check; it imports only ``field`` and ``linalg``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, islice

from .field import (
    TWO,
    ZETA,
    ZETA_INV,
    NotRepresentable,
    Scalar,
    as_scalar,
    sqrt_restricted,
)
from .linalg import (
    Polynomial,
    Subspace,
    algebra_closure,
    char_poly,
    kernel,
    mat_vec,
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
    "irreducibility_certificate",
    "jfold",
]

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "ReducibleWitness"
NON_DIAGONALIZABLE = "NonDiagonalizable"
NOT_CLASSIFIED = "NotClassified"


class InvariantViolation(ValueError):
    """An internal invariant failed: a fault in the computation, not a verdict.

    Raised instead of ``assert`` so that the check also runs under
    ``python -O``; as a ValueError it makes the CLI exit with code 2.
    """


def ensure(condition, message):
    """Raise InvariantViolation(message) unless condition holds."""
    if not condition:
        raise InvariantViolation(message)


class NotAnEigenvalue(ValueError):
    """The requested scalar is not an eigenvalue of any element."""


class NotCommutative(ValueError):
    """The classification algorithm needs a commutative set."""


_NOT_COMMUTATIVE = "elements do not pairwise commute"


def is_commutative(t):
    els = t.elements
    return all(a * b == b * a for i, a in enumerate(els) for b in els[i + 1:])


# ---------------------------------------------------------------------------
# filtrations


def generalized_eigenspace(a, lam, c):
    """Kernel of (A - lam*I)^c."""
    if c < 1:
        raise ValueError("need degree c >= 1")
    lam = as_scalar(lam)
    return kernel(a.shift(-lam) ** c)


@dataclass(frozen=True, slots=True)
class EigenFiltration:
    """The strictly increasing chain E_{lam,1} < E_{lam,2} < ... computed
    until it stabilizes.  Empty when lam is not an eigenvalue."""

    eigenvalue: Scalar
    spaces: tuple

    def __post_init__(self):
        spaces = tuple(self.spaces)
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
        object.__setattr__(self, "spaces", spaces)

    @property
    def dims(self):
        return tuple(s.dim for s in self.spaces)


def filtration(a, lam):
    """Generalized eigenspace chain of A at lam, stopped at stabilization."""
    lam = as_scalar(lam)
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
    lam = as_scalar(lam)
    out = Subspace.full(t.n)
    for i in sorted(set(s)):
        out = out.intersection(generalized_eigenspace(t.elements[i], lam, c))
    return out


# ---------------------------------------------------------------------------
# depth


@dataclass(frozen=True, slots=True)
class DepthProfile:
    """Table j -> dimension of the j-fold eigenspace, plus the depth: the
    largest j at which that dimension is still positive."""

    eigenvalue: Scalar
    mu: tuple
    depth: int = field(init=False)

    def __post_init__(self):
        mu = tuple(self.mu)
        ensure(all(a >= b for a, b in zip(mu, mu[1:])),
               f"depth table {mu} increases")
        depth = max((j + 1 for j, m in enumerate(mu) if m > 0), default=0)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "depth", depth)


def depth_profile(t, lam):
    """Depth data of lam on the set t.

    The table entry mu(j) is taken from the canonical subset {0..j-1}; for
    k <= 5 every same-size subset is cross-checked to give the same
    dimension.  Each meet over a sorted index tuple is its prefix's meet
    intersected once more, so subsets sharing a prefix share its work.
    """
    lam = as_scalar(lam)
    firsts = [generalized_eigenspace(a, lam, 1) for a in t.elements]
    if all(e.dim == 0 for e in firsts):
        raise NotAnEigenvalue(f"{lam!r} is not an eigenvalue")
    meets = {(i,): e for i, e in enumerate(firsts)}

    def meet(indices):
        out = meets.get(indices)
        if out is None:
            out = meets[indices] = meet(indices[:-1]).intersection(firsts[indices[-1]])
        return out

    mu = []
    for j in range(1, t.k + 1):
        dim = meet(tuple(range(j))).dim
        if t.k <= 5:
            ensure(all(meet(s).dim == dim for s in combinations(range(t.k), j)),
                   f"{j}-fold eigenspace dimension depends on the subset")
        mu.append(dim)
    return DepthProfile(lam, mu)


# ---------------------------------------------------------------------------
# eigenvalue discovery


@dataclass(frozen=True, slots=True)
class Incomplete:
    """Roots found so far, sorted, plus a residual factor the candidates
    could not split."""

    roots: tuple
    residual: Polynomial

    def __post_init__(self):
        roots = tuple(sorted(self.roots, key=Scalar.sort_key))
        object.__setattr__(self, "roots", roots)

    def __repr__(self):
        # the detail of a NotClassified report, so its text is fixed
        return f"Incomplete(roots={list(self.roots)!r}, residual={self.residual!r})"


_FIXED_POOL = (*(Scalar.rational(r) for r in range(-3, 4)), ZETA, ZETA_INV)


def discover_eigenvalues(a, candidates=()):
    """Eigenvalues of A with multiplicity, sorted, or Incomplete.

    Trial deflation of the characteristic polynomial by the candidates in
    the order given, then the fixed pool (small rationals and the primitive
    sixth roots of unity), each scalar once, then a quadratic-formula finish
    on a residual of degree at most two.  Each root among the candidates is
    divided out to its full multiplicity, so the result does not depend on
    the order of the candidates, only the work does.
    """
    p = char_poly(a)
    roots = []
    for c in dict.fromkeys([*map(as_scalar, candidates), *_FIXED_POOL]):
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


@dataclass(frozen=True, slots=True)
class Weight:
    """A tuple of eigenvalues; equal entries mark the same partition part."""

    values: tuple

    def __post_init__(self):
        values = tuple(as_scalar(v) for v in self.values)
        if not values:
            raise ValueError("weight needs at least one value")
        object.__setattr__(self, "values", values)

    @property
    def k(self):
        return len(self.values)

    @property
    def partition(self):
        return tuple(sorted(Counter(self.values).values(), reverse=True))

    def orbit(self):
        """Yield each distinct rearrangement of the values once, in increasing
        order of their tuples of sort keys.

        Steps through the multiset permutations in lexicographic order, so
        the work is proportional to the orbit, not to the k! permutations.
        """
        distinct = sorted(set(self.values), key=Scalar.sort_key)
        word = sorted(distinct.index(v) for v in self.values)
        while True:
            yield tuple(distinct[r] for r in word)
            i = len(word) - 2
            while i >= 0 and word[i] >= word[i + 1]:
                i -= 1
            if i < 0:
                return
            j = len(word) - 1
            while word[j] <= word[i]:
                j -= 1
            word[i], word[j] = word[j], word[i]
            word[i + 1:] = reversed(word[i + 1:])


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    """Verdict of the commutative classification, with its payload: the
    weight on an Irreducible verdict, a proper invariant subspace on a
    ReducibleWitness verdict."""

    verdict: str
    weight: Weight | None = None
    subspace: Subspace | None = None
    detail: str = ""

    @property
    def partition(self):
        return self.weight.partition if self.weight is not None else None


def classify_commutative(t, pool=()):
    """Decide whether a commutative set is the diagonal model on a weight.

    Simultaneous eigenspace refinement: each joint eigenline carries the
    k-tuple of eigenvalues its basis vector sees.  The set is the diagonal
    model of a weight exactly when those tuples enumerate a free
    permutation orbit, each tuple once.  Raises NotCommutative whenever two
    elements do not commute, whatever else the refinement finds.
    """
    blocks = _joint_eigenspaces(t, tuple(pool) + tuple(t.params))
    if isinstance(blocks, ClassificationResult):
        # the refinement stopped before it proved that the elements commute
        if not is_commutative(t):
            raise NotCommutative(_NOT_COMMUTATIVE)
        return blocks
    return _classify_blocks(t, blocks)


def _joint_eigenspaces(t, candidates):
    """The joint eigenspaces of the elements as (Subspace, column of
    eigenvalues) pairs, or the NotClassified / NonDiagonalizable result
    that stopped the refinement.

    The refinement starts from the one block K^n and splits it by each
    element in turn, through the element's restriction M to each block: a
    diagonal M (on a line, always) gives its roots as its entries, any
    other M has them discovered with the roots already known (element 0's,
    once it is split, then the candidates) tried first, and each piece is
    ker(M - r) lifted back to K^n.  The earlier elements act as scalars on
    a block and the blocks make a direct sum of K^n, so an element that
    moves a block does not commute with them (NotCommutative), and a
    refinement that reaches the end has proven that all elements pairwise
    commute.
    """
    blocks = [(Subspace.full(t.n), ())]
    known = candidates
    for j in range(t.k):
        blocks = _split_blocks(t, j, blocks, known, candidates)
        if isinstance(blocks, ClassificationResult):
            return blocks
        if sum(space.dim for space, _ in blocks) < t.n:
            return ClassificationResult(NON_DIAGONALIZABLE)
        if not j:
            known = (*dict.fromkeys(col[0] for _, col in blocks), *candidates)
    return blocks


def _split_blocks(t, j, blocks, known, candidates):
    """The blocks refined by the eigenspaces of element j on each of them,
    or the NotClassified result of a block whose discovery stalled."""
    a = t.elements[j]
    refined = []
    for space, col in blocks:
        restricted = space.restriction(a)
        if restricted is None:
            raise NotCommutative(_NOT_COMMUTATIVE)
        entries = restricted.diagonal()
        if entries is not None:
            # the eigenvalues are the entries, each piece spanned by basis rows
            roots = sorted(set(entries), key=Scalar.sort_key)
            if len(roots) == 1:
                refined.append((space, col + (roots[0],)))
                continue
            rows = space.rows
            pieces = [Subspace([rows[i] for i, x in enumerate(entries) if x == r],
                               t.n) for r in roots]
        else:
            found = discover_eigenvalues(restricted, known)
            if isinstance(found, Incomplete):
                return _whole_stall(t, j, candidates)
            roots = list(dict.fromkeys(found))
            pieces = [space.lift(kernel(restricted.shift(-r))) for r in roots]
        refined.extend((piece, col + (r,)) for r, piece in zip(roots, pieces))
    return refined


def _whole_stall(t, j, candidates):
    """The NotClassified result for a block of element j that stalled, with
    the detail of whole-element discovery: that of the first of elements
    0..j that stalls.  A block's characteristic polynomial divides the
    whole element's, and the block tries every candidate the whole element
    does, so element j's whole discovery stalls as well."""
    whole = [discover_eigenvalues(a, candidates) for a in t.elements[:j + 1]]
    ensure(isinstance(whole[-1], Incomplete),
           f"element {j} stalls on a block but not on K^{t.n}")
    return _not_classified(next(w for w in whole if isinstance(w, Incomplete)))


def _not_classified(found):
    return ClassificationResult(
        NOT_CLASSIFIED, detail=f"eigenvalue discovery stalled: {found!r}")


def _classify_blocks(t, blocks):
    """The verdict on a commutative set from its joint eigenspaces."""
    columns = [col for _, col in blocks]
    if t.k and all(space.dim == 1 for space, _ in blocks):
        weight = Weight(sorted(columns[0], key=Scalar.sort_key))
        orbit = list(islice(weight.orbit(), len(columns) + 1))
        if len(columns) == len(orbit) and set(columns) == set(orbit):
            return ClassificationResult(IRREDUCIBLE, weight=weight)

    # not a free orbit: exhibit a proper invariant subspace if one exists.
    # The blocks make a direct sum of K^n, so ker(A_i - c) is spanned by the
    # blocks whose column has c at i.
    for i in range(t.k):
        classes = sorted({col[i] for col in columns}, key=Scalar.sort_key)
        if len(classes) > 1:
            witness = Subspace([row for space, col in blocks if col[i] == classes[0]
                                for row in space.rows], t.n)
            return ClassificationResult(REDUCIBLE, subspace=witness)
    if t.n > 1:
        line = Subspace([blocks[0][0].basis[0]], t.n)
        return ClassificationResult(REDUCIBLE, subspace=line)
    return ClassificationResult(
        NOT_CLASSIFIED,
        detail="distinct scalars on a line" if t.k else "the empty set on a line")


# ---------------------------------------------------------------------------
# irreducibility certificates


@dataclass(frozen=True, slots=True)
class FullAlgebra:
    """The elements and witnesses generate all of End(K^n)."""

    dim: int


@dataclass(frozen=True, slots=True)
class ProperAlgebra:
    """A proper generated algebra, with an invariant subspace when one was
    found over K."""

    dim: int
    invariant_subspace: Subspace | None = None


def irreducibility_certificate(t):
    """Burnside test: the set is irreducible relative to its witness
    ``t.witness`` exactly when elements plus witness matrices generate the
    full matrix algebra.  Raises ValueError when the set has no witness.

    On a proper closure, searches for a K-rational invariant subspace as the
    module generated by an eigenvector.
    """
    if t.witness is None:
        raise ValueError("needs a realization witness")
    # A_2..A_k are conjugates of A_1 by a realizing witness, so the closure
    # finds them in its span and skips them; the witness is not trusted, and
    # an A_i outside the span is still multiplied in
    basis = algebra_closure([*t.elements[:1], *t.witness, *t.elements[1:]])
    if len(basis) == t.n * t.n:
        return FullAlgebra(len(basis))
    return ProperAlgebra(len(basis), _invariant_submodule(t, basis))


def _invariant_submodule(t, basis):
    found = discover_eigenvalues(t.elements[0], t.params)
    roots = found.roots if isinstance(found, Incomplete) else found
    for r in dict.fromkeys(roots):
        eigen = kernel(t.elements[0].shift(-r))
        for v in eigen.basis:
            module = Subspace([mat_vec(b, v) for b in basis], t.n)
            if module.dim < t.n:
                return module
    return None
