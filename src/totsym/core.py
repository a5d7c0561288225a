"""Totally symmetric sets and subspace arrangements, with exact verification.

A family of square matrices is *totally symmetric* when every permutation
of its members is realized by conjugation with a single invertible matrix;
a family of equal-dimensional subspaces is totally symmetric when
permutations are realized by invertible linear transport.  Witnesses for
the adjacent transpositions suffice, since conjugation and transport are
group actions.

Verification is witness-first: a bundled witness is rechecked exactly
(cheap), and a Sylvester-system solver searches for fresh witnesses when
none is supplied or the bundled one fails.  Restriction, quotient and
reduction take their blocks from ``linalg.Subspace``, with no change of
basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .field import Scalar, as_scalar
from .linalg import (
    Matrix,
    Singular,
    Subspace,
    conjugate_space,
    intertwiner_space,
    invertible_in_space,
    structurally_singular,
    transport_space,
    vec_to_matrix,
)

TOTALLY_SYMMETRIC = "TotallySymmetric"
NOT_TOTALLY_SYMMETRIC = "NotTotallySymmetric"
DEGENERATE = "Degenerate"


class NotInvariant(ValueError):
    pass


class NotComplementary(ValueError):
    pass


class NoStrongWitness(ValueError):
    pass


class InvariantViolation(ValueError):
    """An internal invariant failed: a fault in the computation, not a verdict.

    Raised instead of ``assert`` so that the check also runs under
    ``python -O``; as a ValueError it makes the CLI exit with code 2.
    """


def ensure(condition, message):
    """Raise InvariantViolation(message) unless condition holds."""
    if not condition:
        raise InvariantViolation(message)


def swap_adjacent(seq, j):
    """The items of seq as a list, with positions j and j+1 exchanged."""
    out = list(seq)
    out[j], out[j + 1] = out[j + 1], out[j]
    return out


def _assign(record, **values):
    """Set fields of a frozen record; used by __post_init__ to canonicalise."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


@dataclass(frozen=True, slots=True)
class Weight:
    """A tuple of eigenvalues; equal entries mark the same partition part."""

    values: tuple

    def __post_init__(self):
        values = tuple(as_scalar(v) for v in self.values)
        if not values:
            raise ValueError("weight needs at least one value")
        _assign(self, values=values)

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


def _check_witness(transpositions, k, n):
    """Raise ValueError unless there are k-1 transposition matrices, each n×n."""
    if len(transpositions) != max(k - 1, 0):
        raise ValueError("witness must have k-1 transposition matrices")
    for j, p in enumerate(transpositions):
        if p.m != p.n:
            raise ValueError(f"non-square witness matrix {j}: {p.m}x{p.n}")
        if p.n != n:
            raise ValueError(f"witness matrix {j} is {p.n}x{p.n}, not {n}x{n}")


def _family(members, witness, n):
    """The canonical (members, witness, k) of an indexed family acting on K^n.

    A witness is a tuple of k-1 invertible n×n matrices; entry j realizes
    the adjacent transposition (j, j+1).  A realized permutation keeps two
    equal members equal wherever it sends them, so a symmetric family with
    one collision has all members equal, and a partial collision collapses
    to the first member, with no witness.  A family whose members are all
    equal keeps its k and, without a witness, gets identity witnesses.
    """
    distinct = len(set(members))
    if 1 < distinct < len(members):
        return members[:1], None, 1
    k = len(members)
    if witness is not None:
        witness = tuple(witness)
        _check_witness(witness, k, n)
    elif distinct == 1:
        witness = (Matrix.identity(n),) * (k - 1)
    return members, witness, k


@dataclass(frozen=True, slots=True)
class Tss:
    """An indexed set of k square matrices over K, in the canonical form of
    ``_family``.  The witness is a certificate, not identity."""

    elements: tuple
    witness: tuple | None = field(default=None, compare=False)
    n: int | None = None
    # spectral parameters attached at construction; a hint for eigenvalue
    # discovery, carrying no identity weight (like the witness)
    params: tuple = field(default=(), compare=False)
    k: int = field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        n = self.n
        if elements:
            n = elements[0].n
            for a in elements:
                if a.m != a.n or a.n != n:
                    raise ValueError("elements must be square and equal-sized")
        elif n is None:
            raise ValueError("empty set needs an explicit ambient dimension")
        elements, witness, k = _family(elements, self.witness, n)
        _assign(self, elements=elements, witness=witness, n=n, k=k,
                params=tuple(as_scalar(p) for p in self.params))

    @property
    def degenerate(self):
        return len(set(self.elements)) <= 1

    def __repr__(self):
        return f"Tss(k={self.k}, n={self.n}, degenerate={self.degenerate})"


@dataclass(frozen=True, slots=True)
class Arrangement:
    """An indexed set of k subspaces of K^n, all of dimension d, in the
    canonical form of ``_family``.

    Plane representatives, if given, are k matrices M_i, each n×d, whose
    columns span W_i; the witness is meant to move them on the nose,
    P_j · M_i = M_{tau_j(i)} entrywise (``suspension`` checks it).  They
    need a witness, and a collapsed family drops them with its witness.
    """

    planes: tuple
    witness: tuple | None = field(default=None, compare=False)
    representatives: tuple | None = field(default=None, compare=False)
    n: int = field(init=False)
    d: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        given = tuple(self.planes)
        if not given:
            raise ValueError("arrangement needs at least one plane")
        n = given[0].n
        d = given[0].dim
        for w in given:
            if w.n != n or w.dim != d:
                raise ValueError("planes must share ambient and plane dimension")
        planes, witness, k = _family(given, self.witness, n)
        reps = self.representatives
        if k < len(given):  # the family collapsed
            reps = None
        elif reps is not None:
            if witness is None:
                raise ValueError("plane representatives need a witness")
            reps = tuple(reps)
            if len(reps) != k or any(m.m != n or m.n != d for m in reps):
                raise ValueError(
                    f"a strong witness needs {k} representatives, each {n}x{d}")
        _assign(self, planes=planes, witness=witness, representatives=reps,
                n=n, d=d, k=k)

    @property
    def degenerate(self):
        return len(set(self.planes)) <= 1

    def __repr__(self):
        return (f"Arrangement(k={self.k}, d={self.d}, n={self.n}, "
                f"degenerate={self.degenerate})")


@dataclass(frozen=True, slots=True)
class DecompositionSystem:
    """A k-by-p grid of subspaces; each row direct-sums to the whole space
    and the witness transports rows onto rows, fixing the column index."""

    grid: tuple
    witness: tuple | None = field(default=None, compare=False)
    n: int = field(init=False)
    k: int = field(init=False)
    parts: int = field(init=False)

    def __post_init__(self):
        grid = tuple(tuple(row) for row in self.grid)
        witness = None if self.witness is None else tuple(self.witness)
        if not grid or not grid[0]:
            raise ValueError("grid must be non-empty")
        n = grid[0][0].n
        parts = len(grid[0])
        for row in grid:
            if len(row) != parts:
                raise ValueError("ragged grid")
            if sum(w.dim for w in row) != n:
                raise ValueError("row dimensions do not sum to the ambient dimension")
            total = row[0]
            for w in row[1:]:
                total = total + w
            if total.dim != n:
                raise ValueError("row subspaces do not direct-sum to K^n")
        k = len(grid)
        if witness is not None:
            _check_witness(witness, k, n)
            # each column of the grid is carried onto itself, part by part;
            # with each row a direct sum of K^n, containment is equality
            if not all(_realizes(column, witness, Subspace.maps_into)
                       for column in zip(*grid)):
                raise ValueError("the witness does not transport rows onto rows")
        _assign(self, grid=grid, witness=witness, n=n, k=k, parts=parts)


@dataclass(frozen=True, slots=True)
class Certificate:
    verdict: str
    witness: tuple | None = None
    failing_transposition: int | None = None
    detail: str | None = None


# ---------------------------------------------------------------------------
# verification


def _realizes(members, witness, holds):
    """Whether every P_j of the witness is invertible and holds(m, P_j, t)
    for each member m and its target t under the transposition (j, j+1).

    For transport, ``holds`` is ``Subspace.maps_into``, containment
    P·W ⊆ T: an invertible P maps W onto a space of W's dimension, so
    containment in a T of that dimension is equality.
    """
    for j, p in enumerate(witness):
        if p.det().is_zero():
            return False
        targets = swap_adjacent(members, j)
        if not all(holds(m, p, t) for m, t in zip(members, targets)):
            return False
    return True


def _no_invertible_detail(what, j, space, n):
    """Why the search for an invertible element of ``space`` came back empty:
    a proof when the supports alone make every element singular."""
    if structurally_singular(space, n):
        return (f"no invertible {what} exists for transposition ({j}, {j + 1}): "
                "the solution supports admit no perfect matching")
    return f"no invertible {what} found for transposition ({j}, {j + 1})"


def _transposition_spaces(members, n, solve):
    """Yield S_j, the solution space of the adjacent transposition (j, j+1),
    for j = 0, ..., k-2 in turn (k >= 2), each as a canonical Subspace.

    ``solve(members, targets)`` is the space of matrices that move each
    member to its target (``intertwiner_space`` or ``transport_space``).
    S_0 is solved directly.  A caller stops at the first S_j with no
    invertible element, so when S_1 is asked for, S_0 had one.  Then, for
    k >= 4, the space of the k-cycle c = (0 1 ... k-1) (targets
    members[1:] + members[:1]) is solved and searched once: with an
    invertible C in it, tau_{j+1} = c tau_j c^-1 gives S_{j+1} = C S_j C^-1,
    and the canonical echelon form makes that the same Subspace as a direct
    solve.  For k <= 3, where the cycle would save no solve, or when no
    such C is found, each S_j is solved directly.
    """
    k = len(members)
    space = solve(members, swap_adjacent(members, 0))
    yield space
    cycle = None
    if k >= 4:
        cycle = invertible_in_space(solve(members, members[1:] + members[:1]), n)
    if cycle is None:
        for j in range(1, k - 1):
            yield solve(members, swap_adjacent(members, j))
        return
    cycle_inv = cycle.inverse()
    for _ in range(1, k - 1):
        space = conjugate_space(space, cycle, cycle_inv)
        yield space


def _search_transpositions(members, n, solve, what):
    """Certificate from an invertible element of each transposition space,
    or naming the first space where the search found none."""
    found = []
    for j, space in enumerate(_transposition_spaces(list(members), n, solve)):
        p = invertible_in_space(space, n)
        if p is None:
            return Certificate(
                NOT_TOTALLY_SYMMETRIC, failing_transposition=j,
                detail=_no_invertible_detail(what, j, space, n))
        found.append(p)
    return Certificate(TOTALLY_SYMMETRIC, witness=tuple(found))


def _verify(family, members, from_scratch, holds, solve, what):
    """Degenerate; else the bundled witness if it realizes the family
    (``_realizes`` with ``holds``) and from_scratch is not set; else the
    search of ``solve``'s spaces (``_search_transpositions``)."""
    if family.degenerate:
        return Certificate(DEGENERATE, witness=family.witness)
    if family.witness is not None and not from_scratch:
        if _realizes(members, family.witness, holds):
            return Certificate(TOTALLY_SYMMETRIC, witness=family.witness)
    return _search_transpositions(members, family.n, solve, what)


def verify_tss(t, from_scratch=False):
    """Certify total symmetry of a matrix set.

    The bundled witness, if any, is rechecked first; when absent, invalid,
    or when from_scratch is set, each adjacent transposition's intertwiner
    space is searched for an invertible element.  For k >= 4 two systems
    are solved, for (0, 1) and for the k-cycle, and the other spaces are
    the first one conjugated by the cycle's witness (see
    ``_transposition_spaces``); a smaller set solves each space.  A
    NotTotallySymmetric verdict names the first transposition whose
    solution space held no invertible element we could find; its detail
    says "exists" instead of "found" when the supports of that space prove
    that there is none.
    """
    return _verify(t, t.elements, from_scratch, lambda a, p, b: p * a == b * p,
                   intertwiner_space, "intertwiner")


def verify_arrangement(a, from_scratch=False):
    """Certify total symmetry of a subspace arrangement, as ``verify_tss``
    does a set, with transport for conjugation.

    Transport of a plane is encoded linearly (``linalg.transport_space``):
    P maps W_i into W_{sigma(i)}, which together with invertibility of P
    gives equality of images.
    """
    return _verify(a, a.planes, from_scratch, Subspace.maps_into, transport_space,
                   "transport")


def realize_permutation(witness, sigma, n=None):
    """A matrix realizing sigma (one-line, 0-based) by composing the
    adjacent-transposition witnesses along a bubble-sort word."""
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


def is_commutative(t):
    els = t.elements
    return all(a * b == b * a for i, a in enumerate(els) for b in els[i + 1:])


def isomorphic(a, b):
    """An invertible T with T·A_i·T^-1 = B_i, or None."""
    if (a.n, a.k) != (b.n, b.k):
        return None
    space = intertwiner_space(list(a.elements), list(b.elements))
    return invertible_in_space(space, a.n)


# ---------------------------------------------------------------------------
# restriction / quotient, duality, reduction


def restriction_quotient(t, space, witness=None):
    """Restrict a matrix set to an invariant subspace and form the quotient.

    Returns (restriction, quotient), each read off the subspace's echelon
    form by ``Subspace.restriction`` and ``Subspace.quotient``; the quotient
    is None when the subspace is the whole space, the restriction None when
    it is zero.  Witnesses carry over by restriction and projection.
    Raises NotInvariant if the subspace fails invariance under any element
    or witness matrix.
    """
    if space.n != t.n:
        raise ValueError(f"a subspace of K^{space.n} in a set acting on K^{t.n}")
    if witness is None:
        witness = t.witness
    if space.dim in (0, t.n):
        whole = Tss(t.elements, witness=witness, params=t.params)
        return (whole, None) if space.dim else (None, whole)
    parts = []
    for part in (space.restriction, space.quotient):
        elements = [part(a) for a in t.elements]
        blocks = None if witness is None else [part(p) for p in witness]
        if None in elements or None in (blocks or ()):
            raise NotInvariant("subspace is not invariant")
        parts.append(Tss(elements, witness=blocks, params=t.params))
    return tuple(parts)


def dual_arrangement(a):
    """The arrangement of annihilators, witnessed by inverse-transposes."""
    duals = [w.annihilator() for w in a.planes]
    witness = None
    if a.witness is not None:
        witness = [p.inverse().transpose() for p in a.witness]
    return Arrangement(duals, witness=witness)


def reduce_arrangement(a):
    """Quotient out the common intersection Q of all planes.

    The result lives in K^n/Q = K^(n-q), in the coordinates of
    ``Subspace.quotient``: the planes are their images there
    (``Subspace.modulo``) and the witnesses descend to their quotient
    matrices.  Already-reduced arrangements are returned unchanged.
    """
    q = a.planes[0]
    for w in a.planes[1:]:
        q = q.intersection(w)
    if q.dim == 0:
        return a
    witness = None
    if a.witness is not None:
        witness = [q.quotient(p) for p in a.witness]
        if None in witness:
            raise NotInvariant("subspace is not invariant")
    return Arrangement([w.modulo(q) for w in a.planes], witness=witness)


def stabilizer_dimension(a):
    """Dimension and basis of {A : A·W_i ⊆ W_i for all i}."""
    space = transport_space(a.planes, a.planes)
    return space.dim, [vec_to_matrix(v, a.n) for v in space.basis]


def half_dim_normal_form(a):
    """Normalize a pairwise-complementary half-dimensional arrangement.

    For n = 2d and k >= 3 planes with W_i ⊕ W_j = K^n for every pair,
    produces coordinates in which the first three planes become the column
    spans of (I;0), (0;I), (I;I); every further plane is then the graph of
    an invertible A_i, i.e. the span of (A_i; I).  Returns the basis matrix
    and the extracted (k-3)-element Tss {A_4, ..., A_k}.
    """
    n, d, k = a.n, a.d, a.k
    if n != 2 * d:
        raise NotComplementary("planes are not half-dimensional")
    if k < 3:
        raise NotComplementary("need at least three planes")
    for i in range(k):
        for j in range(i + 1, k):
            if a.planes[i].intersection(a.planes[j]).dim != 0:
                raise NotComplementary(f"planes {i} and {j} are not complementary")
    b = [w.matrix_columns() for w in a.planes]
    u = Matrix.block([[b[0], b[1]]])
    coords3 = u.inverse() * b[2]
    top = coords3.submatrix(range(d), range(d))
    bottom = coords3.submatrix(range(d, n), range(d))
    u_prime = Matrix.block([[b[0] * top, b[1] * bottom]])
    u_prime_inv = u_prime.inverse()
    graphs = []
    for i in range(3, k):
        c = u_prime_inv * b[i]
        c_top = c.submatrix(range(d), range(d))
        c_bot = c.submatrix(range(d, n), range(d))
        graphs.append(c_top * c_bot.inverse())
    tss = Tss(graphs, n=d)
    return u_prime, tss


def involution_checks(t):
    """Per-element conjugacy flags for A ~ A^-1 and A ~ I - A."""
    eye = Matrix.identity(t.n)
    report = []
    for a in t.elements:
        det, inv = a.det_inverse()
        if inv is None:
            raise Singular("element is not invertible")
        def conj_to(target, a=a):
            space = intertwiner_space([a], [target])
            return invertible_in_space(space, t.n) is not None
        report.append({
            "conjugate_to_inverse": conj_to(inv),
            "conjugate_to_one_minus": conj_to(eye - a),
        })
    return report


def suspension(a, lam):
    """Block-triangular commutative set built over a strongly symmetric
    arrangement: elements (λI M_i; 0 λI), witnesses P_j ⊕ I."""
    reps = a.representatives
    if reps is None:
        raise NoStrongWitness("suspension needs representatives moved on the nose")
    lam = as_scalar(lam)
    for i, m in enumerate(reps):
        if Subspace.from_matrix_columns(m) != a.planes[i]:
            raise NoStrongWitness(f"representative {i} does not span its plane")
    for j, p in enumerate(a.witness):
        for i, m in enumerate(reps):
            if p * m != reps[swap_adjacent(range(a.k), j)[i]]:
                raise NoStrongWitness(
                    f"transposition {j} does not move representative {i} on the nose")
    n, d = a.n, a.d
    lam_n = Matrix.scalar(n, lam)
    lam_d = Matrix.scalar(d, lam)
    z = Matrix.zero(d, n)
    elements = [Matrix.block([[lam_n, m], [z, lam_d]]) for m in reps]
    zs = Matrix.zero(n, d)
    zd = Matrix.zero(d, n)
    eyed = Matrix.identity(d)
    witness = [Matrix.block([[p, zs], [zd, eyed]]) for p in a.witness]
    return Tss(elements, witness=witness, params=(lam,))
