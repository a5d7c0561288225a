"""Totally symmetric sets and subspace arrangements, with exact verification.

A family of square matrices is *totally symmetric* when every permutation
of its members is realized by conjugation with a single invertible matrix;
a family of equal-dimensional subspaces is totally symmetric when
permutations are realized by invertible linear transport.  Witnesses for
the adjacent transpositions suffice, since conjugation and transport are
group actions.

Verification is witness-first: a bundled witness is rechecked exactly
(cheap), and a Sylvester-system solver searches for fresh witnesses when
none is supplied or the bundled one fails.
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
    kernel,
    mat_vec,
    null_space,
    structurally_singular,
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


def _swap(seq, j):
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


@dataclass(frozen=True, slots=True)
class RealizationWitness:
    """Invertible matrices; entry j realizes the adjacent transposition (j, j+1)."""

    transpositions: tuple

    def __post_init__(self):
        _assign(self, transpositions=tuple(self.transpositions))

    def __len__(self):
        return len(self.transpositions)

    def __iter__(self):
        return iter(self.transpositions)

    def __getitem__(self, j):
        return self.transpositions[j]


@dataclass(frozen=True, slots=True)
class StrongWitness:
    """Plane representatives M_i together with matrices P_j moving them on
    the nose: P_j · M_i = M_{tau_j(i)} entrywise, not just up to column span."""

    representatives: tuple
    transpositions: tuple

    def __post_init__(self):
        _assign(self, representatives=tuple(self.representatives),
                transpositions=tuple(self.transpositions))


def _coerce_witness(w):
    if w is None or isinstance(w, RealizationWitness):
        return w
    return RealizationWitness(w)


def _check_witness(transpositions, k, n):
    """Raise ValueError unless there are k-1 transposition matrices, each n×n."""
    if len(transpositions) != max(k - 1, 0):
        raise ValueError("witness must have k-1 transposition matrices")
    for j, p in enumerate(transpositions):
        if p.m != p.n:
            raise ValueError(f"non-square witness matrix {j}: {p.m}x{p.n}")
        if p.n != n:
            raise ValueError(f"witness matrix {j} is {p.n}x{p.n}, not {n}x{n}")


@dataclass(frozen=True, slots=True)
class Tss:
    """An indexed set of k square matrices over K.

    Duplicate elements force degeneracy: transitivity of the permutation
    action means a single collision collapses the whole set.  A family
    whose members are all equal keeps its formal cardinality (the trivial
    set of size k); a partial collision is canonicalized to the singleton
    of its first element.  The witness is a certificate, not identity.
    """

    elements: tuple
    witness: RealizationWitness | None = field(default=None, compare=False)
    n: int | None = None
    # spectral parameters attached at construction; a hint for eigenvalue
    # discovery, carrying no identity weight (like the witness)
    params: tuple = field(default=(), compare=False)
    k: int = field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        witness = _coerce_witness(self.witness)
        n = self.n
        if elements:
            n = elements[0].n
            for a in elements:
                if a.m != a.n or a.n != n:
                    raise ValueError("elements must be square and equal-sized")
        elif n is None:
            raise ValueError("empty set needs an explicit ambient dimension")
        distinct = len(set(elements))
        if elements and distinct < len(elements) and distinct > 1:
            elements = (elements[0],)
            witness = None
        k = len(elements)
        if witness is not None:
            _check_witness(witness, k, n)
        if witness is None and distinct <= 1 and k >= 1:
            witness = RealizationWitness([Matrix.identity(n)] * (k - 1))
        _assign(self, elements=elements, witness=witness, n=n, k=k,
                params=tuple(as_scalar(p) for p in self.params))

    @property
    def degenerate(self):
        return len(set(self.elements)) <= 1

    def __repr__(self):
        return f"Tss(k={self.k}, n={self.n}, degenerate={self.degenerate})"


@dataclass(frozen=True, slots=True)
class Arrangement:
    """An indexed set of k subspaces of K^n, all of dimension d."""

    planes: tuple
    witness: RealizationWitness | None = field(default=None, compare=False)
    strong_witness: StrongWitness | None = field(default=None, compare=False)
    n: int = field(init=False)
    d: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        planes = tuple(self.planes)
        witness = _coerce_witness(self.witness)
        strong_witness = self.strong_witness
        if not planes:
            raise ValueError("arrangement needs at least one plane")
        n = planes[0].n
        d = planes[0].dim
        for w in planes:
            if w.n != n or w.dim != d:
                raise ValueError("planes must share ambient and plane dimension")
        distinct = len(set(planes))
        if distinct < len(planes) and distinct > 1:
            planes = (planes[0],)
            witness = None
            strong_witness = None
        k = len(planes)
        if witness is not None:
            _check_witness(witness, k, n)
        if strong_witness is not None:
            _check_witness(strong_witness.transpositions, k, n)
            reps = strong_witness.representatives
            if len(reps) != k or any(m.m != n or m.n != d for m in reps):
                raise ValueError(
                    f"a strong witness needs {k} representatives, each {n}x{d}")
        if witness is None and distinct == 1 and k >= 1:
            witness = RealizationWitness([Matrix.identity(n)] * (k - 1))
        _assign(self, planes=planes, witness=witness,
                strong_witness=strong_witness, n=n, d=d, k=k)

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
    witness: RealizationWitness | None = field(default=None, compare=False)
    n: int = field(init=False)
    k: int = field(init=False)
    parts: int = field(init=False)

    def __post_init__(self):
        grid = tuple(tuple(row) for row in self.grid)
        witness = _coerce_witness(self.witness)
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
            for j, p in enumerate(witness):
                for i in range(k):
                    for m in range(parts):
                        if grid[i][m].apply(p) != grid[_swap(range(k), j)[i]][m]:
                            raise ValueError(
                                f"witness {j} does not transport row {i}, part {m}")
        _assign(self, grid=grid, witness=witness, n=n, k=k, parts=parts)


@dataclass(frozen=True, slots=True)
class Certificate:
    verdict: str
    witness: RealizationWitness | None = None
    failing_transposition: int | None = None
    detail: str | None = None


# ---------------------------------------------------------------------------
# verification


def _witness_realizes_tss(elements, witness):
    for j, p in enumerate(witness):
        if p.det().is_zero():
            return False
        target = _swap(elements, j)
        if any(p * a != b * p for a, b in zip(elements, target)):
            return False
    return True


def _witness_realizes_planes(planes, witness):
    for j, p in enumerate(witness):
        if p.det().is_zero():
            return False
        target = _swap(planes, j)
        if any(w.apply(p) != t for w, t in zip(planes, target)):
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
    member to its target (``intertwiner_space`` or ``_transport_space``).
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
    space = solve(members, _swap(members, 0))
    yield space
    cycle = None
    if k >= 4:
        cycle = invertible_in_space(solve(members, members[1:] + members[:1]), n)
    if cycle is None:
        for j in range(1, k - 1):
            yield solve(members, _swap(members, j))
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
    return Certificate(TOTALLY_SYMMETRIC, witness=RealizationWitness(found))


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
    if t.degenerate:
        return Certificate(DEGENERATE, witness=t.witness)
    if t.witness is not None and not from_scratch:
        if _witness_realizes_tss(t.elements, t.witness):
            return Certificate(TOTALLY_SYMMETRIC, witness=t.witness)
    return _search_transpositions(t.elements, t.n, intertwiner_space, "intertwiner")


def _annihilator(space):
    """Row vectors f with f·w = 0 for all w in the subspace."""
    if space.dim == 0:
        return Subspace.full(space.n)
    return kernel(Matrix(space.basis))


def _transport_space(planes, targets):
    """Solution space of P·W_i ⊆ T_i for all i, as vectorised matrices."""
    n = planes[0].n
    rows = []
    for w, tgt in zip(planes, targets):
        ann = _annihilator(tgt)
        for f in ann.rows:
            for col in w.rows:
                # f^T P col = 0: coefficient of P[p][q] is f[p]*col[q]
                rows.append({p * n + q: x * y for p, x in f.items()
                             for q, y in col.items()})
    return null_space(rows, n * n)


def verify_arrangement(a, from_scratch=False):
    """Certify total symmetry of a subspace arrangement.

    Transport of a plane is encoded linearly: P maps W_i into W_{sigma(i)},
    which together with invertibility of P gives equality of images.  As in
    ``verify_tss``, k >= 4 planes need two transport systems solved, for
    (0, 1) and for the k-cycle, and the other spaces are conjugates of the
    first.
    """
    if a.degenerate:
        return Certificate(DEGENERATE, witness=a.witness)
    if a.witness is not None and not from_scratch:
        if _witness_realizes_planes(a.planes, a.witness):
            return Certificate(TOTALLY_SYMMETRIC, witness=a.witness)
    return _search_transpositions(a.planes, a.n, _transport_space, "transport")


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


def _basis_change_through(space):
    """Invertible U whose first dim(space) columns span the space, the rest
    standard vectors in index order."""
    cols = list(space.basis) + space.extension_columns()
    return Matrix.from_columns(cols)


def _split_conjugate(mats, u, u_inv, d):
    """Conjugate each matrix by U and split into (top-left d, bottom-right)."""
    tops, bottoms = [], []
    n = u.n
    for m in mats:
        c = u_inv * m * u
        if d < n:
            low_left = c.submatrix(range(d, n), range(d))
            if not low_left.is_zero():
                raise NotInvariant("subspace is not invariant")
            bottoms.append(c.submatrix(range(d, n), range(d, n)))
        tops.append(c.submatrix(range(d), range(d)))
    return tops, bottoms


def restriction_quotient(t, space, witness=None):
    """Restrict a matrix set to an invariant subspace and form the quotient.

    Returns (restriction, quotient); the quotient is None when the subspace
    is the whole space, the restriction None when it is zero.  Witnesses
    carry over by restriction and projection.  Raises NotInvariant if the
    subspace fails invariance under any element or witness matrix.
    """
    witness = t.witness if witness is None else _coerce_witness(witness)
    mats = list(t.elements) + (list(witness) if witness is not None else [])
    for m in mats:
        if not space.is_invariant_under(m):
            raise NotInvariant("subspace is not invariant")
    d = space.dim
    if d == 0:
        return None, Tss(t.elements, witness=witness, params=t.params)
    u = _basis_change_through(space)
    u_inv = u.inverse()
    el_tops, el_bottoms = _split_conjugate(t.elements, u, u_inv, d)
    if witness is not None:
        w_tops, w_bottoms = _split_conjugate(list(witness), u, u_inv, d)
    else:
        w_tops = w_bottoms = None
    restriction = Tss(el_tops, witness=w_tops, params=t.params)
    if d == t.n:
        return restriction, None
    quotient = Tss(el_bottoms, witness=w_bottoms, params=t.params)
    return restriction, quotient


def dual_arrangement(a):
    """The arrangement of annihilators, witnessed by inverse-transposes."""
    duals = [_annihilator(w) for w in a.planes]
    witness = None
    if a.witness is not None:
        witness = RealizationWitness(
            [p.inverse().transpose() for p in a.witness])
    return Arrangement(duals, witness=witness)


def reduce_arrangement(a):
    """Quotient out the common intersection Q of all planes.

    The result lives in K^(n-q) via a basis extending Q; witnesses descend
    to the quotient blocks.  Already-reduced arrangements are returned
    unchanged.
    """
    q = a.planes[0]
    for w in a.planes[1:]:
        q = q.intersection(w)
    if q.dim == 0:
        return a
    u = _basis_change_through(q)
    u_inv = u.inverse()
    qd = q.dim
    new_planes = []
    for w in a.planes:
        imgs = [mat_vec(u_inv, v)[qd:] for v in w.basis]
        new_planes.append(Subspace(imgs, a.n - qd))
    witness = None
    if a.witness is not None:
        _, bottoms = _split_conjugate(list(a.witness), u, u_inv, qd)
        witness = RealizationWitness(bottoms)
    return Arrangement(new_planes, witness=witness)


def stabilizer_dimension(a):
    """Dimension and basis of {A : A·W_i ⊆ W_i for all i}."""
    space = _transport_space(list(a.planes), list(a.planes))
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
    if a.strong_witness is None:
        raise NoStrongWitness("suspension needs representatives moved on the nose")
    lam = as_scalar(lam)
    reps = a.strong_witness.representatives
    ps = a.strong_witness.transpositions
    for i, m in enumerate(reps):
        if Subspace.from_matrix_columns(m) != a.planes[i]:
            raise NoStrongWitness(f"representative {i} does not span its plane")
    for j, p in enumerate(ps):
        for i, m in enumerate(reps):
            if p * m != reps[_swap(range(a.k), j)[i]]:
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
    witness = [Matrix.block([[p, zs], [zd, eyed]]) for p in ps]
    return Tss(elements, witness=witness, params=(lam,))
