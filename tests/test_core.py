import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from totsym import catalog, core, linalg
from totsym.core import (
    DEGENERATE,
    NOT_TOTALLY_SYMMETRIC,
    TOTALLY_SYMMETRIC,
    Arrangement,
    Certificate,
    DecompositionSystem,
    NoStrongWitness,
    NotComplementary,
    NotInvariant,
    Tss,
    _search_transpositions,
    dual_arrangement,
    half_dim_normal_form,
    involution_checks,
    isomorphic,
    realize_permutation,
    reduce_arrangement,
    restriction_quotient,
    stabilizer_dimension,
    suspension,
    swap_adjacent,
    verify_arrangement,
    verify_tss,
)
from totsym.field import I_UNIT, ONE, SQRT2, ZERO, ZETA, ZETA_INV, Scalar
from totsym.linalg import (
    Matrix,
    Singular,
    Subspace,
    conjugate_space,
    intertwiner_space,
    mat_vec,
    transport_space,
)
from totsym.spectral import Weight, is_commutative

from oracles import (
    oracle_involution_flags,
    reference_apply,
    reference_certificate,
    reference_realize_permutation,
    reference_reduce_arrangement,
    reference_restriction_quotient,
)


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def M(*rows):
    return Matrix(rows)


def line(*coords):
    return Subspace([coords], len(coords))


SWAP2 = M((0, 1), (1, 0))


# --------------------------------------------------------- canonical forms


def test_distinct_elements_kept():
    t = Tss([diag(1, 2), diag(2, 1)])
    assert t.k == 2 and not t.degenerate


def test_all_equal_keeps_formal_cardinality():
    t = Tss([diag(3, 3), diag(3, 3), diag(3, 3)])
    assert t.k == 3 and t.degenerate
    assert t.witness is not None and len(t.witness) == 2
    assert all(p == Matrix.identity(t.n) for p in t.witness)


def test_partial_collision_collapses_to_singleton():
    t = Tss([diag(1, 2), diag(1, 2), diag(3, 4)])
    assert t.k == 1 and t.degenerate
    assert t.elements == (diag(1, 2),)


def test_singleton_is_degenerate():
    t = Tss([diag(5, 6)])
    assert t.degenerate
    assert verify_tss(t).verdict == DEGENERATE


def test_empty_set_allowed_with_dimension():
    t = Tss([], n=2)
    assert t.k == 0 and t.degenerate
    with pytest.raises(ValueError):
        Tss([])


def test_arrangement_collision_policy():
    l1, l2 = line(1, 0), line(0, 1)
    a = Arrangement([l1, l1, l1])
    assert a.k == 3 and a.degenerate
    b = Arrangement([l1, l1, l2])
    assert b.k == 1 and b.degenerate
    c = Arrangement([l1, l2])
    assert c.k == 2 and not c.degenerate


# sets and arrangements share one canonical form: (class, two distinct
# members on K^2)
FAMILIES = {
    "tss": (Tss, diag(1, 2), diag(2, 1)),
    "arrangement": (Arrangement, line(1, 0), line(0, 1)),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_partial_collision_drops_every_witness(kind):
    cls, a, b = FAMILIES[kind]
    swaps = [SWAP2, SWAP2]
    extra = {}
    if cls is Arrangement:
        reps = [Matrix([[1], [0]]), Matrix([[1], [0]]), Matrix([[0], [1]])]
        extra["representatives"] = reps
    family = cls([a, a, b], witness=swaps, **extra)
    assert family.k == 1 and family.degenerate
    # the empty witness of a one-member family, so the collapse is a fixed point
    assert family.witness == ()
    again = cls(family.planes if cls is Arrangement else family.elements,
                witness=family.witness)
    assert again == family and again.witness == family.witness
    if cls is Arrangement:
        assert family.representatives is None


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_all_equal_family_gets_identity_witnesses(kind):
    cls, a, _ = FAMILIES[kind]
    family = cls([a] * 4)
    assert family.k == 4 and family.degenerate
    assert isinstance(family.witness, tuple)
    assert len(family.witness) == 3
    assert all(p == Matrix.identity(2) for p in family.witness)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("length", [0, 2])
def test_witness_of_the_wrong_length_is_refused(kind, length):
    cls, a, b = FAMILIES[kind]
    with pytest.raises(ValueError, match="k-1 transposition"):
        cls([a, b], witness=[SWAP2] * length)
    with pytest.raises(ValueError, match="k-1 transposition"):
        cls([a, a], witness=[SWAP2] * length)


def test_witness_length_checked():
    with pytest.raises(ValueError):
        Tss([diag(1, 2), diag(2, 1)], witness=[SWAP2, SWAP2])


def test_witness_shape_checked():
    pair = [diag(1, 2, 3), diag(2, 1, 3)]
    with pytest.raises(ValueError, match="is 2x2, not 3x3"):
        Tss(pair, witness=[SWAP2])
    with pytest.raises(ValueError, match="non-square"):
        Tss(pair, witness=[Matrix([[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(ValueError, match="is 3x3, not 2x2"):
        Arrangement([line(1, 0), line(0, 1)], witness=[Matrix.identity(3)])
    rows = [[line(1, 0), line(0, 1)], [line(0, 1), line(1, 0)]]
    with pytest.raises(ValueError, match="is 1x1, not 2x2"):
        DecompositionSystem(rows, witness=[Matrix([[1]])])


def test_strong_witness_shape_checked():
    lines = [line(1, 0), line(0, 1)]
    reps = [Matrix([[1], [0]]), Matrix([[0], [1]])]
    assert Arrangement(lines, witness=[SWAP2], representatives=reps).k == 2
    for witness, bad in (([Matrix.identity(3)], reps),
                         ([], reps),
                         ([SWAP2], reps[:1]),
                         ([SWAP2], [Matrix.identity(2)] * 2),
                         (None, reps)):
        with pytest.raises(ValueError):
            Arrangement(lines, witness=witness, representatives=bad)


def test_representatives_need_a_witness():
    lines = [line(1, 0), line(0, 1)]
    reps = [Matrix([[1], [0]]), Matrix([[0], [1]])]
    with pytest.raises(ValueError, match="plane representatives need a witness"):
        Arrangement(lines, representatives=reps)


def test_all_equal_family_with_representatives_gets_identity_witnesses():
    reps = [Matrix([[1], [0]])] * 3
    a = Arrangement([line(1, 0)] * 3, representatives=reps)
    assert a.witness == (Matrix.identity(2),) * 2
    assert a.representatives == tuple(reps)


# ------------------------------------------------------------- verify_tss


def test_verify_solver_finds_witness():
    t = Tss([diag(1, 2), diag(2, 1)])
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    p = cert.witness[0]
    assert p * diag(1, 2) == diag(2, 1) * p
    assert not p.det().is_zero()


def test_verify_rejects_nonconjugate_pair():
    cert = verify_tss(Tss([diag(1, 2), diag(3, 4)]))
    assert cert.verdict == NOT_TOTALLY_SYMMETRIC
    assert cert.failing_transposition == 0


def test_verify_uses_bundled_witness():
    t = Tss([diag(1, 2), diag(2, 1)], witness=[SWAP2])
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness[0] == SWAP2


def test_verify_falls_back_on_bad_witness():
    bad = M((1, 0), (0, 1))  # identity does not swap the pair
    t = Tss([diag(1, 2), diag(2, 1)], witness=[bad])
    cert = verify_tss(t)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness[0] != bad


def test_verify_from_scratch_ignores_witness():
    t = Tss([diag(1, 2), diag(2, 1)], witness=[SWAP2])
    cert = verify_tss(t, from_scratch=True)
    assert cert.verdict == TOTALLY_SYMMETRIC
    q = cert.witness[0]
    assert q * diag(1, 2) == diag(2, 1) * q


NOT_EXISTS = ("no invertible {} exists for transposition ({}, {}): "
              "the solution supports admit no perfect matching")


@pytest.mark.parametrize("pattern", [
    ((0, 0, 1), (0, 1, 1)),
    ((0, 0, 1), (1, 1, 0)),
    ((0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)),
])
def test_near_miss_diagonals_are_proved_not_symmetric(pattern):
    # some adjacent pair has different spectra, yet every transposition
    # leaves a nonzero intertwiner space: its supports cannot match
    t = Tss([diag(*(Fraction(3, 2) if x else -2 for x in d)) for d in pattern])
    cert = verify_tss(t, from_scratch=True)
    j = cert.failing_transposition
    assert cert.verdict == NOT_TOTALLY_SYMMETRIC
    assert cert.detail == NOT_EXISTS.format("intertwiner", j, j + 1)


def test_all_singular_intertwiners_with_matching_supports_are_not_proved():
    # the intertwiners of this pair are the multiples of the all-ones
    # matrix: every entry is free, and every element is singular
    t = Tss([M((1, 1, 0), (0, 1, 1), (1, 0, 1)), M((2, 0, 0), (0, 1, 1), (0, 1, 1))])
    cert = verify_tss(t)
    assert cert.verdict == NOT_TOTALLY_SYMMETRIC
    assert cert.detail == "no invertible intertwiner found for transposition (0, 1)"


def test_largest_permutation_type_set_verifies_from_scratch():
    # n = 120, k = 5: each solution space searched is spanned by the 120
    # unit matrices of one permutation, which random draws from [-5, 5]
    # all miss; the perfect matching of its cells is that permutation
    t = catalog.permutation_type([1, 2, 3, 4, 5])
    assert (t.n, t.k) == (120, 5)
    cert = verify_tss(t, from_scratch=True)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness == t.witness


def test_two_coordinate_lines_skip_the_sweeps(monkeypatch):
    # the transport space has dimension 30^2 - 58 and holds unit matrices
    # only: a coordinate space, decided by the one matching of its whole
    # support, with no candidate tested after it
    n = 30
    lines = [Subspace([{j: ONE}], n) for j in (0, 1)]
    tested = []
    matching = linalg._perfect_matching
    monkeypatch.setattr(linalg, "_perfect_matching",
                        lambda masks: tested.append(1) or matching(masks))
    cert = verify_arrangement(Arrangement(lines), from_scratch=True)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert lines[0].maps_into(cert.witness[0], lines[1])
    assert len(tested) == 1


# ------------------------------------------ transposition spaces from a cycle


def _dense_conjugate(t):
    """The set conjugated by a dense matrix over K (unit lower times unit
    upper triangular, so invertible)."""
    n = t.n
    low = Matrix([[ONE if r == c else (SQRT2 + Scalar.rational(r - c) if r > c else ZERO)
                   for c in range(n)] for r in range(n)])
    up = Matrix([[ONE if r == c else (ZETA * Scalar.rational(c - r) if c > r else ZERO)
                  for c in range(n)] for r in range(n)])
    p = low * up
    p_inv = p.inverse()
    return Tss([p * a * p_inv for a in t.elements])


FROM_SCRATCH_CASES = {
    "standard4": lambda: catalog.standard(4),
    "ncsimplex4": lambda: catalog.ncsimplex(4),
    "ncsimplex5": lambda: catalog.ncsimplex(5),
    "sporadic4": lambda: catalog.sporadic4(),
    "s5-construction": lambda: catalog.tilde_sigma5_construction(),
    "partition-0001": lambda: catalog.partition_construction([2, 2, 2, 3]),
    "partition-0011": lambda: catalog.partition_construction([2, 2, 3, 3]),
    "simplex3": lambda: catalog.simplex_arrangement(3),
    "simplex4": lambda: catalog.simplex_arrangement(4),
    "simplex5": lambda: catalog.simplex_arrangement(5),
    "dual-simplex3": lambda: catalog.dual_simplex_arrangement(3),
    "dual-simplex4": lambda: catalog.dual_simplex_arrangement(4),
    "s5-arrangement": lambda: catalog.tilde_sigma5_arrangement(),
    "ncsimplex4-dense": lambda: _dense_conjugate(catalog.ncsimplex(4)),
}


def _scratch_parts(obj):
    """(members, solver, verifier, what) of a set or an arrangement."""
    if isinstance(obj, Arrangement):
        return list(obj.planes), transport_space, verify_arrangement, "transport"
    return list(obj.elements), intertwiner_space, verify_tss, "intertwiner"


def _counting(solve, targets):
    """solve, recording the targets of each system it is asked for."""
    def counting(ms, ts):
        targets.append(list(ts))
        return solve(ms, ts)
    return counting


def _recording_search(monkeypatch):
    """The spaces that core searches for an invertible element, in order."""
    searched = []
    search = core.invertible_in_space

    def recording(space, n):
        searched.append(space)
        return search(space, n)

    monkeypatch.setattr("totsym.core.invertible_in_space", recording)
    return searched


@pytest.mark.parametrize("name", sorted(FROM_SCRATCH_CASES))
def test_transposition_spaces_from_the_cycle_equal_direct_solves(name, monkeypatch):
    obj = FROM_SCRATCH_CASES[name]()
    members, solve, verify, what = _scratch_parts(obj)
    assert obj.k >= 4
    targets = []
    searched = _recording_search(monkeypatch)
    cert = _search_transpositions(members, obj.n, _counting(solve, targets), what)
    # two systems: (0, 1) and the k-cycle; the rest are conjugates
    cycle = members[1:] + members[:1]
    assert targets == [swap_adjacent(members, 0), cycle]
    assert searched[1] == solve(members, cycle)
    spaces = searched[:1] + searched[2:]
    assert len(spaces) == obj.k - 1
    for j, space in enumerate(spaces):
        assert space == solve(members, swap_adjacent(members, j))
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert == reference_certificate(members, obj.n, solve, what)
    assert verify(obj, from_scratch=True) == cert


def test_three_members_solve_each_transposition_directly(monkeypatch):
    t = catalog.ncsimplex(3)
    members = list(t.elements)
    targets = []
    searched = _recording_search(monkeypatch)
    cert = _search_transpositions(
        members, t.n, _counting(intertwiner_space, targets), "intertwiner")
    assert targets == [swap_adjacent(members, 0), swap_adjacent(members, 1)]
    assert searched == [intertwiner_space(members, ts) for ts in targets]
    assert cert == reference_certificate(
        members, t.n, intertwiner_space, "intertwiner")


def test_four_members_refuted_at_the_first_transposition_solve_one_system(monkeypatch):
    # no cycle is solved when S_0 already holds no invertible element
    members = [diag(1, 1, 2), diag(1, 2, 2), diag(1, 1, 3), diag(1, 3, 3)]
    targets = []
    searched = _recording_search(monkeypatch)
    cert = _search_transpositions(
        members, 3, _counting(intertwiner_space, targets), "intertwiner")
    assert targets == [swap_adjacent(members, 0)]
    assert searched == [intertwiner_space(members, targets[0])]
    assert cert.verdict == NOT_TOTALLY_SYMMETRIC
    assert cert.failing_transposition == 0
    assert cert.detail == NOT_EXISTS.format("intertwiner", 0, 1)
    assert cert == reference_certificate(members, 3, intertwiner_space, "intertwiner")


@pytest.mark.parametrize("name", ["standard4", "sporadic4", "simplex4"])
def test_a_miss_on_a_derived_space_is_not_a_refutation(name, monkeypatch):
    # the third search is of S_1 = C S_0 C^-1, which holds C P_0 C^-1: a
    # miss there takes that witness and refutes nothing
    obj = FROM_SCRATCH_CASES[name]()
    members, solve, verify, what = _scratch_parts(obj)
    searched = []
    search = core.invertible_in_space

    def missing_the_third(space, n):
        searched.append(space)
        return None if len(searched) == 3 else search(space, n)

    monkeypatch.setattr("totsym.core.invertible_in_space", missing_the_third)
    cert = verify(obj, from_scratch=True)
    assert len(searched) == obj.k
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert core.realizes(type(obj)(members, witness=cert.witness))


def test_conjugate_space():
    swap = M((0, 1), (1, 0))
    upper = Subspace([(0, 1, 0, 0)], 4)  # E12
    assert conjugate_space(upper, swap, swap) == Subspace([(0, 0, 1, 0)], 4)
    p = M((1, 1), (0, 1))
    p_inv = M((1, -1), (0, 1))
    diagonal = Subspace([(1, 0, 0, 0), (0, 0, 0, 1)], 4)
    # p·diag(a, b)·p^-1 = [[a, b - a], [0, b]]
    assert conjugate_space(diagonal, p, p_inv) == Subspace(
        [(1, -1, 0, 0), (0, 1, 0, 1)], 4)
    with pytest.raises(ValueError):
        conjugate_space(Subspace([(1, 0, 0)], 3), swap, swap)


# ----------------------------------------------------- verify_arrangement


def s2_lines():
    return [line(1, 0), line(0, 1), line(1, 1)]


def test_verify_arrangement_solver():
    cert = verify_arrangement(Arrangement(s2_lines()))
    assert cert.verdict == TOTALLY_SYMMETRIC
    for j, p in enumerate(cert.witness):
        planes = s2_lines()
        want = planes[:]
        want[j], want[j + 1] = want[j + 1], want[j]
        assert [reference_apply(w, p) for w in planes] == want


def test_verify_arrangement_solves_each_annihilator_once(monkeypatch):
    # S_0, the k-cycle and the conjugated spaces all transport onto the same
    # planes, and each plane keeps its annihilator after the first solve
    a = catalog.simplex_arrangement(4)
    calls = []
    kernel = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda mat: calls.append(mat) or kernel(mat))
    assert verify_arrangement(a, from_scratch=True).verdict == TOTALLY_SYMMETRIC
    assert 0 < len(calls) <= len(a.planes)


def test_verify_arrangement_with_witness():
    p23 = M((1, -1), (0, -1))
    a = Arrangement(s2_lines(), witness=[SWAP2, p23])
    cert = verify_arrangement(a)
    assert cert.verdict == TOTALLY_SYMMETRIC
    assert cert.witness[1] == p23


def test_four_lines_in_plane_rejected():
    a = Arrangement(s2_lines() + [line(1, 2)])
    cert = verify_arrangement(a)
    assert cert.verdict == NOT_TOTALLY_SYMMETRIC
    assert cert.failing_transposition is not None
    # the cross-ratio leaves only P = 0, whose support is empty
    j = cert.failing_transposition
    assert cert.detail == NOT_EXISTS.format("transport", j, j + 1)


# ------------------------------------------------------------ realization


def standard3():
    els = [diag(2, 1, 1), diag(1, 2, 1), diag(1, 1, 2)]
    p1 = M((0, 1, 0), (1, 0, 0), (0, 0, 1))
    p2 = M((1, 0, 0), (0, 0, 1), (0, 1, 0))
    return Tss(els, witness=[p1, p2])


def test_realize_identity():
    t = standard3()
    assert realize_permutation(t.witness, (0, 1, 2)) == Matrix.identity(3)


def test_realize_all_of_sym3():
    import itertools
    t = standard3()
    for sigma in itertools.permutations(range(3)):
        r = realize_permutation(t.witness, sigma)
        r_inv = r.inverse()
        for i in range(3):
            assert r * t.elements[i] * r_inv == t.elements[sigma[i]]


def test_realize_transport_on_arrangement():
    cert = verify_arrangement(Arrangement(s2_lines()))
    r = realize_permutation(cert.witness, (1, 2, 0))
    planes = s2_lines()
    assert [reference_apply(w, r) for w in planes] == [planes[1], planes[2], planes[0]]


@pytest.mark.parametrize("make", [
    lambda: Tss([diag(2, 3)]),
    lambda: catalog.standard(2, 1, 2),
    lambda: catalog.ncsimplex(3),
    lambda: catalog.sporadic4(),
    lambda: catalog.tilde_sigma5_construction(),
], ids=["k1", "standard-2", "ncsimplex-3", "sporadic4", "s5-construction"])
def test_realize_matches_the_bubble_sort_word(make):
    t = make()
    for sigma in itertools.permutations(range(t.k)):
        assert (realize_permutation(t.witness, sigma, n=t.n)
                == reference_realize_permutation(t.witness, sigma, n=t.n))


def test_realize_validates_input():
    t = standard3()
    with pytest.raises(ValueError):
        realize_permutation(t.witness, (0, 0, 1))
    with pytest.raises(ValueError):
        realize_permutation(t.witness, (0, 1))


# ------------------------------------------------- commutativity and iso


def test_is_commutative():
    assert is_commutative(standard3())
    a = M((1, 1), (0, 2))
    b = M((2, 0), (1, 1))
    assert not is_commutative(Tss([a, b]))
    assert is_commutative(Tss([diag(7, 7)]))


def test_isomorphic_self():
    t = standard3()
    tr = isomorphic(t, t)
    assert tr is not None and not tr.det().is_zero()


def test_isomorphic_conjugated_copy():
    t = standard3()
    u = M((1, 1, 0), (0, 1, 1), (0, 0, 1))
    u_inv = u.inverse()
    s = Tss([u * a * u_inv for a in t.elements])
    tr = isomorphic(s, t)
    assert tr is not None
    for a, b in zip(s.elements, t.elements):
        assert tr * a == b * tr


def test_empty_sets_are_isomorphic_by_the_identity():
    # any invertible T conjugates the empty family; no system is solved
    assert isomorphic(Tss([], n=2), Tss([], n=2)) == Matrix.identity(2)
    assert isomorphic(Tss([], n=2), Tss([], n=3)) is None


def test_not_isomorphic_different_spectra():
    a = Tss([diag(1, 2), diag(2, 1)])
    b = Tss([diag(1, 3), diag(3, 1)])
    assert isomorphic(a, b) is None


# ------------------------------------------------- restriction / quotient


def upper_pair():
    a = M((1, 1), (0, 2))
    b = M((1, -1), (0, 2))
    return Tss([a, b], witness=[diag(1, -1)])


def test_restriction_and_quotient_blocks():
    t = upper_pair()
    w = line(1, 0)
    restr, quot = restriction_quotient(t, w)
    assert restr.elements == (Matrix([[1]]), Matrix([[1]]))
    assert restr.degenerate and restr.k == 2
    assert quot.elements == (Matrix([[2]]), Matrix([[2]]))


def test_restriction_not_invariant():
    with pytest.raises(NotInvariant):
        restriction_quotient(upper_pair(), line(0, 1))


def test_restriction_edges():
    t = upper_pair()
    restr, quot = restriction_quotient(t, Subspace.full(2))
    assert restr == t and quot is None
    restr, quot = restriction_quotient(t, Subspace([], 2))
    assert restr is None and quot == t


def test_restriction_quotient_checks_each_matrix_once(monkeypatch):
    # invariance is read off the images of the subspace's echelon basis;
    # each element and witness matrix is restricted, which checks it, and
    # its quotient is then built with no second check
    images = []
    real = Subspace._images
    monkeypatch.setattr(Subspace, "_images", lambda w, a: images.append(a) or real(w, a))
    t = upper_pair()
    restr, quot = restriction_quotient(t, line(1, 0))
    assert images == [*t.elements, *t.witness]
    assert quot.elements == (Matrix([[2]]), Matrix([[2]]))


# Restriction, quotient and reduction read blocks off the echelon form; they
# must give what a dense change of basis U = [basis | e_f ...] gives, on
# block-triangular sets disguised by a random change of basis.

entry = st.sampled_from([ZERO, ZERO, ONE, -ONE, Scalar.rational(2), SQRT2, I_UNIT])


def matrices(m, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=m, max_size=m).map(Matrix)


nonzero = entry.filter(lambda x: not x.is_zero())


@st.composite
def disguises(draw, n):
    """A random invertible n-by-n S = L·U·P (L unit lower triangular, U
    upper triangular with a nonzero diagonal, P a permutation) and S^-1."""
    lower = [[ONE if i == j else (draw(entry) if i > j else ZERO) for j in range(n)]
             for i in range(n)]
    upper = [[draw(nonzero) if i == j else (draw(entry) if i < j else ZERO)
              for j in range(n)] for i in range(n)]
    order = draw(st.permutations(range(n)))
    perm = [[ONE if order[i] == j else ZERO for j in range(n)] for i in range(n)]
    s = Matrix(lower) * Matrix(upper) * Matrix(perm)
    return s, s.inverse()


@st.composite
def block_triangular(draw, n, d):
    """An n-by-n matrix mapping span(e_0 .. e_{d-1}) into itself."""
    rows = draw(matrices(n, n)).rows
    return Matrix([[ZERO if i >= d > j else x for j, x in enumerate(row)]
                   for i, row in enumerate(rows)])


@st.composite
def dimensions(draw):
    """(n, d) with d among 0, 1, n - 1 and n, or strictly between 0 and n."""
    n = draw(st.integers(1, 5))
    return n, draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(1, max(n - 1, 1)))


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc)


def tss_fields(t):
    return t if t is None else (t.elements, t.witness, t.params, t.n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_quotient_matches_the_change_of_basis(data):
    n, d = data.draw(dimensions())
    s, s_inv = data.draw(disguises(n))
    k = data.draw(st.integers(1, 3))

    def member():
        # now and then a matrix that need not keep the subspace
        if data.draw(st.integers(0, 9)):
            return data.draw(block_triangular(n, d))
        return data.draw(matrices(n, n))

    elements = [s * member() * s_inv for _ in range(k)]
    witness = None
    if data.draw(st.booleans()):
        witness = [s * member() * s_inv for _ in range(k - 1)]
    t = Tss(elements, witness=witness, params=(2,))
    space = Subspace([[row[j] for row in s.rows] for j in range(d)], n)
    ours = outcome(lambda: tuple(map(tss_fields, restriction_quotient(t, space))))
    theirs = outcome(lambda: tuple(map(tss_fields, reference_restriction_quotient(t, space))))
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduce_arrangement_matches_the_change_of_basis(data):
    n, q = data.draw(dimensions())
    s, s_inv = data.draw(disguises(n))
    k = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(0, n - q - 1) if q < n else st.just(0))
    # each plane is S·(span(e_0 .. e_{q-1}) + span of r vectors off it)
    units = [[ONE if i == j else ZERO for i in range(n)] for j in range(q)]
    planes = []
    for _ in range(k):
        rest = data.draw(st.lists(st.lists(entry, min_size=n - q, max_size=n - q),
                                  min_size=r, max_size=r))
        vectors = units + [[ZERO] * q + v for v in rest]
        planes.append(Subspace([mat_vec(s, v) for v in vectors], n))
    assume(len({w.dim for w in planes}) == 1)
    witness = None
    if data.draw(st.booleans()):
        witness = [s * data.draw(block_triangular(n, q)) * s_inv for _ in range(k - 1)]
    a = Arrangement(planes, witness=witness)

    def fields(r):
        return (r.planes, r.witness, r.n, r.d, r.k)

    ours = outcome(lambda: fields(reduce_arrangement(a)))
    assert ours == outcome(lambda: fields(reference_reduce_arrangement(a)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reducing_planes_that_are_all_of_k_n(k):
    # the quotient K^n/K^n is K^0; a witness cannot descend to it
    a = Arrangement([Subspace.full(2)] * k)
    if k == 1:
        r = reduce_arrangement(a)
        assert (r.n, r.d, r.k) == (0, 0, 1)
        assert r.planes == reference_reduce_arrangement(a).planes
        return
    for reduce in (reduce_arrangement, reference_reduce_arrangement):
        with pytest.raises(ValueError):
            reduce(a)


# --------------------------------------------------------- dual / reduce


def test_dual_hyperplane_to_line():
    w = Subspace([(1, 0, 0), (0, 1, 0)], 3)
    d = dual_arrangement(Arrangement([w]))
    assert d.d == 1
    assert d.planes[0] == Subspace([(0, 0, 1)], 3)


def test_dual_involution_and_verdict():
    a = Arrangement(s2_lines())
    cert = verify_arrangement(a)
    with_witness = Arrangement(s2_lines(), witness=cert.witness)
    d = dual_arrangement(with_witness)
    assert verify_arrangement(d).verdict == TOTALLY_SYMMETRIC
    dd = dual_arrangement(d)
    assert dd.planes == with_witness.planes
    assert list(dd.witness) == list(with_witness.witness)


def test_reduce_shared_line():
    planes = [Subspace([(0, 0, 1), v], 3)
              for v in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]]
    a = Arrangement(planes)
    r = reduce_arrangement(a)
    assert (r.n, r.d, r.k) == (2, 1, 3)
    assert set(r.planes) == set(s2_lines())
    assert verify_arrangement(r).verdict == TOTALLY_SYMMETRIC


def test_reduce_noop_when_reduced():
    a = Arrangement(s2_lines())
    assert reduce_arrangement(a) is a


# ------------------------------------------------------------- stabilizer


def test_stabilizer_single_plane_formula():
    w = line(1, 0)
    dim, basis = stabilizer_dimension(Arrangement([w]))
    assert dim == 3  # n^2 - d(n-d) = 4 - 1
    for b in basis:
        image = reference_apply(w, b)
        assert image.dim <= w.dim and w.contains_space(image)


def test_stabilizer_three_lines():
    dim, _ = stabilizer_dimension(Arrangement(s2_lines()))
    assert dim == 1


# ------------------------------------------------------- half-dimensional


def test_half_dim_graph_coefficient():
    a = Arrangement(s2_lines() + [line(1, 2)])
    coords, t = half_dim_normal_form(a)
    assert t.k == 1
    assert t.elements[0] == Matrix([[Fraction(1, 2)]])


def test_half_dim_three_planes_empty_tss():
    coords, t = half_dim_normal_form(Arrangement(s2_lines()))
    assert t.k == 0


def test_half_dim_requires_complements():
    with pytest.raises(NotComplementary):
        half_dim_normal_form(Arrangement(s2_lines() + [line(1, 0)]))
    with pytest.raises(NotComplementary):
        half_dim_normal_form(Arrangement([line(1, 0), line(0, 1)]))


def test_half_dim_invariant_under_coordinate_change():
    lines = s2_lines() + [line(1, 2)]
    u = M((3, 1), (2, 1))
    moved = [reference_apply(w, u) for w in lines]
    _, t1 = half_dim_normal_form(Arrangement(lines))
    _, t2 = half_dim_normal_form(Arrangement(moved))
    assert t1.elements == t2.elements


# ------------------------------------------------------------ involutions


def test_involutions_zeta_pair():
    t = Tss([diag(ZETA, ZETA_INV)])
    rep = involution_checks(t)
    assert rep[0]["conjugate_to_inverse"]
    assert rep[0]["conjugate_to_one_minus"]


def test_involutions_generic_diagonal():
    rep = involution_checks(Tss([diag(2, 3)]))
    assert not rep[0]["conjugate_to_inverse"]
    assert not rep[0]["conjugate_to_one_minus"]


def test_involutions_need_invertible():
    with pytest.raises(Singular):
        involution_checks(Tss([diag(0, 1)]))


@st.composite
def invertible_integer_matrices(draw):
    """An invertible integer matrix: a dense n-by-n draw, n <= 3, or Jordan
    blocks of size 1 or 2 at eigenvalues -1, 1 and 2, n <= 4, conjugated by
    a unit lower triangular matrix."""
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        a = Matrix([[draw(small) for _ in range(n)] for _ in range(n)])
        assume(not a.det().is_zero())
        return a
    blocks = draw(st.lists(st.tuples(st.sampled_from([-1, 1, 2]), st.integers(1, 2)),
                           min_size=1, max_size=4))
    assume(sum(size for _, size in blocks) <= 4)
    diagonal = [lam for lam, size in blocks for _ in range(size)]
    # goes_on[j]: column j continues the Jordan block of column j - 1
    goes_on = [j > 0 for _, size in blocks for j in range(size)]
    n = len(diagonal)
    planted = Matrix([[diagonal[i] if i == j else int(j == i + 1 and goes_on[j])
                       for j in range(n)] for i in range(n)])
    lower = Matrix([[1 if i == j else (draw(small) if i > j else 0) for j in range(n)]
                    for i in range(n)])
    return lower * planted * lower.inverse()


@settings(max_examples=200, deadline=None)
@given(invertible_integer_matrices())
# Up to n = 3 equal characteristic polynomials already decide both flags.
# These two share theirs with I - A and with A^-1, and are not similar to them.
@example(M((-1, 1, 0, 0), (0, -1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)))
@example(M((2, 1, 0, 0), (0, 2, 0, 0), (0, 0, Fraction(1, 2), 0), (0, 0, 0, Fraction(1, 2))))
def test_involution_checks_match_invariant_factors(a):
    assert involution_checks(Tss([a])) == [oracle_involution_flags(a)]


# ------------------------------------------------------------- suspension


def s1_arrangement():
    full = Subspace([(1,)], 1)
    reps = [Matrix([[1]]), Matrix([[-1]])]
    return Arrangement([full, full], witness=[Matrix([[-1]])], representatives=reps)


def test_suspension_emits_printed_pair():
    lam = Scalar.rational(5)
    t = suspension(s1_arrangement(), lam)
    assert t.elements == (M((5, 1), (0, 5)), M((5, -1), (0, 5)))
    assert is_commutative(t)
    assert verify_tss(t).verdict == TOTALLY_SYMMETRIC


def test_suspension_restriction_is_degenerate():
    t = suspension(s1_arrangement(), Scalar.rational(5))
    restr, _ = restriction_quotient(t, line(1, 0))
    assert restr.degenerate
    assert restr.elements[0] == Matrix([[5]])


def test_suspension_needs_strong_witness():
    with pytest.raises(NoStrongWitness):
        suspension(Arrangement(s2_lines()), ONE)
    # representative spanning the wrong plane is rejected
    full = Subspace([(1,)], 1)
    bad = Arrangement([full, full], witness=[Matrix([[2]])],
                      representatives=[Matrix([[1]]), Matrix([[2]])])
    with pytest.raises(NoStrongWitness):
        suspension(bad, ONE)


# -------------------------------------------------- decomposition systems


def test_decomposition_system_validation():
    rows = [
        [line(1, 0), line(0, 1)],
        [line(0, 1), line(1, 0)],
    ]
    d = DecompositionSystem(rows, witness=[SWAP2])
    assert (d.k, d.parts, d.n) == (2, 2, 2)
    with pytest.raises(ValueError):
        DecompositionSystem([[line(1, 0), line(1, 0)]])
    with pytest.raises(ValueError):
        DecompositionSystem(rows, witness=[Matrix.identity(2)])
    # the zero matrix maps every part into its target, but is not invertible
    with pytest.raises(ValueError):
        DecompositionSystem(rows, witness=[Matrix.zero(2)])


# ------------------------------------------------------------ record types


LINES = [line(1, 0), line(0, 1)]
REPS = [Matrix([[1], [0]]), Matrix([[0], [1]])]
RECORDS = {
    "Tss": lambda: Tss([diag(1, 2), diag(2, 1)], witness=[SWAP2], params=(1,)),
    "Arrangement": lambda: Arrangement(
        LINES, witness=[SWAP2], representatives=REPS),
    "DecompositionSystem": lambda: DecompositionSystem(
        [LINES, LINES[::-1]], witness=[SWAP2]),
    "Weight": lambda: Weight([1, 2, 2]),
    "Certificate": lambda: Certificate(TOTALLY_SYMMETRIC),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    for attr in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    # a frozen slotted dataclass raises TypeError for a name it lacks
    with pytest.raises((AttributeError, TypeError)):
        record.extra = None
    assert not hasattr(record, "extra")


def test_identity_ignores_witness_and_params():
    pair = [diag(1, 2), diag(2, 1)]
    for bare, dressed in [
            (Tss(pair), RECORDS["Tss"]()),
            (Arrangement(LINES), RECORDS["Arrangement"]()),
            (DecompositionSystem([LINES, LINES[::-1]]),
             RECORDS["DecompositionSystem"]())]:
        assert bare.witness is None and dressed.witness is not None
        assert bare == dressed and hash(bare) == hash(dressed)
    assert Tss(pair, params=(3, 4)) == Tss(pair, params=(5,))
    assert Tss(pair) != Tss(pair[::-1])
    assert Arrangement(LINES) != Arrangement(LINES[::-1])


def test_certificate_shape():
    c = Certificate(TOTALLY_SYMMETRIC, witness=(SWAP2,))
    assert c.verdict == TOTALLY_SYMMETRIC and c.failing_transposition is None


def test_reimport_releases_previous_package():
    """A fresh import of the package leaves nothing of the previous one alive
    (annotations evaluated at import once kept it in typing's cache)."""
    import gc
    import importlib
    import sys
    import weakref

    def loaded():
        return {k: v for k, v in sys.modules.items()
                if k == "totsym" or k.startswith("totsym.")}

    def fresh_import():
        for name in loaded():
            del sys.modules[name]
        for name in ("field", "linalg", "core", "catalog", "spectral",
                     "serialize", "suite", "cli"):
            importlib.import_module(f"totsym.{name}")
        return weakref.ref(sys.modules["totsym.field"].Scalar)

    saved = loaded()
    try:
        first = fresh_import()
        fresh_import()
        gc.collect()
        assert first() is None
    finally:
        for name in loaded():
            del sys.modules[name]
        sys.modules.update(saved)
