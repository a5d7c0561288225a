"""One-command regression sweep over every exact identity in the library.

Each check is named by what it verifies and returns pass/fail with a detail
string; failures embed the exact offending matrices.  run_suite() gathers
them all, sorted by name, and format_report renders one line per check.
One check group, ``spin_presentation_checks(ts)``, accepts replacement
generator matrices, so tests can inject faults.
"""

from itertools import combinations

from .catalog import (
    dual_simplex_arrangement,
    induction,
    ncsimplex,
    partition_construction,
    permutation_type,
    simplex_arrangement,
    sporadic4,
    standard,
    suspension_simplex,
    tilde_sigma5_arrangement,
    tilde_sigma5_construction,
    tilde_sigma5_rep,
)
from .core import (
    TOTALLY_SYMMETRIC,
    Tss,
    half_dim_normal_form,
    involution_checks,
    isomorphic,
    stabilizer_dimension,
    verify_arrangement,
    verify_tss,
)
from .field import (
    HALF,
    I_UNIT,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    ZETA,
    ZETA_INV,
    MU_SPORADIC,
    Scalar,
    sqrt_restricted,
)
from .linalg import Matrix, Subspace, kernel, matrix_to_vec
from .spectral import (
    IRREDUCIBLE,
    NON_DIAGONALIZABLE,
    FullAlgebra,
    ProperAlgebra,
    classify_commutative,
    depth_profile,
    ensure,
    irreducibility_certificate,
    jfold,
)

__all__ = [
    "format_report",
    "halfdim_nonexistence_suite",
    "rep_obstruction_suite",
    "run_suite",
    "spin_presentation_checks",
]

_PRODUCERS = []


def _producer(fn):
    _PRODUCERS.append(fn)
    return fn


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# scalar identities


@_producer
def _field_checks():
    mu = MU_SPORADIC
    three = Scalar.rational(3)
    root = sqrt_restricted(-32)
    return [
        _check("field.zeta_minimal_polynomial",
               ZETA * ZETA - ZETA + ONE == Scalar.rational(0),
               "zeta^2 - zeta + 1 = 0"),
        _check("field.zeta_inverse_complement",
               ONE - ZETA == ZETA_INV and ZETA * ZETA_INV == ONE,
               "1 - zeta = zeta^(-1)"),
        _check("field.sporadic_root",
               (three * mu * mu + Scalar.rational(2) * mu + three).is_zero(),
               "3*mu^2 + 2*mu + 3 = 0"),
        _check("field.sporadic_discriminant",
               root * root == Scalar.rational(-32)
               and root == Scalar.rational(4) * I_UNIT * SQRT2,
               "sqrt(-32) = 4*i*sqrt2"),
    ]


# ---------------------------------------------------------------------------
# the double-cover presentation


def spin_presentation_checks(ts=None):
    """Presentation relations for the four generator matrices; pass a
    replacement tuple to watch a specific relation fail."""
    if ts is None:
        ts = tilde_sigma5_rep()
    minus = -Matrix.identity(ts[0].n)
    checks = []

    bad = next((i for i, t in enumerate(ts) if t * t != minus), None)
    checks.append(_check(
        "spin.involution", bad is None,
        "all generators square to -1" if bad is None
        else f"generator {bad} squares to {(ts[bad] * ts[bad])!r}"))

    bad = next((i for i in range(len(ts) - 1)
                if (ts[i] * ts[i + 1]) ** 3 != minus), None)
    checks.append(_check(
        "spin.braid", bad is None,
        "adjacent products have cube -1" if bad is None
        else f"pair ({bad},{bad + 1}) cubes to {((ts[bad] * ts[bad + 1]) ** 3)!r}"))

    bad = next(((i, j) for i in range(len(ts)) for j in range(i + 2, len(ts))
                if ts[i] * ts[j] != -(ts[j] * ts[i])), None)
    checks.append(_check(
        "spin.anticommute", bad is None,
        "distant generators anticommute" if bad is None
        else f"pair {bad} commutator defect {(ts[bad[0]] * ts[bad[1]] + ts[bad[1]] * ts[bad[0]])!r}"))
    return checks


@_producer
def _spin_checks():
    checks = spin_presentation_checks()

    a = tilde_sigma5_arrangement()
    cert = verify_arrangement(a)
    checks.append(_check(
        "spin.arrangement_verifies", cert.verdict == TOTALLY_SYMMETRIC,
        f"verdict {cert.verdict} on {a.k} planes of dimension {a.d} in K^{a.n}"))

    _, t = half_dim_normal_form(a)
    sixth_i3 = I_UNIT * SQRT3 * Scalar.rational(1, 6)
    third_i6 = I_UNIT * SQRT6 * Scalar.rational(1, 3)
    expected = (
        Matrix([[ZETA, Scalar.rational(0)], [Scalar.rational(0), ZETA_INV]]),
        Matrix([[HALF + sixth_i3, third_i6], [third_i6, HALF - sixth_i3]]),
    )
    pair_ok = (t.elements == expected
               and verify_tss(t).verdict == TOTALLY_SYMMETRIC)
    checks.append(_check(
        "spin.halfdim_pair", pair_ok,
        "graph maps are diag(zeta, zeta^(-1)) and its conjugate partner"
        if pair_ok else f"got {t.elements!r}"))

    flags = involution_checks(t)
    checks.append(_check(
        "spin.involution_checks",
        all(f["conjugate_to_inverse"] and f["conjugate_to_one_minus"]
            for f in flags),
        f"flags {flags!r}"))
    return checks


# ---------------------------------------------------------------------------
# the sporadic four-element set


@_producer
def _sporadic_checks():
    t = sporadic4(1)
    w = t.witness[0]
    p = w.submatrix(range(2), range(2))
    q = w.submatrix(range(2, 4), range(2, 4))
    q_inv = q.inverse()
    xs = [e.submatrix(range(2), range(2, 4)) for e in t.elements]
    conj = [p * x * q_inv for x in xs]
    conj_ok = (conj[0] == xs[1] and conj[1] == xs[0]
               and conj[2] == xs[2] and conj[3] == xs[3])
    cert = verify_tss(t)
    return [
        _check("sporadic.conjugations", conj_ok,
               "block conjugation swaps the first two elements, fixes the rest"
               if conj_ok else f"conjugates {conj!r}"),
        _check("sporadic.verifies", cert.verdict == TOTALLY_SYMMETRIC,
               f"verdict {cert.verdict} for k={t.k} in K^{t.n}"),
    ]


# ---------------------------------------------------------------------------
# catalog shapes


@_producer
def _catalog_checks():
    checks = []

    def diag(*entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                       for i in range(n)])

    t = standard(3, 1, 2)
    checks.append(_check(
        "catalog.standard_tableau",
        t.elements == (diag(2, 1, 1), diag(1, 2, 1), diag(1, 1, 2)),
        f"elements {t.elements!r}"))

    t = permutation_type([3, 1, 2])
    printed = [(3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3)]
    cols = sorted(
        (tuple(a.rows[j][j] for a in t.elements) for j in range(t.n)),
        key=lambda c: tuple(x.sort_key() for x in c))
    want = sorted(
        (tuple(Scalar.rational(v) for v in c) for c in printed),
        key=lambda c: tuple(x.sort_key() for x in c))
    checks.append(_check(
        "catalog.permutation_tableau", cols == want,
        "diagonal columns realize each arrangement of (1,2,3) once"))

    dims3 = [partition_construction(w).n
             for w in ([1, 1, 1], [1, 1, 2], [1, 2, 3])]
    dims4 = [partition_construction(w).n
             for w in ([1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2],
                       [1, 1, 2, 3], [1, 2, 3, 4])]
    checks.append(_check(
        "catalog.partition_dimensions",
        dims3 == [1, 3, 6] and dims4 == [1, 4, 6, 12, 24],
        f"k=3 dims {dims3}, k=4 dims {dims4}"))

    ok = all(verify_arrangement(simplex_arrangement(n)).verdict
             == TOTALLY_SYMMETRIC and
             simplex_arrangement(n).representatives is not None
             for n in (2, 3, 4))
    checks.append(_check("catalog.simplex_family", ok,
                         "lines verify with representative witnesses, n = 2..4"))

    ok = all(verify_arrangement(dual_simplex_arrangement(n)).verdict
             == TOTALLY_SYMMETRIC for n in (2, 3, 4))
    checks.append(_check("catalog.dual_simplex_family", ok,
                         "annihilator lines verify, n = 2..4"))

    t = suspension_simplex(3, 2)
    two_eye = Matrix.scalar(3, Scalar.rational(2))
    blocks_ok = all(
        a.submatrix(range(3), range(3)) == two_eye for a in t.elements)
    checks.append(_check(
        "catalog.suspension_restriction",
        blocks_ok and classify_commutative(t).verdict == NON_DIAGONALIZABLE,
        "restriction to the invariant block is the scalar 2, Jordan part remains"))

    t = induction(standard(2, 1, 2), 1, 3)
    model = partition_construction([1, 2, 3])
    checks.append(_check(
        "catalog.induction_tableau",
        t.n == 6 and isomorphic(t, model) is not None,
        "one fresh eigenvalue over the standard pair gives the 6-dim model"))
    return checks


# ---------------------------------------------------------------------------
# eigenstructure analytics


@_producer
def _spectral_checks():
    checks = []

    weights = ([1, 1, 1], [1, 1, 2], [1, 2, 3],
               [1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2],
               [1, 1, 2, 3], [1, 2, 3, 4])
    ok = True
    for w in weights:
        res = classify_commutative(partition_construction(w))
        if res.verdict != IRREDUCIBLE or res.weight.values != tuple(
                Scalar.rational(v) for v in w):
            ok = False
            break
    checks.append(_check(
        "spectral.classification_round_trip", ok,
        f"{len(weights)} weights recovered" if ok else f"failed on {w}"))

    prof = depth_profile(standard(3, 1, 2), 1)
    checks.append(_check(
        "spectral.standard_depth",
        prof.mu == (2, 1, 0) and prof.depth == 2,
        f"subset table {prof.mu}"))

    ok = True
    detail = []
    for k, p in ((1, 1), (2, 1), (1, 2), (2, 2)):
        base = standard(k, 1, 2) if k > 1 else Tss([Matrix([[2]])])
        t = induction(base, p, 5)
        if depth_profile(t, 5).depth != p:
            ok = False
        total = Subspace([], t.n)
        dims = 0
        for s in combinations(range(t.k), p):
            e = jfold(t, 5, 1, s)
            total, dims = total + e, dims + e.dim
        if not (dims == t.n and total.dim == t.n):
            ok = False
        detail.append(f"(k={k},p={p})")
    checks.append(_check(
        "spectral.depth_law", ok,
        "fresh eigenvalue has depth p and its p-fold eigenspaces fill the space: "
        + ", ".join(detail)))

    dims = ([stabilizer_dimension(simplex_arrangement(n))[0]
             for n in (2, 3, 4, 5)]
            + [stabilizer_dimension(dual_simplex_arrangement(n))[0]
               for n in (2, 3, 4, 5)]
            + [stabilizer_dimension(tilde_sigma5_arrangement())[0]])
    checks.append(_check(
        "spectral.stabilizer_dimensions", dims == [1] * 9,
        f"joint stabilizers all scalar: dims {dims}"))

    full = irreducibility_certificate(standard(3, 1, 2))
    proper = irreducibility_certificate(suspension_simplex(3, 2))
    tiny = irreducibility_certificate(Tss([Matrix.scalar(2, Scalar.rational(3))]))
    cert_ok = (isinstance(full, FullAlgebra) and full.dim == 9
               and isinstance(proper, ProperAlgebra)
               and proper.invariant_subspace ==
               Subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
               and isinstance(tiny, ProperAlgebra) and tiny.dim == 1)
    checks.append(_check(
        "spectral.certificates", cert_ok,
        f"closure dims {full.dim}, {proper.dim}, {tiny.dim}"))
    return checks


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


@_producer
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


@_producer
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


# ---------------------------------------------------------------------------
# aggregation


def run_suite():
    """Run every registered check; the report is sorted by check name."""
    checks = []
    for fn in _PRODUCERS:
        checks.extend(fn())
    checks.sort(key=lambda c: c["name"])
    names = [c["name"] for c in checks]
    ensure(len(set(names)) == len(names), "duplicate check name")
    return {
        "checks": checks,
        "count": len(checks),
        "passed": all(c["passed"] for c in checks),
    }


def format_report(report):
    lines = []
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        line = f"{mark} {c['name']}"
        if c["detail"] and not c["passed"]:
            line += f": {c['detail']}"
        lines.append(line)
    summary = "all passed" if report["passed"] else "FAILURES PRESENT"
    lines.append(f"{report['count']} checks, {summary}")
    return "\n".join(lines)
