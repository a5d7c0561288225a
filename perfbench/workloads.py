"""The three benchmark workloads: their seeded inputs and their checks.

A workload hands out *blocks*.  Every block holds the same fixed mix of
item kinds, drawn with fresh seeded parameters and shuffled, so that runs
on different seeds measure the same mix and a run that stops at a block
boundary never over- or under-represents a kind.  An item is one library
verdict (``certify``, ``spectral``) or one document pipeline
(``documents``).  Each item carries a zero-argument ``call``, the only code
that is timed, and a ``check`` that judges the result with values fixed
here or computed by ``kcheck``, never by the code under test.

The library is passed in as ``lib``, a namespace of freshly imported totsym
modules, and is always reached through module attributes at call time, so
that tracing wrappers installed after set-up see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

import kcheck

TOTALLY_SYMMETRIC = "TotallySymmetric"
NOT_TOTALLY_SYMMETRIC = "NotTotallySymmetric"
IRREDUCIBLE = "Irreducible"

# eigenvalue parameters drawn per item; pairs are always distinct
# (integers, so that an item's cost does not swing with the draw; the dense
# changes of basis bring in the irrational and fractional coordinates)
PARAMS = (2, 1, 3, -1, -2, 5, 4, -3)
# weight values for the commutative classification
WEIGHT_VALUES = (-3, -2, -1, 1, 2, 3, 4, 5, 6, 7)

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Item:
    """One timed unit: `call()` is timed, `check(result)` returns None or
    the reason the result is wrong; the rest describes the input for the
    run's mix record (`key()` digests the input, and is called only after
    the item has run, so that it adds nothing to set-up time)."""

    kind: str
    n: int
    call: Callable
    check: Callable
    key: Callable
    disguised: bool = False
    near_miss: bool = False
    slot: int = -1  # place in the block's fixed mix, set by `shuffled`


def shuffled(rng, items):
    """Number the items by their place in the block's fixed mix, then
    shuffle them: a slot holds the same kind of input in every block."""
    for slot, item in enumerate(items):
        item.slot = slot
    rng.shuffle(items)
    return items


def _key(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _sort_key(c):
    # the library's documented scalar order: coordinates as (num, den) pairs
    return tuple((x.numerator, x.denominator) for x in c)


def _rational(v):
    return (Fraction(v),) + kcheck.ZERO[1:]


def _swap(seq, j):
    out = list(seq)
    out[j], out[j + 1] = out[j + 1], out[j]
    return out


# ---------------------------------------------------------------------------
# changes of basis, computed here so the inputs do not depend on the library


def _unit_triangular(rng, n, lower):
    """Unit triangular matrix whose off-diagonal entry (r, c) is a random
    sign times the surd basis element 1 + (r + 2c) mod 7, so every seed
    gets the same sparsity and surds and only the signs vary; products of
    such entries fill all 8 coordinates."""
    one, rows = _rational(1), []
    for r in range(n):
        row = []
        for c in range(n):
            if r == c:
                row.append(one)
            elif (r > c) == lower:
                x = [Fraction(0)] * 8
                x[1 + (r + 2 * c) % 7] = Fraction(rng.choice((-1, 1)))
                row.append(tuple(x))
            else:
                row.append(kcheck.ZERO)
        rows.append(row)
    return rows


def _unit_lower_inverse(low):
    n = len(low)
    inv = [[_rational(1) if r == c else kcheck.ZERO for c in range(n)]
           for r in range(n)]
    for r in range(n):
        for c in range(r):
            acc = kcheck.ZERO
            for k in range(c, r):
                acc = kcheck.kadd(acc, kcheck.kmul(low[r][k], inv[k][c]))
            inv[r][c] = tuple(-x for x in acc)
    return inv


def _transpose(a):
    return [list(col) for col in zip(*a)]


def dense_basis_change(rng, n):
    """(P, P^-1) with P = L*U for random unit triangular L, U over K."""
    low = _unit_triangular(rng, n, lower=True)
    up = _unit_triangular(rng, n, lower=False)
    p = kcheck.matmul(low, up)
    up_inv = _transpose(_unit_lower_inverse(_transpose(up)))
    return p, kcheck.matmul(up_inv, _unit_lower_inverse(low))


def monomial_basis_change(rng, n):
    """A random signed permutation matrix: a sparse change of basis."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[kcheck.ZERO] * n for _ in range(n)]
    for c, r in enumerate(perm):
        p[r][c] = _rational(rng.choice((-1, 1)))
    return p


def _to_matrix(lib, a):
    scalar = lib.field.Scalar
    return lib.linalg.Matrix([[scalar(x) for x in row] for row in a])


def conjugate_set(lib, t, p, p_inv):
    """The matrix set P A_i P^-1, keeping the eigenvalue hints."""
    mats = [_to_matrix(lib, kcheck.matmul(kcheck.matmul(p, kcheck.matrix(a)), p_inv))
            for a in t.elements]
    return lib.core.Tss(mats, params=t.params)


def transport_arrangement(lib, a, p):
    """The arrangement of planes P W_i."""
    n = a.n
    planes = []
    for w in a.planes:
        vecs = [kcheck.matvec(p, [kcheck.coords(x) for x in v]) for v in w.basis]
        planes.append(lib.linalg.Subspace(
            [[lib.field.Scalar(x) for x in v] for v in vecs], n))
    return lib.core.Arrangement(planes)


# ---------------------------------------------------------------------------
# certify: from-scratch total-symmetry verdicts


def _check_tss_witness(t, cert):
    els = [kcheck.matrix(a) for a in t.elements]
    w = cert.witness
    if w is None or len(w) != t.k - 1:
        return "missing or short witness"
    for j, p in enumerate(w):
        pm = kcheck.matrix(p)
        if not kcheck.certified_invertible(pm):
            return f"witness {j} not certified invertible"
        for a, b in zip(els, _swap(els, j)):
            if kcheck.matmul(pm, a) != kcheck.matmul(b, pm):
                return f"witness {j} does not conjugate the set"
    return None


def _check_arrangement_witness(a, cert):
    planes = [[[kcheck.coords(x) for x in v] for v in w.basis] for w in a.planes]
    w = cert.witness
    if w is None or len(w) != a.k - 1:
        return "missing or short witness"
    for j, p in enumerate(w):
        pm = kcheck.matrix(p)
        if not kcheck.certified_invertible(pm):
            return f"witness {j} not certified invertible"
        for src, dst in zip(planes, _swap(planes, j)):
            for v in src:
                inside = kcheck.in_span_rref(dst, kcheck.matvec(pm, v))
                if not inside:
                    return f"witness {j} does not transport the planes"
    return None


def _verdict_item(lib, kind, obj, expect, disguised=False, near_miss=False):
    arrangement = isinstance(obj, lib.core.Arrangement)
    core = lib.core

    if arrangement:
        def call():
            return core.verify_arrangement(obj, from_scratch=True)
    else:
        def call():
            return core.verify_tss(obj, from_scratch=True)

    def check(cert):
        if cert.verdict != expect:
            return f"verdict {cert.verdict}, expected {expect}"
        if expect != TOTALLY_SYMMETRIC:
            return None
        if arrangement:
            return _check_arrangement_witness(obj, cert)
        return _check_tss_witness(obj, cert)

    if arrangement:
        def key():
            return _key([[kcheck.coords(x) for v in w.basis for x in v]
                         for w in obj.planes])
    else:
        def key():
            return _key([kcheck.matrix(a) for a in obj.elements])
    return Item(kind, obj.n, call, check, key, disguised, near_miss)


def _diag(lib, values):
    n = len(values)
    return _to_matrix(lib, [[_rational(values[r]) if r == c else kcheck.ZERO
                             for c in range(n)] for r in range(n)])


# diagonal patterns over two eigenvalues a = 0, b = 1; in each, some adjacent
# pair has different spectra, so a similarity invariant refutes the set,
# while every adjacent transposition keeps a nonzero intertwiner space, so
# the witness search runs to exhaustion
NEAR_MISS_PATTERNS = (
    ((0, 0, 1), (0, 1, 1)),
    ((0, 0, 1), (1, 1, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 1)),
    ((0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)),
)


def near_miss_diagonals(rng, pattern):
    """The pattern with seeded eigenvalues and a seeded coordinate order."""
    values = rng.sample(PARAMS, 2)
    order = list(range(len(pattern[0])))
    rng.shuffle(order)
    return [tuple(values[d[c]] for c in order) for d in pattern]


def intertwiner_nonzero(diags, j):
    # X D_i = D_tau(i) X leaves X[r][c] free iff D_i[c] == D_tau(i)[r] for all i
    k, n = len(diags), len(diags[0])
    tau = _swap(range(k), j)
    return any(all(diags[i][c] == diags[tau[i]][r] for i in range(k))
               for r in range(n) for c in range(n))


PARTITION_SHAPES_CERTIFY = ((0, 0, 1), (0, 0, 0, 1), (0, 1, 2), (0, 0, 1, 1))


def _weight(rng, shape):
    vals = rng.sample(WEIGHT_VALUES, max(shape) + 1)
    return [vals[s] for s in shape]


def _pair(rng):
    return rng.sample(PARAMS, 2)


class Workload:
    """Hands out blocks of items; `root` is the checkout, for scratch files."""

    name = None

    def __init__(self, root):
        pass

    def close(self):
        pass

    def block(self, lib, rng):
        raise NotImplementedError


class Certify(Workload):
    """From-scratch verify_tss / verify_arrangement on catalog objects in
    their own basis, the same objects after a dense change of basis over K,
    and near-misses refuted by a similarity invariant."""

    name = "certify"

    def _tss_slots(self, lib, rng):
        cat = lib.catalog
        out = []
        for k in (3, 4, 5):
            out.append((f"ncsimplex{k}", cat.ncsimplex(k, *_pair(rng))))
        for k in (2, 3, 4):
            out.append((f"standard{k}", cat.standard(k, *_pair(rng))))
        out.append(("sporadic4", cat.sporadic4(rng.choice(PARAMS))))
        out.append(("s5-construction", cat.tilde_sigma5_construction(*_pair(rng))))
        for shape in PARTITION_SHAPES_CERTIFY:
            t = cat.partition_construction(_weight(rng, shape))
            out.append((f"partition{t.n}", t))
        return out

    def _arrangement_slots(self, lib):
        cat = lib.catalog
        out = [(f"simplex{n}", cat.simplex_arrangement(n)) for n in (2, 3, 4, 5)]
        out += [(f"dual-simplex{n}", cat.dual_simplex_arrangement(n)) for n in (2, 3, 4)]
        out.append(("s5-arrangement", cat.tilde_sigma5_arrangement()))
        return out

    def block(self, lib, rng):
        items = []
        tss = self._tss_slots(lib, rng)
        for kind, t in tss:
            items.append(_verdict_item(lib, kind, t, TOTALLY_SYMMETRIC))
        arrangements = self._arrangement_slots(lib)
        for kind, a in arrangements:
            moved = transport_arrangement(lib, a, monomial_basis_change(rng, a.n))
            items.append(_verdict_item(lib, kind, moved, TOTALLY_SYMMETRIC))
        disguise = {"standard2", "standard3", "ncsimplex3", "partition3"}
        for kind, t in tss:
            if kind in disguise:
                p, p_inv = dense_basis_change(rng, t.n)
                items.append(_verdict_item(lib, kind, conjugate_set(lib, t, p, p_inv),
                                           TOTALLY_SYMMETRIC, disguised=True))
        for kind, a in arrangements:
            if kind in ("simplex2", "simplex3", "dual-simplex2", "dual-simplex3"):
                p, _ = dense_basis_change(rng, a.n)
                items.append(_verdict_item(lib, kind, transport_arrangement(lib, a, p),
                                           TOTALLY_SYMMETRIC, disguised=True))
        for pattern in NEAR_MISS_PATTERNS:
            t = lib.core.Tss([_diag(lib, d) for d in near_miss_diagonals(rng, pattern)])
            items.append(_verdict_item(lib, f"near-miss{t.n}x{t.k}", t,
                                       NOT_TOTALLY_SYMMETRIC, near_miss=True))
        return shuffled(rng, items)


# ---------------------------------------------------------------------------
# spectral: classification, Burnside closure and depth profiles


def _classify_item(lib, rng, shape, disguised):
    values = _weight(rng, shape)
    if len(set(values)) == len(values):
        t = lib.catalog.permutation_type(values)
    else:
        t = lib.catalog.partition_construction(values)
    if disguised:
        t = conjugate_set(lib, t, *dense_basis_change(rng, t.n))
    expected = sorted((_rational(v) for v in values), key=_sort_key)
    spectral = lib.spectral

    def call():
        return spectral.classify_commutative(t)

    def check(res):
        if res.verdict != IRREDUCIBLE:
            return f"verdict {res.verdict}, expected {IRREDUCIBLE}"
        got = [kcheck.coords(v) for v in res.weight.values]
        if got != expected:
            return "recovered weight differs from the generating weight"
        return None

    return Item(f"classify{t.n}", t.n, call, check,
                lambda: _key("classify", [kcheck.matrix(a) for a in t.elements]),
                disguised)


def _spectral_objects(lib, rng):
    """(kind, set, closure dimension, {eigenvalue: depth table}) with the
    closure dimensions and depth tables that theory fixes for each family."""
    cat, out = lib.catalog, []
    for k in (3, 4):
        lam, nu = _pair(rng)
        out.append((f"standard{k}", cat.standard(k, lam, nu), k * k,
                    {lam: [k - j for j in range(1, k + 1)],
                     nu: [1] + [0] * (k - 1)}))
    for k in (3, 4, 5):
        lam, mu = _pair(rng)
        n = k - 1
        out.append((f"ncsimplex{k}", cat.ncsimplex(k, lam, mu), n * n,
                    {lam: [1] + [0] * (k - 1),
                     mu: [max(n - j, 0) for j in range(1, k + 1)]}))
    nu = rng.choice(PARAMS)
    out.append(("sporadic4", cat.sporadic4(nu), 12, {nu: [2, 2, 2, 2]}))
    for n in (2, 3, 4):
        lam = rng.choice(PARAMS)
        out.append((f"suspension-simplex{n}", cat.suspension_simplex(n, lam),
                    n * n + n + 1, {lam: [n] * (n + 1)}))
    for base_k, p in ((2, 1), (1, 2), (1, 3)):
        lam, a, b = rng.sample(PARAMS, 3)
        if base_k == 1:
            base = lib.core.Tss([_diag(lib, [a])])
        else:
            base = cat.standard(base_k, a, b)
        t = cat.induction(base, p, lam)
        kp = base_k + p
        depth = [comb(kp - j, p - j) * base.n if j <= p else 0
                 for j in range(1, kp + 1)]
        out.append((f"induction{t.n}", t, t.n * t.n, {lam: depth}))
    return out


def _closure_item(lib, kind, t, dim):
    spectral = lib.spectral

    def call():
        return spectral.irreducibility_certificate(t)

    def check(cert):
        full = dim == t.n * t.n
        want = "FullAlgebra" if full else "ProperAlgebra"
        if type(cert).__name__ != want or cert.dim != dim:
            return f"closure {cert!r}, expected {want}(dim={dim})"
        return None

    return Item(f"closure-{kind}", t.n, call, check,
                lambda: _key("closure", [kcheck.matrix(a) for a in t.elements]))


def _depth_item(lib, kind, t, lam, table):
    spectral = lib.spectral
    value = lib.field.Scalar(_rational(lam))

    def call():
        return spectral.depth_profile(t, value)

    def check(prof):
        if list(prof.mu) != table:
            return f"depth table {prof.mu}, expected {tuple(table)}"
        return None

    return Item(f"depth-{kind}", t.n, call, check,
                lambda: _key("depth", lam, [kcheck.matrix(a) for a in t.elements]))


CLASSIFY_SHAPES = ((0, 0, 1), (0, 1, 2), (0, 0, 0, 1), (0, 0, 1, 1),
                   (0, 0, 1, 2), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1))


class Spectral(Workload):
    """classify_commutative on seeded partition / permutation weight sets,
    and irreducibility_certificate / depth_profile on catalog families."""

    name = "spectral"

    def block(self, lib, rng):
        items = [_classify_item(lib, rng, s, False) for s in CLASSIFY_SHAPES]
        items += [_classify_item(lib, rng, s, True) for s in ((0, 0, 1), (0, 0, 0, 1))]
        for kind, t, dim, depths in _spectral_objects(lib, rng):
            items.append(_closure_item(lib, kind, t, dim))
            for lam, table in depths.items():
                items.append(_depth_item(lib, kind, t, lam, table))
        return shuffled(rng, items)


# ---------------------------------------------------------------------------
# documents: construct -> export -> verify through the command line


def _standard_variants(k):
    return [("standard", "--k", str(k), "--lambda", lam, "--nu", nu)
            for lam, nu in (("2", "1"), ("3", "-1"), ("1/2", "5"))]


def _ncsimplex_variants(k):
    return [("ncsimplex", "--k", str(k), "--lambda", lam, "--mu", mu)
            for lam, mu in (("2", "1"), ("-1", "3"), ("1/3", "2"))]


# one variant of every slot goes into each block
DOCUMENT_SLOTS = (
    [_standard_variants(k) for k in (2, 3, 4)]
    + [_ncsimplex_variants(k) for k in (3, 4, 5)]
    + [[("partition", "--lambda", v) for v in vs] for vs in (
        ("1,1,2", "2,-1,-1"), ("1,2,2", "3,3,-1"),
        ("1,1,1,2", "5,2,2,2"), ("1,1,2,2", "3,-1,3,-1"))]
    + [[("perm", "--lambda", "1,2,3"), ("perm", "--lambda", "2,-1,5")],
       [("perm", "--lambda", "1,2,3,4")]]
    + [[("simplex", "--n", str(n))] for n in (2, 3, 4, 5)]
    + [[("dual-simplex", "--n", str(n))] for n in (2, 3, 4, 5)]
    + [[("suspension-simplex", "--n", str(n), "--lambda", lam) for lam in ("2", "3")]
       for n in (2, 3)]
    + [[("s5-arrangement",)],
       [("s5-construction", "--lambda", lam, "--mu", mu)
        for lam, mu in (("2", "1"), ("3", "-1"))],
       [("sporadic4", "--nu", nu) for nu in ("1", "2")]]
)

ARRANGEMENTS = ("simplex", "dual-simplex", "s5-arrangement")
# classification of the n = 24 permutation set takes seconds; left out
CLASSIFY_MAX_DIM = 12


def spec_name(spec):
    return " ".join(spec)


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def _payload(path):
    with open(path) as f:
        return json.load(f)["payload"]


def _weight_json(text):
    values = sorted((Fraction(v) for v in text.split(",")),
                    key=lambda v: _sort_key(_rational(v)))
    return [[str(x) for x in _rational(v)] for v in values]


def _orbit_dim(text):
    values = text.split(",")
    dim = factorial(len(values))
    for v in set(values):
        dim //= factorial(values.count(v))
    return dim


def document_dim(spec):
    """The ambient dimension of the object a construct spec builds."""
    name, args = spec[0], dict(zip(spec[1::2], spec[2::2]))
    if name in ("partition", "perm"):
        return _orbit_dim(args["--lambda"])
    if name == "standard":
        return int(args["--k"])
    if name == "ncsimplex":
        return int(args["--k"]) - 1
    if name in ("simplex", "dual-simplex"):
        return int(args["--n"])
    if name == "suspension-simplex":
        return int(args["--n"]) + 1
    return 4  # s5-arrangement, s5-construction, sporadic4


class Documents(Workload):
    """In-process ``tss`` pipelines on temporary files: construct, export,
    verify (bundled-witness recheck), then classify or stabilizer."""

    name = "documents"

    def __init__(self, root):
        self.digests = load_digests()
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root)
        d = self.tmp.name
        self.paths = {s: os.path.join(d, f"{s}.json")
                      for s in ("construct", "export", "verify", "query")}

    def close(self):
        self.tmp.cleanup()

    def _item(self, lib, spec):
        paths = self.paths
        cli = lib.cli
        name = spec[0]
        query = None
        if name in ARRANGEMENTS:
            query = "stabilizer"
        elif name in ("partition", "perm") and document_dim(spec) <= CLASSIFY_MAX_DIM:
            query = "classify"
        sink = io.StringIO()

        def call():
            codes = []
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.main(["construct", *spec, "--out", paths["construct"]]))
                codes.append(cli.main(["export", "--in", paths["construct"],
                                       "--out", paths["export"]]))
                codes.append(cli.main(["verify", "--in", paths["export"],
                                       "--out", paths["verify"]]))
                if query:
                    codes.append(cli.main([query, "--in", paths["export"],
                                           "--out", paths["query"]]))
            sink.seek(0)
            sink.truncate()
            return codes

        digest = self.digests[spec_name(spec)]

        def check(codes):
            if any(codes):
                return f"exit codes {codes}"
            with open(paths["construct"], "rb") as f:
                built = f.read()
            with open(paths["export"], "rb") as f:
                exported = f.read()
            if hashlib.sha256(built).hexdigest() != digest:
                return "construct bytes differ from the recorded digest"
            if exported != built:
                return "export bytes differ from construct bytes"
            verdict = _payload(paths["verify"]).get("verdict")
            if verdict != TOTALLY_SYMMETRIC:
                return f"verify verdict {verdict}"
            if query == "stabilizer":
                dim = _payload(paths["query"]).get("dim")
                if dim != 1:
                    return f"stabilizer dimension {dim}, expected 1"
            elif query == "classify":
                res = _payload(paths["query"])
                if res.get("verdict") != IRREDUCIBLE:
                    return f"classify verdict {res.get('verdict')}"
                if res.get("weight") != _weight_json(spec[2]):
                    return "classified weight differs from the constructed one"
            return None

        return Item(name, document_dim(spec), call, check, lambda: _key(spec))

    def block(self, lib, rng):
        items = [self._item(lib, rng.choice(variants)) for variants in DOCUMENT_SLOTS]
        return shuffled(rng, items)


WORKLOADS = {w.name: w for w in (Certify, Spectral, Documents)}

# layer call counters that must be nonzero on each workload's traced run
COVERAGE = {
    "certify": ("field.mul", "field.add", "field.inverse", "field.is_zero",
                "linalg.kernel", "linalg.subspace", "linalg.intertwiner_space",
                "linalg.det_inverse", "linalg.invertible_search",
                "core.verify_scratch"),
    "spectral": ("field.mul", "field.add", "field.inverse", "field.is_zero",
                 "linalg.matmul", "linalg.char_poly", "linalg.algebra_closure",
                 "linalg.kernel", "linalg.subspace", "spectral.classify",
                 "spectral.discover_eigenvalues", "spectral.irreducibility",
                 "spectral.depth_profile"),
    "documents": ("field.mul", "field.add", "field.inverse", "field.is_zero",
                  "linalg.matmul", "linalg.det_inverse", "core.verify_recheck",
                  "catalog.construct", "serialize.emit", "serialize.parse",
                  "serialize.to_document", "serialize.from_document", "cli.main"),
}
