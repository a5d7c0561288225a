"""JSON interchange for the exact objects.

Scalars travel as eight reduced-fraction strings in the fixed basis order,
so files are diffable and parsing is exact.  Every file is a Document:
{"kind", "payload", "meta"} with the basis stamped into the metadata.

`emit` is the one writer of document text.  Its output is byte-identical to
``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` without the
pure-Python encoder that ``json.dumps`` uses whenever ``indent`` is set,
and it spells each distinct list of strings (a scalar) once per
indentation.

A matrix is written entry by entry, zeros included, but it goes between a
document and ``Matrix`` through its rows of nonzero entries only: the
reader stores no entry that parses to zero and the writer fills every
absent entry with the zero text, so no dense matrix is built either way.
The reader and the writer of a document each keep one scalar memo for all
of its matrices, so each distinct scalar is parsed or formatted once.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

from .catalog import MAX_DIM
from .core import Arrangement, DecompositionSystem, Tss
from .field import (
    BASIS_LABELS,
    I_UNIT,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    ZETA,
    ZETA_INV,
    Scalar,
    fraction_from_text,
    ratio_from_text,
)
from .linalg import Matrix, Subspace

__all__ = [
    "SCHEMA_VERSION",
    "FIELD_BASIS",
    "KINDS",
    "ParseError",
    "KindMismatch",
    "scalar_to_json",
    "scalar_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "tss_to_json",
    "tss_from_json",
    "arrangement_to_json",
    "arrangement_from_json",
    "system_to_json",
    "system_from_json",
    "certificate_to_json",
    "document",
    "emit",
    "parse",
    "to_document",
    "from_document",
    "parse_scalar",
]

SCHEMA_VERSION = "1"
FIELD_BASIS = ",".join(BASIS_LABELS)
KINDS = ("tss", "arrangement", "system", "report")


class ParseError(ValueError):
    """Malformed document, matrix, or scalar text."""


class KindMismatch(ParseError):
    """Well-formed document of the wrong kind for the requested operation."""


def _require(cond, message):
    if not cond:
        raise ParseError(message)


def _int_field(data, key):
    _require(key in data, f"missing field {key!r}")
    value = data[key]
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"field {key!r} must be an integer")
    return value


# ---------------------------------------------------------------------------
# scalars and matrices


def scalar_to_json(s):
    """Eight reduced-fraction strings in basis order."""
    return [str(n) if d == 1 else f"{n}/{d}" for n, d in s.ratios()]


def _ratio_from_json(x):
    _require(isinstance(x, str), "scalar coordinates must be strings")
    try:
        return ratio_from_text(x)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {x!r}") from None


def scalar_from_json(data):
    _require(isinstance(data, list) and len(data) == 8,
             "scalar must be a list of 8 fraction strings")
    return Scalar.from_ratios([_ratio_from_json(x) for x in data])


# the text of an absent (zero) entry; each entry gets a copy of it
_ZERO_TEXT = ["0"] * 8


def _entries_to_json(rows, cols, cells, memo):
    """{"rows", "cols", "entries"} of the rows-by-cols matrix whose nonzero
    entries are the (row-major index, Scalar) pairs of ``cells``.

    Each distinct scalar is formatted once per ``memo``, {Scalar: text}, or
    once per call when it is None; an absent entry gets the zero text as it
    stands.  Every entry gets its own list, so a caller may edit one.
    """
    memo = {} if memo is None else memo
    flat = [_ZERO_TEXT] * (rows * cols)
    for p, x in cells:
        text = memo.get(x)
        if text is None:
            text = memo[x] = scalar_to_json(x)
        flat[p] = text
    return {"rows": rows, "cols": cols, "entries": list(map(list.copy, flat))}


def matrix_to_json(m, memo=None):
    """{"rows", "cols", "entries"} with entries flattened row-major, written
    from the nonzero rows.  A writer of several matrices passes one
    ``memo`` ({Scalar: text}) to all of them."""
    n = m.n
    cells = ((i * n + j, x) for i, row in enumerate(m.nonzero_rows)
             for j, x in row.items())
    return _entries_to_json(m.m, n, cells, memo)


def matrix_from_json(data, memo=None):
    """The matrix a {"rows", "cols", "entries"} object gives, built from its
    nonzero entries: an entry that parses to zero, however it is spelled,
    is not stored.  Each distinct entry is parsed once per ``memo``
    ({tuple of strings: Scalar}), which a reader of several matrices
    passes to all of them; only entries that parsed are remembered, so a
    bad one raises exactly as scalar_from_json does."""
    _require(isinstance(data, dict), "matrix must be an object")
    rows, cols = _int_field(data, "rows"), _int_field(data, "cols")
    _require(rows >= 1 and cols >= 1, "matrix dimensions must be positive")
    entries = data.get("entries")
    _require(isinstance(entries, list) and len(entries) == rows * cols,
             "entry count does not match rows*cols")
    memo = {} if memo is None else memo
    nonzero = []
    for start in range(0, rows * cols, cols):
        row = {}
        for j, e in enumerate(entries[start:start + cols]):
            key = tuple(e) if isinstance(e, list) else None
            try:
                x = memo[key]
            except (KeyError, TypeError):  # TypeError: an unhashable item
                x = scalar_from_json(e)
                memo[key] = x = ZERO if x.is_zero() else x
            if x is not ZERO:
                row[j] = x
        nonzero.append(row)
    return Matrix.from_nonzero_rows(nonzero, cols)


def subspace_to_json(w, memo=None):
    """Basis vectors as matrix columns, written from the echelon rows; the
    zero space keeps cols = 0."""
    d = w.dim
    if d == 0:
        return {"rows": w.n, "cols": 0, "entries": []}
    cells = ((i * d + j, x) for j, row in enumerate(w.rows) for i, x in row.items())
    return _entries_to_json(w.n, d, cells, memo)


def subspace_from_json(data, memo=None):
    """A subspace from its basis columns.  The zero space has no entries to
    back its ambient dimension, so that dimension is bounded by
    ``catalog.MAX_DIM``: an arrangement on K^n costs n×n witnesses."""
    _require(isinstance(data, dict), "subspace must be an object")
    if _int_field(data, "cols") == 0:
        n = _int_field(data, "rows")
        _require(n >= 0, f"a zero plane needs a nonnegative 'rows', not {n}")
        _require(n <= MAX_DIM, f"a zero plane in K^{n} has more than the "
                               f"{MAX_DIM} dimensions a document may give it")
        return Subspace([], n)
    return Subspace.from_matrix_columns(matrix_from_json(data, memo))


# ---------------------------------------------------------------------------
# witnesses and the three object kinds


def _witness_to_json(witness, memo, representatives=None):
    out = {"transpositions": [matrix_to_json(t, memo) for t in witness]}
    if representatives is not None:
        out["representatives"] = [matrix_to_json(m, memo) for m in representatives]
    return out


def _matrix_list(data, key, memo):
    value = data[key]
    _require(isinstance(value, list), f"field {key!r} must be a list")
    return [matrix_from_json(t, memo) for t in value]


def _witness_from_json(data, memo, what=None):
    """(transpositions, representatives or None) of a witness object; the
    witness of a set or a system (``what``) takes no representatives."""
    _require(isinstance(data, dict) and "transpositions" in data,
             "witness must carry a transposition list")
    ts = _matrix_list(data, "transpositions", memo)
    if "representatives" not in data:
        return ts, None
    _require(what is None, f"a {what} takes a plain transposition witness")
    return ts, _matrix_list(data, "representatives", memo)


def tss_to_json(t):
    memo = {}  # one scalar memo per document, here and in each reader below
    out = {
        "n": t.n,
        "k": t.k,
        "elements": [matrix_to_json(a, memo) for a in t.elements],
    }
    if t.witness is not None:
        out["witness"] = _witness_to_json(t.witness, memo)
    if t.params:
        out["params"] = [scalar_to_json(p) for p in t.params]
    return out


def tss_from_json(data):
    _require(isinstance(data, dict), "payload must be an object")
    n, k = _int_field(data, "n"), _int_field(data, "k")
    elements = data.get("elements")
    _require(isinstance(elements, list) and elements, "missing element list")
    memo = {}
    mats = [matrix_from_json(e, memo) for e in elements]
    witness = None
    if "witness" in data:
        witness, _ = _witness_from_json(data["witness"], memo, "set")
    params = data.get("params", [])
    _require(isinstance(params, list), "field 'params' must be a list")
    params = [scalar_from_json(p) for p in params]
    try:
        t = Tss(mats, witness=witness, n=n, params=params)
    except ValueError as e:
        raise ParseError(str(e)) from None
    _require(t.n == n and t.k == k, "header does not match the elements")
    return t


def arrangement_to_json(a):
    memo = {}
    out = {
        "n": a.n,
        "k": a.k,
        "d": a.d,
        "planes": [subspace_to_json(w, memo) for w in a.planes],
        "strong": a.representatives is not None,
    }
    if a.witness is not None:
        out["witness"] = _witness_to_json(a.witness, memo, a.representatives)
    return out


def arrangement_from_json(data):
    _require(isinstance(data, dict), "payload must be an object")
    n, k, d = (_int_field(data, key) for key in ("n", "k", "d"))
    planes = data.get("planes")
    _require(isinstance(planes, list) and planes, "missing plane list")
    memo = {}
    spaces = [subspace_from_json(p, memo) for p in planes]
    strong = data.get("strong", False)
    _require(isinstance(strong, bool), "field 'strong' must be a boolean")
    witness = reps = None
    if "witness" in data:
        witness, reps = _witness_from_json(data["witness"], memo)
    if strong:
        _require(reps is not None,
                 "strong flag set but no representative matrices present")
    try:  # representatives are kept only under the strong flag
        a = Arrangement(spaces, witness=witness,
                        representatives=reps if strong else None)
    except ValueError as e:
        raise ParseError(str(e)) from None
    _require(a.n == n and a.k == k and a.d == d,
             "header does not match the planes")
    return a


def system_to_json(s):
    memo = {}
    out = {
        "n": s.n,
        "k": s.k,
        "parts": s.parts,
        "grid": [[subspace_to_json(w, memo) for w in row] for row in s.grid],
    }
    if s.witness is not None:
        out["witness"] = _witness_to_json(s.witness, memo)
    return out


def system_from_json(data):
    _require(isinstance(data, dict), "payload must be an object")
    n, k, parts = (_int_field(data, key) for key in ("n", "k", "parts"))
    grid = data.get("grid")
    _require(isinstance(grid, list) and grid, "missing grid")
    memo = {}
    rows = []
    for row in grid:
        _require(isinstance(row, list) and row, "grid rows must be non-empty")
        rows.append([subspace_from_json(w, memo) for w in row])
    witness = None
    if "witness" in data:
        witness, _ = _witness_from_json(data["witness"], memo, "system")
    try:
        s = DecompositionSystem(rows, witness=witness)
    except ValueError as e:
        raise ParseError(str(e)) from None
    _require(s.n == n and s.k == k and s.parts == parts,
             "header does not match the grid")
    return s


def certificate_to_json(c):
    out = {"verdict": c.verdict}
    if c.witness is not None:
        out["witness"] = _witness_to_json(c.witness, {})
    if c.failing_transposition is not None:
        out["failing_transposition"] = c.failing_transposition
    if c.detail:
        out["detail"] = c.detail
    return out


# ---------------------------------------------------------------------------
# documents


def document(kind, payload):
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {
        "kind": kind,
        "payload": payload,
        "meta": {"field_basis": FIELD_BASIS, "version": SCHEMA_VERSION},
    }


def _write(x, pad, out, memo):
    """Append the text json.dumps(x, sort_keys=True, indent=2) gives for x
    at indentation `pad` to the list `out`.

    The text of each list of strings (a scalar) goes into ``memo`` under
    (its indentation, *its items), and an item of a list is looked up there
    before it is written.  Only lists of strings are stored: 1, True and
    1.0 are equal keys but are spelled apart, while a string never equals
    any other item, so no lookup finds the text of a different list.
    """
    if isinstance(x, str):
        out.append(_quote(x))
        return
    if not x or not isinstance(x, (list, tuple, dict)):
        out.append(json.dumps(x))  # leaves, [] and {}
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        out.append("{\n" + inner)
        for j, (key, v) in enumerate(sorted(x.items())):
            if not isinstance(key, str):  # as json.dumps spells or rejects it
                key, = json.loads(json.dumps({key: None}))
            out.append(f"{sep if j else ''}{_quote(key)}: ")
            _write(v, inner, out, memo)
        out.append(f"\n{pad}}}")
        return
    try:  # a list of strings, such as a scalar, in one join
        text = f"[\n{inner}{sep.join(map(_quote, x))}\n{pad}]"
    except TypeError:  # an item that is not a string
        pass
    else:
        memo[(pad, *x)] = text
        out.append(text)
        return
    out.append("[\n" + inner)
    for j, v in enumerate(x):
        if j:
            out.append(sep)
        if isinstance(v, (list, tuple)):
            try:
                out.append(memo[(inner, *v)])
                continue
            except (KeyError, TypeError):  # TypeError: an unhashable item
                pass
        _write(v, inner, out, memo)
    out.append(f"\n{pad}]")


def emit(doc):
    """Canonical text: sorted keys, two-space indent, trailing newline.

    Byte-identical to json.dumps(doc, sort_keys=True, indent=2) + "\n".
    """
    out = []
    try:
        _write(doc, "", out, {})
    except RecursionError:
        raise ValueError("document nested too deeply to write") from None
    out.append("\n")
    return "".join(out)


def parse(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not JSON: {e}") from None
    except RecursionError:
        raise ParseError("not JSON: nested too deeply") from None
    _require(isinstance(doc, dict), "document must be an object")
    for key in ("kind", "payload", "meta"):
        _require(key in doc, f"missing field {key!r}")
    _require(doc["kind"] in KINDS, f"unknown document kind {doc['kind']!r}")
    meta = doc["meta"]
    _require(isinstance(meta, dict), "meta must be an object")
    _require(meta.get("field_basis") == FIELD_BASIS,
             "document uses a different scalar basis")
    _require(meta.get("version") == SCHEMA_VERSION,
             f"document version {meta.get('version')!r} is not {SCHEMA_VERSION!r}")
    return doc


def to_document(obj):
    if isinstance(obj, Tss):
        return document("tss", tss_to_json(obj))
    if isinstance(obj, Arrangement):
        return document("arrangement", arrangement_to_json(obj))
    if isinstance(obj, DecompositionSystem):
        return document("system", system_to_json(obj))
    if isinstance(obj, dict):
        return document("report", obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_document(doc, expect=None):
    """The object inside a parsed document; reports come back as dicts."""
    kind = doc["kind"]
    if expect is not None and kind != expect:
        raise KindMismatch(f"expected kind {expect!r}, got {kind!r}")
    payload = doc["payload"]
    if kind == "tss":
        return tss_from_json(payload)
    if kind == "arrangement":
        return arrangement_from_json(payload)
    if kind == "system":
        return system_from_json(payload)
    return payload


# ---------------------------------------------------------------------------
# command-line scalar shorthand


_NAMED = {
    "i": I_UNIT,
    "sqrt2": SQRT2,
    "sqrt3": SQRT3,
    "sqrt6": SQRT6,
    "zeta": ZETA,
    "zeta_inv": ZETA_INV,
}


def parse_scalar(text):
    """Exact scalar from shorthand: rationals "p/q" and the named surds
    ("i", "sqrt2", "sqrt3", "sqrt6", "zeta", "zeta_inv") combined with
    + and *.  Signs ride on the rational tokens, e.g. "-1/2+1/2*i*sqrt3".
    """
    source = text.replace(" ", "")
    _require(source != "", "empty scalar")
    total = ZERO
    for term in source.split("+"):
        _require(term != "", f"empty term in {text!r}")
        product = ONE
        for token in term.split("*"):
            if token in _NAMED:
                product = product * _NAMED[token]
                continue
            try:
                q = fraction_from_text(token)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad scalar token {token!r}") from None
            product = product * Scalar.rational(q)
        total = total + product
    return total
