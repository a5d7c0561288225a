import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totsym.catalog import (
    dual_simplex_arrangement,
    simplex_arrangement,
    simplex_system,
    sporadic4,
    standard,
    tilde_sigma5_arrangement,
)
from totsym.core import Arrangement, Certificate, verify_arrangement, verify_tss
from totsym.field import I_UNIT, MU_SPORADIC, ONE, SQRT2, ZETA, Scalar
from totsym.linalg import Matrix, Subspace
from totsym.serialize import (
    FIELD_BASIS,
    KindMismatch,
    ParseError,
    certificate_to_json,
    document,
    emit,
    from_document,
    matrix_from_json,
    matrix_to_json,
    parse,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    subspace_from_json,
    subspace_to_json,
    to_document,
    tss_from_json,
    tss_to_json,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, st.tuples(*[small_fractions] * 8))


# ------------------------------------------------------------------- scalars


def test_scalar_json_is_basis_order_strings():
    assert scalar_to_json(ZETA) == ["1/2", "0", "0", "0", "0", "0", "1/2", "0"]


@settings(max_examples=20, deadline=None)
@given(scalars)
def test_scalar_round_trip(s):
    assert scalar_from_json(scalar_to_json(s)) == s


def test_scalar_parse_rejections():
    with pytest.raises(ParseError):
        scalar_from_json(["1"] * 7)
    with pytest.raises(ParseError):
        scalar_from_json(["1/0"] + ["0"] * 7)
    with pytest.raises(ParseError):
        scalar_from_json(["pi"] + ["0"] * 7)
    with pytest.raises(ParseError):
        scalar_from_json([1] + ["0"] * 7)


# ------------------------------------------------------------------ matrices


def test_matrix_entries_are_row_major():
    m = Matrix([[1, 2], [3, 4]])
    d = matrix_to_json(m)
    assert d["rows"] == 2 and d["cols"] == 2
    assert [e[0] for e in d["entries"]] == ["1", "2", "3", "4"]
    assert matrix_from_json(d) == m


def test_matrix_json_entries_share_no_list():
    d = matrix_to_json(Matrix.identity(3))
    entries = d["entries"]
    assert len({id(e) for e in entries}) == len(entries)
    entries[0][0] = "7"
    assert entries[4] == ["1"] + ["0"] * 7
    assert matrix_from_json(d) == Matrix([[7, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_matrix_parse_checks_every_repeated_entry():
    zero = ["0"] * 8
    good = {"rows": 1, "cols": 3, "entries": [zero, zero, list(zero)]}
    assert matrix_from_json(good) == Matrix([[0, 0, 0]])
    # "00000000" and the tuple spell the key of a parsed entry; the others
    # are short, non-string or unhashable
    for bad in ("00000000", tuple(zero), zero[:7], [0] * 8, zero[:7] + [{}]):
        with pytest.raises(ParseError):
            matrix_from_json({**good, "entries": [zero, zero, bad]})


def test_matrix_shape_rejections():
    good = matrix_to_json(Matrix([[1, 2]]))
    with pytest.raises(ParseError):
        matrix_from_json({**good, "cols": 3})
    with pytest.raises(ParseError):
        matrix_from_json({**good, "rows": 0, "cols": 0, "entries": []})
    with pytest.raises(ParseError):
        matrix_from_json({**good, "rows": "1"})


def test_subspace_round_trip_including_zero():
    w = Subspace([(1, 0, 2), (0, 1, 1)], 3)
    assert subspace_from_json(subspace_to_json(w)) == w
    zero = Subspace([], 4)
    assert subspace_from_json(subspace_to_json(zero)) == zero


# ----------------------------------------------------------------- documents


def test_tss_round_trip_keeps_witness_and_params():
    t = standard(3, 1, 2)
    t2 = from_document(parse(emit(to_document(t))), expect="tss")
    assert t2 == t
    assert list(t2.witness) == list(t.witness)
    assert t2.params == t.params


def test_arrangement_round_trip_keeps_strong_flag():
    a = simplex_arrangement(3)
    a2 = from_document(parse(emit(to_document(a))), expect="arrangement")
    assert a2 == a
    assert a2.representatives is not None
    b = dual_simplex_arrangement(3)
    b2 = from_document(parse(emit(to_document(b))), expect="arrangement")
    assert b2 == b
    assert b2.representatives is None and b2.witness is not None


@pytest.mark.parametrize("make", [
    lambda: simplex_arrangement(3),
    # representatives that are not the catalog's, with a witness of their own
    lambda: Arrangement([Subspace([(1, 0)], 2), Subspace([(0, 1)], 2)],
                        witness=[Matrix([[0, 2], [1, 0]])],
                        representatives=[Matrix([[1], [0]]), Matrix([[0], [1]])]),
])
def test_arrangement_round_trip_keeps_witness_and_representatives(make):
    a = make()
    a2 = from_document(parse(emit(to_document(a))), expect="arrangement")
    assert type(a2.witness) is tuple and a2.witness == a.witness
    assert type(a2.representatives) is tuple
    assert a2.representatives == a.representatives


def test_system_round_trip():
    s = simplex_system(2)
    s2 = from_document(parse(emit(to_document(s))), expect="system")
    assert s2.grid == s.grid and s2.n == s.n and s2.k == s.k


def test_round_trip_preserves_verdicts():
    for obj in (sporadic4(1), tilde_sigma5_arrangement()):
        text = emit(to_document(obj))
        back = from_document(parse(text))
        verify = verify_tss if hasattr(back, "elements") else verify_arrangement
        assert verify(back).verdict == "TotallySymmetric"


def test_emit_is_deterministic_and_canonical():
    one = emit(to_document(standard(3, 1, 2)))
    two = emit(to_document(standard(3, 1, 2)))
    assert one == two
    # reordering keys in the text changes nothing after a round trip
    loaded = json.loads(one)
    shuffled = json.dumps({k: loaded[k] for k in reversed(list(loaded))})
    assert shuffled != one
    assert emit(parse(shuffled)) == one


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.sampled_from(["≤", '"', "\\", "\x00", "\n", "\x1f", "\u2028"]))
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(st.text(max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_emit_matches_json_dumps(tree):
    assert emit(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_emit_converts_keys_as_json_dumps_does():
    for tree in ({2: "b", -1: ["a", 0]}, {1.5: 0, float("inf"): 1},
                 {True: 1}, {None: {}}, {"x": {3: ()}}):
        assert emit(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    for bad in ({(1, 2): 0}, {1: 0, "1": 1}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            emit(bad)


def test_parse_rejects_deep_nesting():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("[" * 200000 + "]" * 200000)


def test_header_must_match_elements():
    payload = tss_to_json(standard(2, 1, 2))
    with pytest.raises(ParseError):
        tss_from_json({**payload, "k": 5})
    with pytest.raises(ParseError):
        tss_from_json({**payload, "n": 4})


def test_document_shape_rejections():
    with pytest.raises(ParseError):
        parse("not json at all {")
    with pytest.raises(ParseError):
        parse(json.dumps({"payload": {}, "meta": {}}))
    with pytest.raises(ParseError):
        parse(json.dumps({"kind": "sonnet", "payload": {}, "meta": {}}))
    doc = json.loads(emit(to_document(standard(2, 1, 2))))
    doc["meta"]["field_basis"] = "1,sqrt5"
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_kind_mismatch():
    doc = parse(emit(to_document(standard(2, 1, 2))))
    with pytest.raises(KindMismatch):
        from_document(doc, expect="arrangement")


def test_certificate_payload_fields():
    d = certificate_to_json(Certificate(
        "NotTotallySymmetric",
        witness=(Matrix([[1]]),),
        failing_transposition=0,
        detail="no invertible intertwiner"))
    assert d["verdict"] == "NotTotallySymmetric"
    assert d["failing_transposition"] == 0
    assert "transpositions" in d["witness"]


# ----------------------------------------------------------- scalar shorthand


def test_shorthand_constants():
    assert parse_scalar("zeta") == ZETA
    assert parse_scalar("1/2+1/2*i*sqrt3") == ZETA
    assert parse_scalar("-1/3+2/3*sqrt2*i") == MU_SPORADIC
    assert parse_scalar("2*sqrt2*sqrt3") == Scalar.rational(2) * parse_scalar("sqrt6")
    assert parse_scalar(" -5/3 ") == Scalar.rational(-5, 3)
    assert parse_scalar("i*i") == -ONE


def test_shorthand_rejections():
    for bad in ("", "+", "1/2+", "sqrt5", "2**3", "1//2", "zeta^2"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


@settings(max_examples=20, deadline=None)
@given(small_fractions, small_fractions)
def test_shorthand_rational_combinations(a, b):
    text = f"{a}+{b}*i"
    assert parse_scalar(text) == Scalar.rational(a) + Scalar.rational(b) * I_UNIT


def test_parsed_simplex_document_rechecks_its_witness(monkeypatch):
    a = from_document(parse(emit(to_document(simplex_arrangement(3)))))
    assert a.witness is not None

    def no_search(*args, **kwargs):
        raise AssertionError("verify searched instead of rechecking the witness")

    monkeypatch.setattr("totsym.core.invertible_in_space", no_search)
    assert verify_arrangement(a).verdict == "TotallySymmetric"
