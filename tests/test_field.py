from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from totsym.field import (
    ALPHA_SPORADIC,
    I_UNIT,
    MU_SPORADIC,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    ZETA,
    ZETA_INV,
    _MAX_DIGITS,
    NotRepresentable,
    MINUS_ONE,
    Scalar,
    constants,
    sqrt_restricted,
)
from totsym.linalg import _axpy
from totsym.serialize import ParseError, scalar_from_json, scalar_to_json

from oracles import sym_equal, to_sympy

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
scalars = st.builds(Scalar, st.tuples(*[rationals] * 8))
coordinate_lists = st.lists(rationals, min_size=8, max_size=8)
nonzero_rationals = rationals.filter(bool)
dense_scalars = st.builds(Scalar, st.tuples(*[nonzero_rationals] * 8))
# the operands of the rational and unit fast paths, drawn as often as the
# general ones: 0 and +-1, integers, unit fractions and other small
# fractions, plus scalars with surds
mixed_scalars = st.one_of(
    st.sampled_from([ZERO, ONE, MINUS_ONE]),
    st.integers(-9, 9).map(Scalar.rational),
    st.builds(Scalar.rational, st.sampled_from([1, -1]), st.integers(2, 6)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).map(Scalar.rational),
    scalars,
    dense_scalars,
)


def rat(p, q=1):
    return Scalar.rational(p, q)


# ---------------------------------------------------------------- axioms


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_inverse_roundtrip(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert a.inverse().inverse() == a


# ------------------------------------------------------- oracle agreement


def test_basis_products_match_oracle():
    basis = [Scalar.basis_element(t) for t in range(8)]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert sym_equal(to_sympy(bi * bj), to_sympy(bi) * to_sympy(bj))


@pytest.mark.parametrize(
    "a",
    [
        ZETA,
        MU_SPORADIC,
        SQRT2 + SQRT3,
        I_UNIT + rat(1),
        rat(3, 7) * SQRT6 - I_UNIT * SQRT2,
        Scalar([Fraction(n, 3) for n in range(1, 9)]),
    ],
)
def test_inverse_matches_oracle(a):
    inv = a.inverse()
    assert a * inv == ONE
    assert sym_equal(to_sympy(inv), 1 / to_sympy(a))


def test_division_and_pow():
    a = ZETA + SQRT2
    assert a / a == ONE
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()


@pytest.mark.parametrize("a", [rat(-2, 3), rat(5), ZETA + SQRT2,
                               Scalar([Fraction(k, 7) - 2 for k in range(1, 9)])])
def test_pow_matches_repeated_products(a, monkeypatch):
    for e in range(-2, 6):
        power = ONE
        for _ in range(abs(e)):
            power = power * a
        assert a ** e == (power if e >= 0 else power.inverse())
    # square-and-multiply from the first factor: no product with 1 and no
    # square past the last bit
    products = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(y) or mul(x, y))
    assert a ** 1 == a and products == []
    assert a ** 5 == mul(mul(mul(a, a), mul(a, a)), a) and len(products) == 3


@settings(max_examples=10, deadline=None)
@given(dense_scalars)
def test_tower_inverse_matches_oracle_on_dense_scalars(a):
    assert all(a.nums)
    assert sym_equal(to_sympy(a) * to_sympy(a.inverse()), 1)


@settings(max_examples=10, deadline=None)
@given(scalars, scalars)
def test_product_matches_oracle(a, b):
    assert sym_equal(to_sympy(a * b), to_sympy(a) * to_sympy(b))


# ------------------------------------------------- integer representation


def _canonical(s):
    return s.den > 0 and gcd(s.den, *s.nums) == 1


@settings(max_examples=60, deadline=None)
@given(coordinate_lists, st.lists(st.integers(1, 12), min_size=8, max_size=8))
def test_equal_values_compare_and_hash_equal(fr, scale):
    a = Scalar(fr)
    unreduced = [(x.numerator * k, x.denominator * k) for x, k in zip(fr, scale)]
    spellings = [
        Scalar.from_ratios(unreduced),
        Scalar(f"{n}/{d}" for n, d in unreduced),
        sum((Scalar.basis_element(t) * Scalar.rational(n, d)
             for t, (n, d) in enumerate(unreduced)), Scalar.rational(0)),
    ]
    for b in spellings:
        assert b == a and hash(b) == hash(a)
        assert (b.nums, b.den) == (a.nums, a.den)
    assert hash(Scalar(["2/4"] + [0] * 7)) == hash(Scalar.rational(1, 2))


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_stored_form_is_canonical(a, b):
    results = [a, b, a + b, a - b, -a, a * b, a - a]
    if not b.is_zero():
        results.append(a / b)
    for s in results:
        assert _canonical(s)
    zero = a - a
    assert zero.nums == (0,) * 8 and zero.den == 1
    assert ((a * ZERO).nums, (a * ZERO).den) == ((0,) * 8, 1)


def _reference_product(x, y):
    """The product of two coordinate vectors of Fractions, built from the
    basis rules i^2 = -1, sqrt2^2 = 2 and sqrt3^2 = 3 (sqrt6 = sqrt2*sqrt3)."""
    exps = ((0, 0), (1, 0), (0, 1), (1, 1))
    out = [Fraction(0)] * 8
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            (im1, r1), (im2, r2) = divmod(i, 4), divmod(j, 4)
            (a1, b1), (a2, b2) = exps[r1], exps[r2]
            coef = 2 ** ((a1 + a2) // 2) * 3 ** ((b1 + b2) // 2) * (-1 if im1 and im2 else 1)
            idx = 4 * ((im1 + im2) % 2) + exps.index(((a1 + a2) % 2, (b1 + b2) % 2))
            out[idx] += coef * u * v
    return out


@settings(max_examples=60, deadline=None)
@given(coordinate_lists, coordinate_lists)
def test_views_match_fraction_reference(fx, fy):
    x, y = Scalar(fx), Scalar(fy)
    cases = [
        (x, fx),
        (x + y, [u + v for u, v in zip(fx, fy)]),
        (x - y, [u - v for u, v in zip(fx, fy)]),
        (x * y, _reference_product(fx, fy)),
    ]
    for s, ref in cases:
        assert s.c == tuple(ref)
        assert all(isinstance(q, Fraction) for q in s.c)
        assert s.sort_key() == tuple((q.numerator, q.denominator) for q in ref)
        assert scalar_to_json(s) == [str(q) for q in ref]
        assert s.is_zero() == all(q == 0 for q in ref)
        assert s.is_rational() == all(q == 0 for q in ref[1:])
        if s.is_rational():
            assert s.rational_value() == ref[0]


def _integer_form(coords):
    """(nums, den) in canonical form of a vector of Fraction coordinates."""
    den = lcm(*(q.denominator for q in coords))
    return tuple(q.numerator * (den // q.denominator) for q in coords), den


@settings(max_examples=200, deadline=None)
@given(mixed_scalars, mixed_scalars)
def test_fast_paths_match_fraction_reference(a, b):
    fa, fb = a.c, b.c
    cases = [
        (a * b, _reference_product(fa, fb)),
        (a + b, [u + v for u, v in zip(fa, fb)]),
        (a - b, [u - v for u, v in zip(fa, fb)]),
        (-a, [-u for u in fa]),
    ]
    for s, ref in cases:
        assert (s.nums, s.den) == _integer_form(ref)
        assert _canonical(s)


sparse_rows = st.dictionaries(st.integers(0, 5), st.one_of(
    st.sampled_from([ONE, MINUS_ONE, SQRT2]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool).map(Scalar.rational),
    dense_scalars), max_size=6)


@settings(max_examples=60, deadline=None)
@given(sparse_rows, sparse_rows, st.lists(st.booleans(), min_size=6, max_size=6),
       st.sampled_from([ONE, MINUS_ONE]))
def test_axpy_unit_factors_match_the_general_path(v, row, cancel, f):
    # some entries of v are exactly -f times row's, so the sum drops them
    v.update({j: -(f * x) for j, x in row.items() if cancel[j]})
    want = dict(v)
    for j, x in row.items():
        y = want.get(j, ZERO) + f * x
        if y.is_zero():
            want.pop(j, None)
        else:
            want[j] = y
    _axpy(v, f, row)
    assert v == want
    assert all(not x.is_zero() for x in v.values())


def _implied_digits(text):
    """Decimal digits of the mantissa plus the size of the exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    return digits + int("".join(c for c in exponent if c.isdecimal()) or 0)


def _fraction_parse(text):
    """What a scalar coordinate string means: Fraction's reading, for a
    spelling that implies at most _MAX_DIGITS digits."""
    if _implied_digits(text) > _MAX_DIGITS:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _check_coordinate_string(text):
    expected = _fraction_parse(text)
    data = [text] + ["0"] * 7
    if expected is None:
        with pytest.raises(ParseError):
            scalar_from_json(data)
    else:
        assert scalar_from_json(data) == Scalar.rational(expected)


@pytest.mark.parametrize("text", [
    "1/0", "0/0", "-7/0", " 1/2", "1/2 ", "1.5", "-.5", "1e3", "1E-2", "2/4", "-2/4",
    "+3", "-0", "007", "00/03", "1_000", "1/-2", "-3/ 4", "1 /2", "1//2", "--1",
    "", " ", "pi", "1/2/3", "\u0661", "\u0661/2", "0x10", "nan", "inf",
])
def test_scalar_from_json_accepts_what_fraction_accepts(text):
    _check_coordinate_string(text)


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e10000000", "0e5000",
                                  "1.5e4300", "1" * 4301, "1e" + "9" * 30])
def test_scalar_spellings_beyond_the_digit_bound_are_refused(text):
    # "1e10000000" is 12 bytes and would build a 33-Mbit integer
    with pytest.raises(ParseError):
        scalar_from_json([text] + ["0"] * 7)
    with pytest.raises(ValueError, match="digits"):
        Scalar([text] + [0] * 7)


def test_scalar_spellings_within_the_digit_bound_are_read():
    assert scalar_from_json(["1e3"] + ["0"] * 7) == Scalar.rational(1000)
    assert scalar_from_json(["1.5"] + ["0"] * 7) == Scalar.rational(3, 2)
    assert scalar_from_json([" 1/2"] + ["0"] * 7) == Scalar.rational(1, 2)
    assert Scalar(["1e-3", "2.5"] + [0] * 6) == Scalar((Fraction(1, 1000), Fraction(5, 2),
                                                        0, 0, 0, 0, 0, 0))
    edge = "1e" + str(_MAX_DIGITS - 1)
    assert scalar_from_json([edge] + ["0"] * 7) == Scalar.rational(10 ** (_MAX_DIGITS - 1))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789/-+. _eE", max_size=8))
def test_scalar_from_json_fuzzed_coordinate_strings(text):
    _check_coordinate_string(text)


# ------------------------------------------------------------- constants


def test_zeta_is_primitive_sixth_root():
    assert ZETA * ZETA - ZETA + ONE == ZERO
    assert ZETA * ZETA_INV == ONE
    assert ONE - ZETA == ZETA_INV
    assert ZETA ** 6 == ONE
    assert ZETA ** 3 == -ONE
    assert sym_equal(to_sympy(ZETA), sympy.exp(sympy.I * sympy.pi / 3).expand(complex=True))


def test_mu_sporadic_root_and_alpha():
    mu = MU_SPORADIC
    assert rat(3) * mu * mu + rat(2) * mu + rat(3) == ZERO
    assert ALPHA_SPORADIC == (mu - mu.inverse()) * rat(1, 2)
    assert mu.inverse() == -mu - rat(2, 3)
    assert sym_equal(to_sympy(mu), (-1 + 2 * sympy.sqrt(2) * sympy.I) / 3)


def test_surd_products():
    assert I_UNIT * I_UNIT == -ONE
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == rat(2) * SQRT3
    assert SQRT3 * SQRT6 == rat(3) * SQRT2
    assert (I_UNIT * SQRT2) * (I_UNIT * SQRT3) == -SQRT6


def test_constants_mapping():
    names = constants()
    assert names["zeta"] * names["zeta_inv"] == ONE
    assert names["i_unit"] ** 2 == -ONE
    assert set(names) == {
        "zeta", "zeta_inv", "sqrt2", "sqrt3", "sqrt6",
        "i_unit", "mu_sporadic", "alpha_sporadic",
    }


def test_common_denominator_forms():
    # i/(2*sqrt6) = i*sqrt6/12 and 2i/(sqrt3+3i) = 1/2 + (sqrt3/6) i
    lhs = I_UNIT / (rat(2) * SQRT6)
    assert lhs == Scalar([0, 0, 0, 0, 0, 0, 0, Fraction(1, 12)])
    lhs = (rat(2) * I_UNIT) / (SQRT3 + rat(3) * I_UNIT)
    assert lhs == Scalar([Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(1, 6), 0])


# ------------------------------------------------------- restricted sqrt


@pytest.mark.parametrize("q", [0, 1, 2, 3, 6, 4, 8, 9, 12, 18, 24, 50,
                               Fraction(1, 2), Fraction(4, 3), Fraction(25, 24),
                               -1, -2, -3, -6, -32, Fraction(-9, 2)])
def test_sqrt_restricted_squares_back(q):
    s = sqrt_restricted(q)
    assert s * s == rat(Fraction(q))
    lead = next((x for x in s.c if x != 0), Fraction(0))
    assert lead >= 0


def test_sqrt_restricted_fixed_values():
    assert sqrt_restricted(2) == SQRT2
    assert sqrt_restricted(8) == rat(2) * SQRT2
    assert sqrt_restricted(-1) == I_UNIT
    assert sqrt_restricted(-32) == rat(4) * (I_UNIT * SQRT2)
    assert sqrt_restricted(Fraction(1, 2)) == SQRT2 * rat(1, 2)
    f = 12345678901234567891
    assert sqrt_restricted(6 * f**2) == rat(f) * SQRT6


# 10**18 + 3 is prime: its square root is refused without factoring it
@pytest.mark.parametrize("q", [5, 7, 10, -5, Fraction(1, 5), Fraction(7, 3), 10**18 + 3])
def test_sqrt_restricted_rejects(q):
    with pytest.raises(NotRepresentable, match="squarefree part is not 1, 2, 3 or 6"):
        sqrt_restricted(q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**30), st.sampled_from([1, 2, 3, 6]),
       st.integers(min_value=1, max_value=10**6), st.sampled_from([1, -1]))
def test_sqrt_restricted_squares_back_on_large_inputs(f, s, den, sign):
    q = Fraction(sign * f * f * s, den * den)
    r = sqrt_restricted(q)
    assert r * r == rat(q)
    assert next(x for x in r.c if x != 0) >= 0


# ----------------------------------------------------------- plumbing


def test_rational_helpers():
    assert rat(3, 6) == rat(1, 2)
    assert rat(5).rational_value() == 5
    with pytest.raises(NotRepresentable):
        ZETA.rational_value()
    assert ZETA.is_rational() is False
    assert rat(-2).is_rational() is True


def test_sort_key_total_order():
    xs = [ZETA, ONE, -ONE, SQRT2, MU_SPORADIC, ZERO]
    ks = [x.sort_key() for x in xs]
    assert len(set(ks)) == len(xs)
    assert sorted(ks) == sorted(ks, key=lambda t: t)


def test_repr_smoke():
    assert repr(ZERO) == "0"
    assert "sqrt" in repr(SQRT2 + SQRT3)
    assert repr(ONE) == "1"
