"""Exact scalar arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Every scalar is the vector of its rational coordinates over the fixed
ordered basis

    1, sqrt2, sqrt3, sqrt6, i, i*sqrt2, i*sqrt3, i*sqrt6

held as eight Python int numerators over one shared positive denominator.
The form is canonical: gcd(denominator, *numerators) == 1 and zero is
eight zeros over 1, so equality and hashing compare integer tuples.
Products are integer convolutions with a single gcd at the end.  The
inverse needs no elimination: it takes the relative norm at each step of
the tower Q < Q(sqrt2) < Q(sqrt2, sqrt3) < K, squaring in ever smaller
fields with straight-line integer formulas.  Rows {column: Scalar} are
updated in place by ``add_multiple``, v += f*row or v -= f*row, with the
sign folded into its integer multiply-add, so no negated factor is built.

Most operands in practice are rational, and many are 0 or +-1, so those
take shortcuts: a sum, difference or product of two rationals is one
integer operation over one denominator and a two-argument gcd; a product
with a rational scales the other operand's numerators; and a factor of 1
returns the other operand, a factor of -1 its negation, with no
arithmetic at all.  Every shortcut gives the same canonical form.

This field is closed under every operation the rest of the package
performs (the sixth root of unity zeta, the quadratic root mu of
3x^2 + 2x + 3, and all matrix entries that appear in the catalog live
here), so no floating point ever enters.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

_NO_SURDS = (0,) * 7  # the coordinates after the first of a rational scalar

BASIS_LABELS = ("1", "sqrt2", "sqrt3", "sqrt6", "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")


class NotRepresentable(ValueError):
    """A requested square root does not exist inside the field."""


def _convolve(a, b):
    """Integer coordinates of a*b for integer coordinate vectors a and b.

    K = L(i) with L = Q(sqrt2, sqrt3): writing a = p + q*i and b = r + s*i
    with p, q, r, s in L, a*b = (p*r - q*s) + (p*s + q*r)*i, and in L the
    basis products sqrt2^2 = 2, sqrt3^2 = 3, sqrt6^2 = 6, sqrt2*sqrt3 =
    sqrt6, sqrt2*sqrt6 = 2*sqrt3 and sqrt3*sqrt6 = 3*sqrt2 give the
    coefficients below.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    return (
        a0 * b0 + 2 * a1 * b1 + 3 * a2 * b2 + 6 * a3 * b3
        - a4 * b4 - 2 * a5 * b5 - 3 * a6 * b6 - 6 * a7 * b7,
        a0 * b1 + a1 * b0 + 3 * (a2 * b3 + a3 * b2)
        - a4 * b5 - a5 * b4 - 3 * (a6 * b7 + a7 * b6),
        a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1)
        - a4 * b6 - a6 * b4 - 2 * (a5 * b7 + a7 * b5),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
        - a4 * b7 - a7 * b4 - a5 * b6 - a6 * b5,
        a0 * b4 + a4 * b0 + 2 * (a1 * b5 + a5 * b1)
        + 3 * (a2 * b6 + a6 * b2) + 6 * (a3 * b7 + a7 * b3),
        a0 * b5 + a1 * b4 + a4 * b1 + a5 * b0
        + 3 * (a2 * b7 + a3 * b6 + a6 * b3 + a7 * b2),
        a0 * b6 + a2 * b4 + a4 * b2 + a6 * b0
        + 2 * (a1 * b7 + a3 * b5 + a5 * b3 + a7 * b1),
        a0 * b7 + a3 * b4 + a1 * b6 + a2 * b5
        + a4 * b3 + a7 * b0 + a5 * b2 + a6 * b1,
    )


def _make(nums, den):
    """A Scalar from numerators and a denominator already in canonical form."""
    s = object.__new__(Scalar)
    s.nums = nums
    s.den = den
    return s


def _reduced(nums, den):
    """A Scalar from integer numerators over a positive denominator."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _make(tuple([x // g for x in nums]), den // g)
    return _make(tuple(nums), den)


def _rational(p, q):
    """The rational Scalar p/q for integers p and q > 0, in lowest terms."""
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return _make((p, 0, 0, 0, 0, 0, 0, 0), q)


# the most decimal digits a spelling of a rational may imply: the limit
# int() puts on digit strings, where the interpreter has one
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def fraction_from_text(text):
    """Fraction(text), refused (ValueError) when the spelling implies more
    than _MAX_DIGITS decimal digits, counting mantissa digits plus the size
    of the exponent: "1e10000000" is 12 characters but a 33-Mbit integer."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    exponent = "".join(c for c in exponent if c.isdecimal()).lstrip("0")
    if len(exponent) > len(str(_MAX_DIGITS)) or digits + int(exponent or 0) > _MAX_DIGITS:
        raise ValueError(f"{text[:40]!r} needs more than {_MAX_DIGITS} digits")
    return Fraction(text)


# The form serialize.scalar_to_json writes; any other string goes through
# Fraction, so the accepted spellings ("1.5", " 1/2", "1e3", ...) are
# Fraction's, with the number of digits they imply bounded
# (fraction_from_text); a string longer than that bound never takes the
# plain path.
_PLAIN_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def ratio_from_text(text):
    """(numerator, denominator) of the rational that text spells, as
    fraction_from_text reads it; a plain "p" or "p/q" skips Fraction, and
    its pair need not be in lowest terms."""
    m = _PLAIN_FRACTION.fullmatch(text) if len(text) <= _MAX_DIGITS else None
    if m is not None:
        den = int(m[2]) if m[2] else 1
        if den:
            return int(m[1]), den
    q = fraction_from_text(text)
    return q.numerator, q.denominator


def _ratio(x):
    """(numerator, denominator) of a rational given as int, Fraction or text."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        return ratio_from_text(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


class Scalar:
    """An element of Q(i, sqrt2, sqrt3): 8 integer numerators over one denominator.

    ``nums`` and ``den`` are read-only by convention; ``gcd(den, *nums) == 1``
    and ``den > 0`` always hold.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        s = Scalar.from_ratios([_ratio(x) for x in coords])
        self.nums = s.nums
        self.den = s.den

    @classmethod
    def from_ratios(cls, ratios):
        """The scalar whose coordinates are n/d for 8 integer pairs (n, d), d != 0."""
        den = lcm(*(d for _, d in ratios))  # positive, whatever the signs of the d
        nums = [n * (den // d) for n, d in ratios]
        if len(nums) != 8:
            raise ValueError(f"expected 8 coordinates, got {len(nums)}")
        return _reduced(nums, den)

    @classmethod
    def rational(cls, p, q=1):
        if type(p) is int and q == 1:
            return _make((p, 0, 0, 0, 0, 0, 0, 0), 1)
        f = Fraction(p, q)
        return _make((f.numerator, 0, 0, 0, 0, 0, 0, 0), f.denominator)

    @classmethod
    def basis_element(cls, idx):
        return _make(tuple(1 if t == idx else 0 for t in range(8)), 1)

    @property
    def c(self):
        """The 8 coordinates as reduced Fractions, in basis order."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        """The value as a Fraction; raises if the scalar is irrational."""
        if not self.is_rational():
            raise NotRepresentable(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def __add__(self, other):
        a, d, b, e = self.nums, self.den, other.nums, other.den
        if not any(b):
            return self
        if a[1:] == _NO_SURDS and b[1:] == _NO_SURDS:
            if d == e:
                return _rational(a[0] + b[0], d)
            return _rational(a[0] * e + b[0] * d, d * e)
        if d == e:
            return _reduced(tuple(map(add, a, b)), d)
        return _reduced(tuple([x * e + y * d for x, y in zip(a, b)]), d * e)

    def __sub__(self, other):
        a, d, b, e = self.nums, self.den, other.nums, other.den
        if not any(b):
            return self
        if a[1:] == _NO_SURDS and b[1:] == _NO_SURDS:
            if d == e:
                return _rational(a[0] - b[0], d)
            return _rational(a[0] * e - b[0] * d, d * e)
        if d == e:
            return _reduced(tuple(map(sub, a, b)), d)
        return _reduced(tuple([x * e - y * d for x, y in zip(a, b)]), d * e)

    def __neg__(self):
        return _make(tuple(map(neg, self.nums)), self.den)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.nums, other.nums
        # a rational factor (the usual case for catalog entries) only scales,
        # and a factor of 0, 1 or -1 needs no arithmetic at all
        if a[1:] == _NO_SURDS:
            x, d = a[0], self.den
            if d == 1:
                if x == 1:
                    return other
                if x == -1:
                    return _make(tuple(map(neg, b)), other.den)
                if not x:
                    return ZERO
            if b[1:] == _NO_SURDS:
                return _rational(x * b[0], d * other.den)
            nums = tuple([x * y for y in b])
        elif b[1:] == _NO_SURDS:
            y, e = b[0], other.den
            if e == 1:
                if y == 1:
                    return self
                if y == -1:
                    return _make(tuple(map(neg, a)), self.den)
                if not y:
                    return ZERO
            nums = tuple([x * y for x in a])
        else:
            nums = _convolve(a, b)
        return _reduced(nums, self.den * other.den)

    def inverse(self):
        """Multiplicative inverse through norms down the tower of relative
        quadratic extensions Q < Q(sqrt2) < L = Q(sqrt2, sqrt3) < K (Cohen,
        A Course in Computational Algebraic Number Theory, ch. 4).

        For the integer numerators x = p + q*i (p, q in L), y = x*sigma_i(x)
        = p^2 + q^2 lies in L; for y = r + t*sqrt3 (r, t in Q(sqrt2)),
        z = y*sigma_3(y) = r^2 - 3t^2 lies in Q(sqrt2); and N = z*sigma_2(z)
        = z0^2 - 2*z1^2 is the rational norm of x.  So
        x^-1 = sigma_i(x)*sigma_3(y)*sigma_2(z) / N, and the scalar's inverse
        is that times its denominator.  Each step squares in a smaller field,
        written out as straight-line integer formulas, and N > 0 because it
        is a product of |tau(x)|^2 over complex embeddings tau.
        """
        a, d = self.nums, self.den
        if not any(a[1:]):
            x = a[0]
            if not x:
                raise ZeroDivisionError("scalar is zero")
            return _make((d if x > 0 else -d, 0, 0, 0, 0, 0, 0, 0), abs(x))
        p0, p1, p2, p3, q0, q1, q2, q3 = a
        # y = p^2 + q^2 in L, on the basis 1, sqrt2, sqrt3, sqrt6
        y0 = p0 * p0 + q0 * q0 + 2 * (p1 * p1 + q1 * q1) + 3 * (p2 * p2 + q2 * q2) \
            + 6 * (p3 * p3 + q3 * q3)
        y1 = 2 * (p0 * p1 + q0 * q1) + 6 * (p2 * p3 + q2 * q3)
        y2 = 2 * (p0 * p2 + q0 * q2) + 4 * (p1 * p3 + q1 * q3)
        y3 = 2 * (p0 * p3 + q0 * q3 + p1 * p2 + q1 * q2)
        # z = r^2 - 3t^2 in Q(sqrt2), for r = y0 + y1*sqrt2, t = y2 + y3*sqrt2
        z0 = y0 * y0 + 2 * y1 * y1 - 3 * (y2 * y2 + 2 * y3 * y3)
        z1 = 2 * y0 * y1 - 6 * y2 * y3
        norm = z0 * z0 - 2 * z1 * z1
        # w = sigma_3(y)*sigma_2(z) = (y0 + y1 sqrt2 - y2 sqrt3 - y3 sqrt6)(z0 - z1 sqrt2)
        w0 = y0 * z0 - 2 * y1 * z1
        w1 = y1 * z0 - y0 * z1
        w2 = 2 * y3 * z1 - y2 * z0
        w3 = y2 * z1 - y3 * z0
        # d * sigma_i(x) * w = d * (p*w - (q*w) i), products in L
        nums = (
            p0 * w0 + 2 * p1 * w1 + 3 * p2 * w2 + 6 * p3 * w3,
            p0 * w1 + p1 * w0 + 3 * (p2 * w3 + p3 * w2),
            p0 * w2 + p2 * w0 + 2 * (p1 * w3 + p3 * w1),
            p0 * w3 + p3 * w0 + p1 * w2 + p2 * w1,
            -(q0 * w0 + 2 * q1 * w1 + 3 * q2 * w2 + 6 * q3 * w3),
            -(q0 * w1 + q1 * w0 + 3 * (q2 * w3 + q3 * w2)),
            -(q0 * w2 + q2 * w0 + 2 * (q1 * w3 + q3 * w1)),
            -(q0 * w3 + q3 * w0 + q1 * w2 + q2 * w1),
        )
        if d != 1:
            nums = [d * x for x in nums]
        return _reduced(nums, norm)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return ONE
        acc = None
        base = self
        while True:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if not e:
                return acc
            base = base * base

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def ratios(self):
        """(numerator, denominator) of each coordinate in lowest terms."""
        d = self.den
        out = []
        for x in self.nums:
            g = gcd(x, d)
            out.append((x // g, d // g))
        return tuple(out)

    def sort_key(self):
        """A deterministic total order on scalars (layout order, not magnitude)."""
        return self.ratios()

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for x, label in zip(self.c, BASIS_LABELS):
            if x == 0:
                continue
            if label == "1":
                parts.append(str(x))
            elif x == 1:
                parts.append(label)
            elif x == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{x}*{label}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def add_multiple(v, f, row, subtract=False):
    """v += f * row, or v -= f * row when ``subtract``, for sparse rows
    {column: Scalar} and a nonzero f, in place; an entry that cancels is
    dropped.

    f's kind is read once per row, and the sign is folded into it, so a
    subtraction builds no negated f.  With +-f*x = c*p/e (c = +-1 and p the
    convolution of f's and x's numerators, or c = +-s and p x's numerators
    for a rational f = s/fd; a rational x only scales f's numerators), an
    entry y already in v becomes (y.nums*e + c*y.den*p) / (y.den*e): one
    integer multiply-add per coordinate and one gcd (``_reduced``).  An
    entry new to v is c*p/e, which for f = +-1 is x or its negation, with no
    arithmetic.  Two rationals need one integer and a two-argument gcd.
    """
    fn, fd = f.nums, f.den
    s = fn[0] if fn[1:] == _NO_SURDS else None  # f's numerator when f is rational
    if subtract and s is not None:
        s = -s
    unit = fd == 1 and (s == 1 or s == -1)
    for j, x in row.items():
        xn = x.nums
        y = v.get(j)
        if y is None and unit:
            v[j] = x if s == 1 else _make(tuple(map(neg, xn)), x.den)
            continue
        e = fd * x.den
        if s is None:
            p = [xn[0] * a for a in fn] if xn[1:] == _NO_SURDS else _convolve(fn, xn)
            c = -1 if subtract else 1
        else:
            p, c = xn, s
            if xn[1:] == _NO_SURDS and (y is None or y.nums[1:] == _NO_SURDS):
                num, den = xn[0] * s, e
                if y is not None:
                    d = y.den
                    num, den = y.nums[0] * e + num * d, d * e
                if num:
                    v[j] = _rational(num, den)
                else:
                    del v[j]
                continue
        if y is None:
            v[j] = _reduced([b * c for b in p], e)
            continue
        d = y.den
        c *= d
        nums = [a * e + b * c for a, b in zip(y.nums, p)]
        if any(nums):
            v[j] = _reduced(nums, d * e)
        else:
            del v[j]


def as_scalar(x):
    """x itself if it is a Scalar, else the rational Scalar equal to it."""
    return x if isinstance(x, Scalar) else Scalar.rational(x)


def sqrt_restricted(q):
    """Exact square root of a rational whose squarefree part lies in {1, 2, 3, 6}.

    Negative inputs pick up a factor of i.  The branch is fixed by requiring
    the leading (first nonzero) surd coordinate to be nonnegative.  Raises
    NotRepresentable for any other rational.  With |q| = m / den(q)^2, the
    squarefree part s of m is unique, so m = f*f*s is found by an integer
    square root of m // s for each allowed s, with no factoring.
    """
    q = Fraction(q)
    if q == 0:
        return ZERO
    mag = abs(q)
    m = mag.numerator * mag.denominator
    for idx, s in enumerate((1, 2, 3, 6)):
        f = isqrt(m // s)
        if f * f * s == m:
            break
    else:
        raise NotRepresentable(
            f"sqrt({q}) is outside the field: its squarefree part is not 1, 2, 3 or 6")
    if q < 0:
        idx += 4
    ratios = [(0, 1)] * 8
    ratios[idx] = (f, mag.denominator)
    return Scalar.from_ratios(ratios)


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)
MINUS_ONE = Scalar.rational(-1)
TWO = Scalar.rational(2)
HALF = Scalar.rational(1, 2)
I_UNIT = Scalar.basis_element(4)
SQRT2 = Scalar.basis_element(1)
SQRT3 = Scalar.basis_element(2)
SQRT6 = Scalar.basis_element(3)

# zeta = exp(i*pi/3) = 1/2 + (sqrt3/2) i, a primitive sixth root of unity;
# it satisfies x^2 - x + 1 = 0 and 1 - zeta = zeta^{-1}.
ZETA = Scalar((Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(1, 2), 0))
ZETA_INV = Scalar((Fraction(1, 2), 0, 0, 0, 0, 0, Fraction(-1, 2), 0))

# mu = (-1 + 2*sqrt2*i)/3, the root of 3x^2 + 2x + 3 with positive imaginary
# part; the parameter of the four-element suspension family that no product
# construction reaches.
MU_SPORADIC = Scalar((Fraction(-1, 3), 0, 0, 0, 0, Fraction(2, 3), 0, 0))
# alpha = (mu - mu^{-1})/2 = (2*sqrt2/3) i
ALPHA_SPORADIC = Scalar((0, 0, 0, 0, 0, Fraction(2, 3), 0, 0))
