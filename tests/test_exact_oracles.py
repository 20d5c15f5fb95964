"""`sign` and `to_decimal` against two references that share no algorithm with
them: the interval-bisection kernel in `bisection_oracle`, and square roots
from the standard library's `decimal` module."""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bisection_oracle
from hexphi.exact import HALF_EVEN, PHI, TRUNCATE, QuadExt, sign, to_decimal
from hexphi.fibonacci import convergent


@st.composite
def wide_coefficients(draw) -> Fraction:
    """Zero about one time in five; otherwise numerator and denominator of 3 to 80 bits."""
    if draw(st.integers(0, 4)) == 0:
        return Fraction(0)
    bits = draw(st.integers(3, 80))
    return Fraction(
        draw(st.integers(-(1 << bits), 1 << bits)), draw(st.integers(1, 1 << bits))
    )


WIDE_ELEMENTS = st.builds(
    QuadExt, wide_coefficients(), wide_coefficients(), wide_coefficients(), wide_coefficients()
)
SMALL_RATIONALS = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
SMALL_ELEMENTS = st.builds(
    QuadExt, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS
)
DIGITS = st.integers(1, 60)
ROUNDINGS = st.sampled_from([HALF_EVEN, TRUNCATE])


def _pell(count: int):
    """The first `count` solutions (p, q) of p*p - 3*q*q == 1 in positive integers."""
    p, q = 2, 1
    for _ in range(count):
        yield p, q
        p, q = 2 * p + 3 * q, p + 2 * q


# each value is within 1/q**2 or so of zero, with a known sign
NEAR_ZERO = (
    [(QuadExt(convergent(n).ratio) - PHI, 1 if n % 2 else -1) for n in range(2, 301)]
    + [(QuadExt(p, -q), 1) for p, q in _pell(60)]
    + [(QuadExt(0, 0, p, -q), 1) for p, q in _pell(60)]
)


@settings(max_examples=300)
@given(WIDE_ELEMENTS)
def test_sign_matches_bisection(x):
    assert sign(x) == bisection_oracle.sign(x)


@settings(max_examples=150)
@given(WIDE_ELEMENTS, DIGITS, ROUNDINGS)
def test_decimal_matches_bisection(x, digits, rounding):
    assert to_decimal(x, digits, rounding) == bisection_oracle.to_decimal(x, digits, rounding)


def test_near_zero_families_match_bisection():
    for x, expected in NEAR_ZERO:
        for value, value_sign in ((x, expected), (-x, -expected)):
            assert sign(value) == value_sign == bisection_oracle.sign(value)
            for rounding in (HALF_EVEN, TRUNCATE):
                assert to_decimal(value, 40, rounding) == bisection_oracle.to_decimal(
                    value, 40, rounding
                )


def _stdlib_value(x: QuadExt, context: decimal.Context) -> decimal.Decimal:
    total = decimal.Decimal(0)
    for coeff, radicand in ((x.a, 1), (x.b, 3), (x.c, 5), (x.d, 15)):
        ratio = context.divide(decimal.Decimal(coeff.numerator), decimal.Decimal(coeff.denominator))
        total = context.add(total, context.multiply(ratio, context.sqrt(decimal.Decimal(radicand))))
    return total


def _stdlib_render(
    value: decimal.Decimal, digits: int, rounding: str, context: decimal.Context
) -> str:
    mode = decimal.ROUND_HALF_EVEN if rounding == HALF_EVEN else decimal.ROUND_DOWN
    rendered = value.quantize(decimal.Decimal(1).scaleb(-digits), rounding=mode, context=context)
    return f"{rendered.copy_abs() if rendered.is_zero() else rendered:f}"


@settings(max_examples=150)
@given(SMALL_ELEMENTS, DIGITS, ROUNDINGS)
def test_decimal_matches_stdlib_square_roots(x, digits, rounding):
    # |x| < 500 here, so digits + 20 significant digits leave the reference
    # off by far less than the slack; values within the slack of a rounding
    # boundary (exact ties among them) are left to the rational tests
    assume(not x.is_rational)
    context = decimal.Context(prec=digits + 20)
    value = _stdlib_value(x, context)
    slack = decimal.Decimal(1).scaleb(-(digits + 10))
    expected = _stdlib_render(value, digits, rounding, context)
    assume(_stdlib_render(context.subtract(value, slack), digits, rounding, context) == expected)
    assume(_stdlib_render(context.add(value, slack), digits, rounding, context) == expected)
    assert to_decimal(x, digits, rounding) == expected
    if value.copy_abs() > slack:
        assert sign(x) == (1 if value > 0 else -1)


def test_decimal_of_thousand_digit_coefficients_settles_in_one_try(monkeypatch):
    # coefficients of over 1000 digits over a small denominator: the first
    # guard covers their whole digits, so one enclosure (3 isqrt) settles it
    x = QuadExt(
        Fraction(10**1000 + 1, 7),
        Fraction(-(3**2100), 11),
        Fraction(5**1450, 3),
        Fraction(2**3400 + 1, 13),
    )
    digits = 20
    context = decimal.Context(prec=1100)
    value = _stdlib_value(x, context)
    isqrt = math.isqrt
    calls = []

    def counted_isqrt(n):
        calls.append(n)
        return isqrt(n)

    for rounding in (HALF_EVEN, TRUNCATE):
        expected = _stdlib_render(value, digits, rounding, context)
        calls.clear()
        monkeypatch.setattr(math, "isqrt", counted_isqrt)
        rendered = to_decimal(x, digits, rounding)
        monkeypatch.undo()
        assert len(calls) == 3
        assert rendered == expected


def test_decimal_takes_no_root_for_a_zero_coefficient(monkeypatch):
    # hex corners, centers and A points lie in Q(sqrt3): one isqrt each, not three
    isqrt = math.isqrt
    calls = []
    monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
    cases = [
        (QuadExt(Fraction(5, 14), Fraction(-5, 14)), 1),
        (QuadExt(0, 0, 3), 1),
        (PHI, 1),
        (QuadExt(1, 0, 2, -7), 2),
    ]
    for x, roots in cases:
        calls.clear()
        rendered = to_decimal(x, 30)
        assert len(calls) == roots
        assert rendered == bisection_oracle.to_decimal(x, 30, HALF_EVEN)
