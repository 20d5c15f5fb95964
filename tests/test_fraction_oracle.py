"""The integer kernel of `hexphi.exact` against the `Fraction` kernel it
replaced (`fraction_oracle`), coefficient by coefficient, and
`assess_nearest` and `sqrt_exact` against the searches written for that
kernel."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle
from hexphi.exact import (
    PHI,
    NegativeInput,
    NotRepresentable,
    QuadExt,
    as_quadext,
    sign,
    sqrt_exact,
    to_decimal,
)
from hexphi.fibonacci import assess_nearest, convergent


@st.composite
def coefficients(draw) -> Fraction:
    """Zero about one time in six; otherwise numerator and denominator of 1 to 200 bits."""
    if draw(st.integers(0, 5)) == 0:
        return Fraction(0)
    bits = draw(st.integers(1, 200))
    return Fraction(draw(st.integers(-(1 << bits), 1 << bits)), draw(st.integers(1, 1 << bits)))


QUADRUPLES = st.tuples(coefficients(), coefficients(), coefficients(), coefficients())
RATIONALS = st.one_of(st.integers(-(1 << 100), 1 << 100), coefficients())


def _coeffs(x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (x.a, x.b, x.c, x.d)


def _pair(quadruple) -> tuple[QuadExt, fraction_oracle.QuadExt]:
    return QuadExt(*quadruple), fraction_oracle.QuadExt(*quadruple)


@settings(max_examples=150)
@given(QUADRUPLES, QUADRUPLES)
def test_field_operations_match_fraction_kernel(p, q):
    x, x_old = _pair(p)
    y, y_old = _pair(q)
    assert _coeffs(x) == _coeffs(x_old)
    assert _coeffs(x + y) == _coeffs(x_old + y_old)
    assert _coeffs(x - y) == _coeffs(x_old - y_old)
    assert _coeffs(x * y) == _coeffs(x_old * y_old)
    assert _coeffs(-x) == _coeffs(-x_old)
    assert (x == y) == (x_old == y_old)
    if not y.is_zero:
        assert _coeffs(x / y) == _coeffs(x_old / y_old)
        assert _coeffs(y.inverse()) == _coeffs(y_old.inverse())
    assert sign(x - y) == fraction_oracle.sign(x_old - y_old)


@st.composite
def sqrt3_pairs(draw) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Two quadruples of which both, the first, the second or neither lie in
    Q(sqrt3) (c = d = 0), related so that `+`, `-` and `*` have factors to
    cancel or give zero: independent; the first times a prime p and the
    second over p (a product cancels p); over one denominator p*e with
    numerators that sum to multiples of p (a sum cancels p); equal (a
    difference is zero); negated (a sum is zero); the second zero."""
    x = list(draw(QUADRUPLES))
    y = list(draw(QUADRUPLES))
    p = draw(st.sampled_from((2, 3, 5, 7, 2**61 - 1)))
    shape = draw(st.sampled_from(("free", "product", "sum", "equal", "negated", "zero")))
    if shape == "product":
        x = [p * value for value in x]
        y = [value / p for value in y]
    elif shape == "sum":
        den = p * draw(st.integers(1, 1 << 64))
        nums = [draw(st.integers(-(1 << 100), 1 << 100)) for _ in range(4)]
        rest = [p * draw(st.integers(-(1 << 100), 1 << 100)) - num for num in nums]
        x = [Fraction(num, den) for num in nums]
        y = [Fraction(num, den) for num in rest]
    elif shape == "equal":
        y = list(x)
    elif shape == "negated":
        y = [-value for value in x]
    elif shape == "zero":
        y = [Fraction(0)] * 4
    in_sqrt3 = draw(st.sampled_from(((True, True), (True, False), (False, True), (False, False))))
    for quadruple, flag in zip((x, y), in_sqrt3):
        if flag:
            quadruple[2:] = [Fraction(0), Fraction(0)]
    return tuple(x), tuple(y)


def _reduced_form(x) -> tuple[tuple[int, int, int, int], int]:
    """The integer form of `x`, or the one that the oracle element `x`'s
    coefficients have: equal forms mean equal coefficients, and a form
    left unreduced differs from the reduced one."""
    if isinstance(x, fraction_oracle.QuadExt):
        x = QuadExt(*_coeffs(x))
    return x._num, x._den


@settings(max_examples=300)
@given(sqrt3_pairs())
def test_sqrt3_operands_match_fraction_kernel(pair):
    (x, x_old), (y, y_old) = map(_pair, pair)
    assert _reduced_form(x * y) == _reduced_form(x_old * y_old)
    assert _reduced_form(x + y) == _reduced_form(x_old + y_old)
    assert _reduced_form(x - y) == _reduced_form(x_old - y_old)
    assert _reduced_form(y * x) == _reduced_form(y_old * x_old)
    assert _reduced_form(y - x) == _reduced_form(y_old - x_old)


@settings(max_examples=100)
@given(QUADRUPLES, RATIONALS)
def test_mixed_rational_operands_match_fraction_kernel(p, r):
    x, x_old = _pair(p)
    assert _coeffs(x + r) == _coeffs(x_old + r)
    assert _coeffs(r + x) == _coeffs(r + x_old)
    assert _coeffs(r - x) == _coeffs(r - x_old)
    assert _coeffs(r * x) == _coeffs(r * x_old)
    if not x.is_zero:
        assert _coeffs(r / x) == _coeffs(r / x_old)
    if r:
        assert _coeffs(x / r) == _coeffs(x_old / r)
    assert (x == r) == (x_old == r)
    assert QuadExt(r) == r


@settings(max_examples=100)
@given(QUADRUPLES)
def test_rendering_matches_fraction_kernel(p):
    x, x_old = _pair(p)
    assert repr(x) == repr(x_old)
    assert str(x) == str(x_old)
    assert x.to_json() == x_old.to_json()
    assert to_decimal(x, 30) == fraction_oracle.to_decimal(x_old, 30)


@st.composite
def radicands(draw) -> int | Fraction:
    """``base * (s/j)**2`` of either sign, for a base whose root lies in the
    field (1, 3, 5, 15) or does not (2, 6, 7/3, 10); an int about half the
    time it is one."""
    base = draw(st.sampled_from((1, 3, 5, 15, 2, 6, Fraction(7, 3), 10)))
    s = draw(st.one_of(st.just(0), st.integers(1, 1 << 100)))
    j = draw(st.one_of(st.just(1), st.integers(1, 1 << 100)))
    value = draw(st.sampled_from((1, -1))) * base * Fraction(s, j) ** 2
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator
    return value


def _root_or_error(sqrt, radicand):
    try:
        return _coeffs(sqrt(radicand))
    except (NegativeInput, NotRepresentable) as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(radicands())
def test_sqrt_exact_matches_fraction_kernel(radicand):
    expected = _root_or_error(fraction_oracle.sqrt_exact, radicand)
    assert _root_or_error(sqrt_exact, radicand) == expected


@given(coefficients())
def test_hash_of_rational_element_is_hash_of_rational(q):
    assert hash(QuadExt(q)) == hash(q)
    assert hash(as_quadext(q)) == hash(q)
    assert hash(QuadExt(q.numerator)) == hash(q.numerator)


@pytest.mark.parametrize("build", [
    lambda: QuadExt(1, 2, 3, 0.25),
    lambda: QuadExt(1, 2) + 0.5,
    lambda: 0.5 * QuadExt(1, 2),
    lambda: sqrt_exact(4.0),
])
def test_float_input_is_rejected(build):
    with pytest.raises(TypeError):
        build()


def _phi_prefixes():
    for digits in [*range(1, 41), 80, 160, 240, 320, 400]:
        prefix = to_decimal(PHI, digits)
        yield prefix
        yield prefix[:-1] + str((int(prefix[-1]) + 1) % 10)


def test_assess_nearest_matches_old_loop_on_phi_prefixes():
    for prefix in _phi_prefixes():
        assert assess_nearest(prefix) == fraction_oracle.assess_nearest(prefix), prefix


def _chosen_rationals():
    """Exact convergents, midpoints of same-side pairs (ties) and those
    midpoints moved by 10**-30 either way, and targets far from phi."""
    ratios = [convergent(n).ratio for n in range(2, 64)]
    yield from ratios
    shift = Fraction(1, 10**30)
    for low, high in zip(ratios, ratios[2:]):
        middle = (low + high) / 2
        yield from (middle, middle - shift, middle + shift)
    yield from (Fraction(1), Fraction(2), Fraction(1000), Fraction(1, 1000))


def test_assess_nearest_matches_old_loop_on_random_rationals():
    rng = random.Random(20240611)
    for _ in range(300):
        bits = rng.randint(1, 64)
        target = Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits))
        assert assess_nearest(target) == fraction_oracle.assess_nearest(target), target
    for target in _chosen_rationals():
        assert assess_nearest(target) == fraction_oracle.assess_nearest(target), target
