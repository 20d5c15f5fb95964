from __future__ import annotations

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexphi.exact import (
    HALF_EVEN,
    ONE,
    PHI,
    SQRT3,
    SQRT5,
    SQRT15,
    TRUNCATE,
    ZERO,
    NegativeInput,
    NotRepresentable,
    QuadExt,
    as_quadext,
    format_fraction,
    parse_rational,
    sign,
    sqrt_exact,
    to_decimal,
    to_decimals,
)
from hexphi.exact import _dot
import bisection_oracle
import float_oracle
import hexphi.cli as cli
from hexphi.construction import build_cluster
from hexphi.geometry import Point
from hexphi.tessellation import HexIndex, VertexRef

RATIONALS = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
ELEMENTS = st.builds(QuadExt, RATIONALS, RATIONALS, RATIONALS, RATIONALS)


def _decimal_oracle(x: QuadExt, digits: int, rounding: str = HALF_EVEN) -> str:
    """Independent rendering via integer square roots at guard precision.

    A root's error, under ``10**-guard``, is multiplied by its coefficient,
    so the guard grows by the whole digits of the largest one."""
    whole_digits = len(str(int(max(abs(x.b), abs(x.c), abs(x.d)))))
    guard = digits + 25 + whole_digits
    scale = 10**guard
    root3 = math.isqrt(3 * scale * scale)
    root5 = math.isqrt(5 * scale * scale)
    root15 = math.isqrt(15 * scale * scale)
    approx = x.a + (x.b * root3 + x.c * root5 + x.d * root15) / scale
    scaled = approx * 10**digits
    units = round(scaled) if rounding == HALF_EVEN else math.trunc(scaled)
    prefix = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**digits)
    return f"{prefix}{whole}.{frac:0{digits}d}"


# --- construction and equality -------------------------------------------

def test_coefficients_are_fractions():
    x = QuadExt(1, Fraction(2, 4), -3, 0)
    assert x.a == 1 and x.b == Fraction(1, 2) and x.c == -3 and x.d == 0


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        QuadExt(0.5)


def test_unique_representation_gives_structural_equality():
    assert QuadExt(1, 2, 3, 4) == QuadExt(1, 2, 3, 4)
    assert QuadExt(1, 2, 3, 4) != QuadExt(1, 2, 3, Fraction(4, 3))
    assert QuadExt(7) == 7
    assert QuadExt(7) == Fraction(7)
    assert QuadExt(0, 1) != 7


def test_hash_consistent_with_rational_equality():
    assert hash(QuadExt(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert len({QuadExt(2), QuadExt(2, 0, 0, 0)}) == 1


MODULUS = sys.hash_info.modulus  # 2**61 - 1 on 64-bit builds


@pytest.mark.parametrize("value", [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(-2), Fraction(-7, 3), Fraction(-1, 2),
    Fraction(1, MODULUS), Fraction(-1, MODULUS), Fraction(5, MODULUS), Fraction(MODULUS - 1, 2),
    Fraction(1, 3 * MODULUS), Fraction(-1, 3 * MODULUS), Fraction(7, MODULUS**2),
    Fraction(MODULUS), Fraction(-MODULUS, 2), Fraction(10**40, 3), Fraction(-(10**40), 7),
])
def test_rational_hash_matches_fraction_hash(value):
    # a rational QuadExt hashes from its ints as Fraction does, including a
    # denominator with no inverse modulo the hash modulus and the -1 -> -2 rule
    assert hash(QuadExt(value)) == hash(value)


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.integers(min_value=0, max_value=3))
def test_rational_hash_matches_fraction_hash_sweep(value, power):
    # the scaled denominators reach multiples and powers of the hash modulus
    value /= MODULUS**power
    assert hash(QuadExt(value)) == hash(value)
    assert hash(QuadExt(value) * QuadExt(0, 1) * QuadExt(0, 1) / 3) == hash(value)


# --- arithmetic ------------------------------------------------------------

def test_basiswise_addition():
    assert QuadExt(1, 0, 2, 0) + QuadExt(0, 3, 0, 1) == QuadExt(1, 3, 2, 1)


def test_phi_doubling():
    assert PHI + PHI == QuadExt(1, 0, 1, 0)


def test_additive_inverse():
    x = QuadExt(Fraction(-2, 3), 5, 0, Fraction(1, 7))
    assert x + (-x) == ZERO


def test_sqrt3_times_sqrt5_is_sqrt15():
    assert SQRT3 * SQRT5 == SQRT15


def test_golden_ratio_defining_identity():
    assert PHI * PHI == PHI + ONE


# --- _dot: x1*y1 + x2*y2 with one reduction --------------------------------

def _dot_operands(rng: random.Random, quad5: bool, shared: bool) -> list[QuadExt]:
    """Four seeded operands: numerators in [-60, 60], zero about one time in
    five, and an operand is zero outright one time in ten.  Over `shared`
    denominators the four share factors (of 2 * 3 * 5 * 7); otherwise they
    are distinct primes, so every pair is coprime.  With `quad5` the sqrt5
    and sqrt15 parts are drawn too, and the first operand has a sqrt5 part."""
    dens = ([rng.choice([1, 2, 6, 10, 14, 30, 42, 210]) for _ in range(4)] if shared
            else rng.sample([1, 11, 13, 17, 19, 23, 29, 31], 4))
    operands = []
    for den in dens:
        if rng.random() < 0.1:
            operands.append(ZERO)
            continue
        nums = [0 if rng.random() < 0.2 else rng.randint(-60, 60) for _ in range(4)]
        if not quad5:
            nums[2:] = [0, 0]
        operands.append(QuadExt(*(Fraction(num, den) for num in nums)))
    if quad5:
        operands[0] = operands[0] + SQRT5
    return operands


def _dot_cases(seed: int, count: int, quad5: bool) -> list[list[QuadExt]]:
    rng = random.Random(seed)
    return [_dot_operands(rng, quad5, shared=bool(i % 2)) for i in range(count)]


@pytest.mark.parametrize("quad5", [False, True], ids=["sqrt3-only", "with-sqrt5"])
def test_dot_is_the_sum_of_two_products_structurally(quad5):
    # the reduced form is unique, so the kernel must give the very numerators
    # and denominator that two products and a sum give; the sqrt5 cases take
    # the fallback, and the sqrt3-only ones the fused path
    for x1, y1, x2, y2 in _dot_cases(20261022 + quad5, 2000, quad5):
        got, want = _dot(x1, y1, x2, y2), x1 * y1 + x2 * y2
        assert (got._num, got._den) == (want._num, want._den), (x1, y1, x2, y2)


def test_dot_reduces_when_the_products_share_factors():
    half, third = QuadExt(Fraction(1, 2)), QuadExt(Fraction(1, 3))
    assert _dot(half, QuadExt(2), third, QuadExt(3)) == 2
    assert _dot(half, half, half, half) == half
    # a zero sum is the one zero, over denominator 1
    for zero in (_dot(SQRT3, SQRT3, -ONE, QuadExt(3)), _dot(ZERO, third, half, ZERO)):
        assert (zero._num, zero._den) == ((0, 0, 0, 0), 1)
    # (5/6 + 7/4*sqrt3)(2/15 + sqrt3) = 193/36 + 16/15*sqrt3 and
    # (-1/10 + 3/4*sqrt3)(4/9 + 2/3*sqrt3) = 131/90 + 4/15*sqrt3, both
    # unreduced over 12*15 = 20*9 = 180 until the sum reduces to 60
    x = _dot(QuadExt(Fraction(5, 6), Fraction(7, 4)), QuadExt(Fraction(2, 15), 1),
             QuadExt(Fraction(-1, 10), Fraction(3, 4)), QuadExt(Fraction(4, 9), Fraction(2, 3)))
    assert (x._num, x._den) == ((409, 80, 0, 0), 60)


@pytest.mark.parametrize("quad5", [False, True], ids=["sqrt3-only", "with-sqrt5"])
def test_dot_agrees_with_the_float_oracle(quad5):
    f = float_oracle.quad_to_float
    for x1, y1, x2, y2 in _dot_cases(7 + quad5, 500, quad5):
        want = f(x1) * f(y1) + f(x2) * f(y2)
        scale = abs(f(x1) * f(y1)) + abs(f(x2) * f(y2)) + 1
        assert abs(f(_dot(x1, y1, x2, y2)) - want) <= 1e-12 * scale


@pytest.mark.parametrize("quad5", [False, True], ids=["sqrt3-only", "with-sqrt5"])
def test_dot_agrees_with_the_decimal_oracle(quad5):
    # each operand rendered at 60 digits by the integer-root oracle, then
    # multiplied and summed in `decimal`, within 1e-40 of the kernel's value
    for x1, y1, x2, y2 in _dot_cases(11 + quad5, 200, quad5):
        with localcontext() as context:
            context.prec = 150
            x1d, y1d, x2d, y2d = (Decimal(_decimal_oracle(x, 60)) for x in (x1, y1, x2, y2))
            got = Decimal(_decimal_oracle(_dot(x1, y1, x2, y2), 50))
            assert abs(got - (x1d * y1d + x2d * y2d)) < Decimal("1e-40")


def test_phi_maps_short_span_to_sqrt3():
    short = QuadExt(0, Fraction(-1, 2), 0, Fraction(1, 2))  # (sqrt15 - sqrt3)/2
    assert PHI * short == SQRT3


def test_division_round_trips():
    x = QuadExt(Fraction(2, 7), Fraction(-3, 5), Fraction(1, 3), Fraction(4, 9))
    assert x / x == ONE
    assert (x / SQRT3) * SQRT3 == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_integer_powers():
    # phi squared is test_golden_ratio_defining_identity
    assert SQRT3 * SQRT3 * SQRT3 * SQRT3 == 9
    assert PHI.inverse() == PHI - 1  # 1/phi == phi - 1


@given(ELEMENTS, ELEMENTS)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(ELEMENTS, ELEMENTS)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@settings(max_examples=60)
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60)
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(ELEMENTS)
def test_multiplicative_identity(x):
    assert x * ONE == x


@given(ELEMENTS)
def test_inverse_round_trip(x):
    if not x.is_zero:
        assert x * x.inverse() == ONE


# --- sign -------------------------------------------------------------------

def test_sign_of_zero_is_structural():
    assert sign(ZERO) == 0
    assert sign(QuadExt(0, 1) - PHI * QuadExt(0, Fraction(-1, 2), 0, Fraction(1, 2))) == 0


def test_sign_examples():
    assert sign(SQRT15 - SQRT3) == 1
    assert sign(SQRT3 - SQRT5) == -1
    assert sign(QuadExt(-4)) == -1
    assert sign(Fraction(1, 3)) == 1


def test_sign_separates_close_values():
    # sqrt3 + sqrt5 vs sqrt15: 3.968... vs 3.872...
    assert sign(SQRT3 + SQRT5 - SQRT15) == 1
    # the two 15-digit rationals on either side of sqrt3
    assert sign(SQRT3 - Fraction(1732050807568877, 10**15)) == 1
    assert sign(SQRT3 - Fraction(1732050807568878, 10**15)) == -1


@given(ELEMENTS)
def test_sign_of_difference_with_self_is_zero(x):
    assert sign(x - x) == 0


@given(ELEMENTS)
def test_sign_antisymmetry(x):
    assert sign(-x) == -sign(x)


@settings(max_examples=40)
@given(ELEMENTS)
def test_sign_agrees_with_float_estimate(x):
    approx = float(x.a) + float(x.b) * math.sqrt(3) + float(x.c) * math.sqrt(5) + float(
        x.d
    ) * math.sqrt(15)
    if abs(approx) > 1e-9:
        assert sign(x) == (1 if approx > 0 else -1)


def test_comparisons_use_exact_sign():
    assert SQRT3 < SQRT5 < QuadExt(0, 0, 0, 1)
    assert PHI > Fraction(8, 5)
    assert PHI < Fraction(13, 8)
    assert abs(SQRT3 - SQRT5) == SQRT5 - SQRT3


@pytest.mark.parametrize("x, y, order", [
    (SQRT3, SQRT5, -1), (SQRT5, SQRT3, 1), (-PHI, Fraction(-8, 5), -1), (0, -SQRT15, 1),
    (PHI, PHI, 0), (QuadExt(Fraction(-8, 5)), Fraction(-8, 5), 0),
])
def test_each_comparison_follows_the_order(x, y, order):
    # order is -1, 0 or 1 as x is less than, equal to or greater than y
    assert (x < y, x <= y, x > y, x >= y) == (order == -1, order != 1, order == 1, order != -1)


# --- sqrt_exact --------------------------------------------------------------

def test_sqrt_exact_perfect_square():
    assert sqrt_exact(4) == QuadExt(2)
    assert sqrt_exact(Fraction(9, 4)) == QuadExt(Fraction(3, 2))


def test_sqrt_exact_basis_multiples():
    assert sqrt_exact(15) == SQRT15
    assert sqrt_exact(3) == SQRT3
    assert sqrt_exact(5) == SQRT5
    assert sqrt_exact(Fraction(3, 4)) == QuadExt(0, Fraction(1, 2))
    assert sqrt_exact(Fraction(5, 16)) == QuadExt(0, 0, Fraction(1, 4))
    assert sqrt_exact(60) == QuadExt(0, 0, 0, 2)


def test_sqrt_exact_zero():
    assert sqrt_exact(0) == ZERO


def test_sqrt_exact_outside_field():
    for bad in (2, 7, Fraction(6), Fraction(10), Fraction(2, 3)):
        with pytest.raises(NotRepresentable):
            sqrt_exact(bad)


def test_sqrt_exact_negative():
    assert issubclass(NegativeInput, ValueError)
    with pytest.raises(NegativeInput):
        sqrt_exact(-1)
    with pytest.raises(ValueError):
        sqrt_exact(Fraction(-1, 4))


def test_sqrt_exact_messages_name_the_radicand():
    for radicand in (Fraction(2, 3), QuadExt(Fraction(2, 3))):
        with pytest.raises(NotRepresentable, match=r"^sqrt\(2/3\) lies outside the field$"):
            sqrt_exact(radicand)
    for radicand in (7, QuadExt(7)):
        with pytest.raises(NotRepresentable, match=r"^sqrt\(7\) lies outside the field$"):
            sqrt_exact(radicand)
    for radicand in (-1, Fraction(-1, 4), QuadExt(Fraction(-1, 4))):
        with pytest.raises(NegativeInput, match="^square root of a negative rational$"):
            sqrt_exact(radicand)


def test_sqrt_exact_rejects_an_irrational_radicand():
    for radicand in (SQRT3, 4 * SQRT5, QuadExt(4, 0, 0, 1), PHI * PHI):
        with pytest.raises(NotRepresentable, match="irrational field element"):
            sqrt_exact(radicand)


@given(st.fractions(min_value=Fraction(-30), max_value=Fraction(30), max_denominator=60))
def test_sqrt_exact_reads_a_rational_quadext_as_its_fraction(r):
    # the field element is read from its integer form, the Fraction as given
    def outcome(radicand):
        try:
            return sqrt_exact(radicand)
        except (NotRepresentable, NegativeInput) as error:
            return type(error), str(error)

    assert outcome(QuadExt(r)) == outcome(r)
    assert outcome(QuadExt(r * r)) == outcome(r * r) == abs(QuadExt(r))
    assert outcome(QuadExt(15 * r * r)) == outcome(15 * r * r) == abs(r) * SQRT15


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(30), max_denominator=20),
       st.sampled_from([1, 3, 5, 15]))
def test_sqrt_exact_round_trip(s, multiple):
    radicand = multiple * s * s
    root = sqrt_exact(radicand)
    assert root * root == radicand
    assert sign(root) >= 0


# --- to_decimal ---------------------------------------------------------------

def test_decimal_of_golden_ratio():
    assert to_decimal(PHI, 10) == "1.6180339887"
    assert to_decimal(PHI, 12) == "1.618033988750"


def test_decimal_of_rationals():
    assert to_decimal(Fraction(1, 2), 10) == "0.5000000000"
    assert to_decimal(Fraction(-1, 8), 3) == "-0.125"
    assert to_decimal(0, 4) == "0.0000"


def test_decimal_of_sqrt3():
    assert to_decimal(SQRT3, 10) == "1.7320508076"


def test_decimal_half_even_ties():
    assert to_decimal(Fraction(1, 8), 2) == "0.12"  # 0.125 ties to even 2
    assert to_decimal(Fraction(3, 8), 2) == "0.38"  # 0.375 ties to even 8
    assert to_decimal(Fraction(-1, 8), 2) == "-0.12"


def test_decimal_truncation_mode():
    assert to_decimal(Fraction(89, 55), 10, TRUNCATE) == "1.6181818181"
    assert to_decimal(Fraction(89, 55), 10, HALF_EVEN) == "1.6181818182"
    assert to_decimal(Fraction(-199, 100), 1, TRUNCATE) == "-1.9"


# ties of both parities at 2 and 3 digits, of both signs, and values of
# both signs between ties
RATIONAL_DECIMAL_CASES = (
    [Fraction(n, 8) for n in range(-20, 21)]
    + [Fraction(n, 2000) for n in range(-9, 10, 2)]
    + [Fraction(-199, 100), Fraction(-1, 3), Fraction(-2, 3), Fraction(89, 55), Fraction(7, 6)]
)


@pytest.mark.parametrize("rounding, reference", [(HALF_EVEN, round), (TRUNCATE, math.trunc)])
def test_rational_decimal_matches_fraction_rounding(rounding, reference):
    for value in RATIONAL_DECIMAL_CASES:
        for digits in (1, 2, 3, 5):
            units = Fraction(to_decimal(value, digits, rounding)) * 10**digits
            assert units == reference(value * 10**digits), (value, digits)


@settings(max_examples=100)
@given(
    st.fractions(max_denominator=10**4), st.integers(1, 8), st.sampled_from([HALF_EVEN, TRUNCATE])
)
def test_rational_decimal_matches_fraction_rounding_anywhere(value, digits, rounding):
    reference = round if rounding == HALF_EVEN else math.trunc
    units = Fraction(to_decimal(value, digits, rounding)) * 10**digits
    assert units == reference(value * 10**digits)


def test_decimal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        to_decimal(PHI, 0)
    with pytest.raises(ValueError):
        to_decimal(PHI, 5, "floor")


def test_decimal_matches_integer_sqrt_oracle():
    cases = [
        PHI,
        SQRT3,
        SQRT5,
        SQRT15,
        -PHI,
        QuadExt(Fraction(9, 2), 0, Fraction(3, 2)),
        QuadExt(0, Fraction(1, 2), 0, Fraction(1, 2)),
        QuadExt(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(-1, 13)),
        QuadExt(0, 10**40 + 1),  # a large root coefficient: the guard grows with it
        QuadExt(10**40 + Fraction(1, 7), Fraction(-2, 3), 0, Fraction(1, 5)),  # a large a
    ]
    for x in cases:
        for digits in (1, 6, 10, 12):
            assert to_decimal(x, digits) == _decimal_oracle(x, digits)
            assert to_decimal(x, digits, TRUNCATE) == _decimal_oracle(x, digits, TRUNCATE)


@settings(max_examples=40)
@given(ELEMENTS)
def test_decimal_reparses_close_to_value(x):
    rendered = to_decimal(x, 12)
    back = QuadExt(parse_rational(rendered))
    assert abs(back - x) <= Fraction(1, 10**12)


@settings(max_examples=40)
@given(ELEMENTS)
def test_decimal_sign_consistency(x):
    rendered = to_decimal(x, 20)
    if sign(x) > 0:
        assert not rendered.startswith("-")
    if rendered.startswith("-"):
        assert sign(x) < 0


# --- parsing and formatting ---------------------------------------------------


# --- to_decimals: one rounding pass -----------------------------------------

def _near_boundaries() -> list[QuadExt]:
    """Values within 10**-20 of a 12-digit rounding boundary, of both signs:
    a half unit (where half-even turns) and a whole unit (where truncation
    turns), each off by sqrt5 or sqrt3 less a 26-digit decimal of it."""
    values = []
    for root in (SQRT5, SQRT3):
        tail = root - parse_rational(to_decimal(root, 26))  # 0 < |tail| < 10**-26
        for boundary in (Fraction(7, 10) + Fraction(1, 2 * 10**12), Fraction(-3, 10)):
            values += [boundary + tail, boundary - tail]
    return values


STREAM = (
    [Fraction(1, 8), Fraction(-89, 55), 0, 7, Fraction(1, 3 * 10**12)]  # rationals
    + [SQRT3, QuadExt(Fraction(1, 2), Fraction(-7, 3)), QuadExt(0, 10**40 + 1)]  # Q(sqrt3)
    + [PHI, -PHI, SQRT15, QuadExt(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11),
                                  Fraction(-1, 13))]  # the whole field
    + [QuadExt(0, 0, Fraction(10**25, 3)), QuadExt(1, 0, 0, -(10**60))]  # larger guards
    + _near_boundaries()
)


@pytest.mark.parametrize("rounding", [HALF_EVEN, TRUNCATE])
@pytest.mark.parametrize("digits", [1, 12, 30])
def test_one_stream_rounds_each_value_as_alone(rounding, digits):
    # a value's digits do not depend on the values rounded before it, though
    # they share powers of ten and roots: the stream runs twice, the second
    # time after every value has been rounded alone and in reverse order
    alone = [to_decimal(value, digits, rounding) for value in STREAM]
    assert list(to_decimals(STREAM, digits, rounding)) == alone
    assert list(to_decimals(STREAM[::-1], digits, rounding)) == alone[::-1]
    assert alone == [bisection_oracle.to_decimal(value, digits, rounding) for value in STREAM]


def test_near_boundary_values_double_their_guard_once_per_stream(monkeypatch):
    # the four sqrt5 values: two by a half unit, where half-even turns, and
    # two by a whole unit, where truncation turns.  A value by its mode's
    # boundary takes the root at its first guard and at twice that, which
    # settles it; one stream takes each root once, each value alone its own
    near = _near_boundaries()[:4]
    roots = _count_roots(monkeypatch)
    assert list(to_decimals(near, 12, HALF_EVEN)) == [
        "0.700000000000", "0.700000000001", "-0.300000000000", "-0.300000000000",
    ]
    # sqrt5's coefficient 1 starts at guard 9, and 18 settles
    assert roots == [5 * 10 ** (2 * (12 + 9)), 5 * 10 ** (2 * (12 + 18))]
    roots.clear()
    assert [to_decimal(value, 12, TRUNCATE) for value in near] == [
        "0.700000000000", "0.700000000000", "-0.300000000000", "-0.299999999999",
    ]
    assert len(roots) == 1 + 1 + 2 + 2


@pytest.mark.parametrize("value, guard", [
    (PHI, 8),  # (1 + sqrt5)/2: a coefficient under 1, so no whole digit
    (SQRT5, 9),  # a 1-bit coefficient: 31/100 of a bit rounds up to one digit
    (QuadExt(0, 2**12), 13),  # 13 bits: 4.03 digits, so 5
    (QuadExt(0, 0, 0, -(2**99)), 39),  # 100 bits: 31 digits
])
def test_first_guard_is_8_more_than_the_whole_digits(monkeypatch, value, guard):
    # the first root is taken at the scale 10**(digits + guard), where the
    # guard is 8 plus 31/100 of the whole bits of the largest irrational
    # coefficient, rounded up: an upper bound on its whole decimal digits
    taken = _count_roots(monkeypatch)
    to_decimal(value, 10)
    radicand = next(r for r, coeff in zip((3, 5, 15), value._num[1:]) if coeff)
    assert taken[0] == radicand * 10 ** (2 * (10 + guard))


@pytest.mark.parametrize("coeff, expected", [(1, "4.999999999999"), (-1, "5.000000000000")])
def test_enclosure_is_one_root_unit_wide(monkeypatch, coeff, expected):
    # at 12 digits sqrt5's coefficient +-1 takes guard 9, so its root is
    # taken at scale 10**21, and the value is enclosed within one unit of
    # that scale: these values lie next to the truncation boundary 5 with
    # their enclosure just off it, so one unit more would double the guard
    scale = 10**21
    root = math.isqrt(5 * scale * scale)
    whole = Fraction(5 * scale - 2 - root if coeff > 0 else 5 * scale + root + 1, scale)
    value = QuadExt(whole, 0, coeff)
    roots = _count_roots(monkeypatch)
    assert to_decimal(value, 12, TRUNCATE) == expected
    assert roots == [5 * scale * scale]
    assert bisection_oracle.to_decimal(value, 12, TRUNCATE) == expected

    read = []

    def values():
        for value in STREAM:
            read.append(value)
            yield value

    stream = to_decimals(values(), 12)
    assert read == []
    for count, text in enumerate(stream, 1):
        assert len(read) == count
        assert text == to_decimal(read[-1], 12)
    assert len(read) == len(STREAM)


def test_stream_checks_its_arguments_at_the_call_and_each_value_when_read():
    with pytest.raises(ValueError):
        to_decimals([PHI], 0)
    with pytest.raises(ValueError):
        to_decimals([PHI], 5, "floor")
    stream = to_decimals([PHI, 1.5, SQRT3], 5)
    assert next(stream) == "1.61803"
    with pytest.raises(TypeError):
        next(stream)


def _count_roots(monkeypatch) -> list[int]:
    """From now on, record the argument of each math.isqrt call, anywhere."""
    calls = []
    isqrt = math.isqrt

    def counted(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(math, "isqrt", counted)
    return calls


@pytest.mark.parametrize("argv, expected", [
    # every variance of a 10-digit table settles at guard 8: one sqrt5 root
    (["fib", "--max", "300"], 1),
    (["fib", "--max", "300", "--json", "--rounding", "half-even"], 1),
    # six distinct (radicand, guard) pairs in the figure, and the construction's six
    (["render", "--out", "{tmp}/figure.svg"], 12),
    # two decimals and the construction's two sqrt_exact calls
    (["verify"], 8),
    (["verify", "--digits", "4300"], 8),
], ids=["fib", "fib-json", "render", "verify", "verify-4300"])
def test_integer_roots_per_command(monkeypatch, capsys, tmp_path, argv, expected):
    roots = _count_roots(monkeypatch)
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    capsys.readouterr()
    assert len(roots) == expected

def test_format_fraction_canonical():
    assert format_fraction(Fraction(6, 4)) == "3/2"
    assert format_fraction(Fraction(-2, 6)) == "-1/3"
    assert format_fraction(Fraction(3)) == "3/1"


def test_parse_rational_fraction_form():
    assert parse_rational("89/55") == Fraction(89, 55)
    assert parse_rational("-3/6") == Fraction(-1, 2)


def test_parse_rational_decimal_forms():
    assert parse_rational("1.618") == Fraction(1618, 1000)
    assert parse_rational("1,618") == Fraction(1618, 1000)
    assert parse_rational(" 2 ") == 2
    assert parse_rational("-0.5") == Fraction(-1, 2)


def test_parse_rational_rejects_garbage():
    for bad in ("", "one", "1.6.8", "1/0", "3/"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_bounds_numerator_and_denominator_digits():
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    assert parse_rational("2" * 4300 + "/" + "3" * 4300) == Fraction(int("2" * 4300), int("3" * 4300))
    for big in ("1e4300", "1e-4300", "1e999999999", "1e-999999999", "0." + "0" * 4300 + "1",
                "1" * 4301, "1/" + "3" * 4301, "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="at most 4300 digits"):
            parse_rational(big)


def test_as_quadext_rejects_floats():
    with pytest.raises(TypeError):
        as_quadext(1.5)


@pytest.mark.parametrize("entry", [
    QuadExt,
    sqrt_exact,
    lambda value: build_cluster(VertexRef(HexIndex(0, 0), 0), value),
    as_quadext,
    sign,
    lambda value: to_decimal(value, 5),
    lambda value: Point(value, 0),
], ids=["QuadExt", "sqrt_exact", "build_cluster", "as_quadext", "sign",
        "to_decimal", "Point"])
@pytest.mark.parametrize("value", ["1/2", "1e4301", Decimal("1.5"), 1.5], ids=repr)
def test_only_ints_and_fractions_enter_the_field(entry, value):
    # a literal is read by parse_rational alone, with its digit bounds; every
    # entry point refuses a str, a Decimal or a float before parsing anything
    with pytest.raises(TypeError):
        entry(value)


def test_json_coefficients_and_decimal():
    payload = PHI.to_json()
    assert payload == {
        "a": "1/2",
        "b": "0/1",
        "c": "1/2",
        "d": "0/1",
        "decimal": "1.618033988750",
    }
