from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hexphi.fibonacci as fibonacci
from hexphi.exact import HALF_EVEN, PHI, TRUNCATE, QuadExt, sign, to_decimal
from hexphi.fibonacci import Convergent, assess_nearest, convergent, convergents


def test_fib_base_and_known_values():
    # F(n) is the denominator of convergent n + 1
    assert [convergent(n + 1).fn_1 for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert convergent(12).fn_1 == 89
    assert convergent(51).fn_1 == 12586269025


def test_fib_matches_recurrence_oracle():
    prev, cur = 1, 1
    for n in range(3, 60):
        prev, cur = cur, prev + cur
        assert convergent(n + 1).fn_1 == cur


def test_convergent_examples():
    assert convergent(2).ratio == 1
    assert convergent(3).ratio == 2
    eleventh = convergent(11)
    assert (eleventh.fn, eleventh.fn_1) == (89, 55)
    assert eleventh.ratio == Fraction(89, 55)
    assert convergent(12).ratio == Fraction(144, 89)
    assert repr(eleventh) == "Convergent(n=11, fn=89, fn_1=55)"
    assert hash(eleventh) == hash(tuple(eleventh)) == hash((11, 89, 55))
    with pytest.raises(AttributeError):
        eleventh.n = 12


def test_convergents_run_through_convergent():
    assert list(zip(range(2, 301), convergents())) == [(n, convergent(n)) for n in range(2, 301)]


def test_hand_built_convergent_over_zero_raises():
    zero_below = Convergent(2, 1, 0)
    with pytest.raises(ZeroDivisionError):
        zero_below.variance_exact()
    with pytest.raises(ZeroDivisionError):
        zero_below.ratio_decimal(10)


def test_convergent_rejects_n_below_two():
    with pytest.raises(ValueError):
        convergent(1)


def test_eleventh_convergent_decimals():
    eleventh = convergent(11)
    assert eleventh.ratio_decimal(10, TRUNCATE) == "1.6181818181"
    assert eleventh.ratio_decimal(10, HALF_EVEN) == "1.6181818182"
    assert eleventh.variance_decimal(10, TRUNCATE) == "0.0001478294"
    assert eleventh.variance_decimal(10, HALF_EVEN) == "0.0001478294"


def test_variance_shorthand():
    assert convergent(11).variance_decimal(10) == "0.0001478294"
    assert convergent(2).variance_decimal(4) == "0.6180"


def test_closed_form_variance_matches_field_subtraction():
    # F(n-1) is even exactly when 3 divides n - 1, so the range takes both the
    # halved and the unhalved form; the first three hand-built rows share a
    # factor or are no convergents at all (e != +-1) and take the gcd, and
    # the last three, with a field <= 0, the generic path
    hand_built = [Convergent(5, 10, 6), Convergent(3, 7, 4), Convergent(2, 3, 3),
                  Convergent(2, -1, 1), Convergent(2, 1, -3), Convergent(2, -3, -2)]
    for row in [convergent(n) for n in range(2, 3001)] + hand_built:
        closed = row.variance_exact()
        generic = abs(QuadExt(row.ratio) - PHI)
        assert (closed._num, closed._den) == (generic._num, generic._den), row
        assert hash(closed) == hash(generic), row
        for rounding in (HALF_EVEN, TRUNCATE):
            assert row.ratio_decimal(12, rounding) == to_decimal(row.ratio, 12, rounding), row


def test_variance_is_strictly_decreasing():
    gaps = [convergent(n).variance_exact() for n in range(2, 41)]
    for closer, farther in zip(gaps[1:], gaps):
        assert sign(farther - closer) == 1


def test_convergents_alternate_around_phi():
    for n in range(2, 41):
        side = sign(QuadExt(convergent(n).ratio) - PHI)
        assert side != 0
        assert side == (1 if n % 2 else -1)


def test_determinant_identity():
    for n in range(3, 41):
        fn, fn_1, fn_2 = convergent(n).fn, convergent(n).fn_1, convergent(n - 1).fn_1
        lhs = fn * fn_2 - fn_1 * fn_1
        assert lhs == (-1) ** (n - 1)


def test_assess_nearest_eleventh_decimal():
    found = assess_nearest("1.6181818181")
    assert found.n == 11
    assert found.ratio == Fraction(89, 55)


def test_assess_nearest_exact_hit():
    assert assess_nearest("2.0").n == 3
    assert assess_nearest(Fraction(89, 55)).n == 11


def test_assess_nearest_short_decimal():
    # brute force over n <= 30: 144/89 sits 1/44500 below 1.618, closer than
    # any later convergent (377/233 is at ~0.0000258)
    found = assess_nearest("1.618")
    assert found.n == 12
    assert found.ratio == Fraction(144, 89)
    assert abs(found.ratio - Fraction(1618, 1000)) == Fraction(1, 44500)


def test_assess_nearest_comma_separator():
    assert assess_nearest("1,618").n == 12


def test_assess_nearest_rejects_bad_input():
    with pytest.raises(ValueError):
        assess_nearest("phi")
    with pytest.raises(ValueError):
        assess_nearest("-1.6")
    with pytest.raises(ValueError):
        assess_nearest("0")
    with pytest.raises(ValueError, match="^not a rational literal: '1/2/3'$"):
        assess_nearest("1/2/3")



@pytest.mark.parametrize("value", [1.618, Decimal("1.618")], ids=repr)
def test_assess_nearest_takes_only_a_str_int_or_fraction(value):
    # a number enters through exact's one gate: no float, and no Decimal,
    # which would have no digit bound; parse_rational reads a literal
    with pytest.raises(TypeError):
        assess_nearest(value)

def _exhaustive_nearest(target: Fraction, max_n: int = 60) -> int:
    best_n = 2
    best_gap = abs(Fraction(1) - target)
    prev, cur = 1, 2
    for n in range(3, max_n + 1):
        gap = abs(Fraction(cur, prev) - target)
        if gap < best_gap:
            best_n, best_gap = n, gap
        prev, cur = cur, prev + cur
    return best_n


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(2), max_denominator=10**6))
def test_assess_agrees_with_exhaustive_scan(target):
    assert assess_nearest(target).n == _exhaustive_nearest(target)


def test_assess_agrees_with_exhaustive_scan_seeded():
    import random

    rng = random.Random(20260814)
    for _ in range(100):
        target = Fraction(rng.randrange(10**10, 2 * 10**10), 10**10)
        assert assess_nearest(target).n == _exhaustive_nearest(target)


def test_assess_far_targets_pick_extreme_convergents():
    assert assess_nearest(Fraction(1000)).n == 3  # largest ratio is F3/F2 = 2
    assert assess_nearest(Fraction(1, 1000)).n == 2  # smallest is F2/F1 = 1


def _count_visits(monkeypatch) -> list[int]:
    """From now on, count the convergents `assess_nearest` draws into the returned list."""
    visits = [0]
    real = fibonacci.convergents

    def counting(start=2):
        for candidate in real(start):
            visits[0] += 1
            yield candidate

    monkeypatch.setattr(fibonacci, "convergents", counting)
    return visits


def test_assess_starts_at_its_bracket(monkeypatch):
    # the longest Phi prefix a report hands over; a walk from n = 2 draws 10,285
    target = Fraction(to_decimal(PHI, 4298))
    visits = _count_visits(monkeypatch)
    found = assess_nearest(target)
    assert visits[0] <= 8
    assert found.n == 10286
    assert found == convergent(found.n)


@pytest.mark.parametrize("overshoot", [6, 1000])
def test_assess_survives_an_overshooting_estimate(monkeypatch, overshoot):
    targets = [Fraction(to_decimal(PHI, digits)) for digits in (1, 5, 40, 100)]
    targets += [Fraction(3, 2), Fraction(89, 55), Fraction(1000), Fraction(1, 1000)]
    expected = [assess_nearest(target) for target in targets]
    real = fibonacci._bracket_index
    monkeypatch.setattr(fibonacci, "_bracket_index", lambda p, q: real(p, q) + overshoot)
    assert [assess_nearest(target) for target in targets] == expected
    assert [assess_nearest(target).n for target in targets] == [
        _exhaustive_nearest(target, 600) for target in targets
    ]
