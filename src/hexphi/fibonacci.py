"""Fibonacci convergents of the golden ratio and nearest-convergent search.

Indexing starts at F(1) = F(2) = 1, so the n-th convergent is
``F(n)/F(n-1)`` for n >= 2.  The variance of a convergent is its exact
absolute distance to the golden ratio, an element of the field; rendering to
a decimal is the only approximate-looking step and even that is correctly
rounded.

The nearest convergent to a target t is found by bracketing.  Cassini's
identity F(n+1)F(n-1) - F(n)^2 = (-1)^n puts phi between consecutive
convergents, so those with odd n lie above phi and fall toward it, and those
with even n lie below and rise toward it.  A convergent on the far side of
phi from t is more than |t - phi| away, while some near-side convergent lies
between phi and t and so comes closer.  The answer is therefore one of the
two consecutive near-side convergents that bracket t.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exact import HALF_EVEN, PHI, QuadExt, parse_rational, sign, to_decimal


def fib(n: int) -> int:
    """F(n) with F(1) = F(2) = 1."""
    if n < 1:
        raise ValueError("Fibonacci index starts at 1")
    return convergent(n + 1).fn_1


@dataclass(frozen=True)
class Convergent:
    n: int
    fn: int
    fn_1: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.fn, self.fn_1)

    def ratio_decimal(self, frac_digits: int, rounding: str = HALF_EVEN) -> str:
        return to_decimal(self.ratio, frac_digits, rounding)

    def variance_exact(self) -> QuadExt:
        """|F(n)/F(n-1) - phi| as an exact field element."""
        return abs(QuadExt(self.ratio) - PHI)

    def variance_decimal(self, frac_digits: int, rounding: str = HALF_EVEN) -> str:
        return to_decimal(self.variance_exact(), frac_digits, rounding)


def convergent(n: int) -> Convergent:
    if n < 2:
        raise ValueError("convergents start at n = 2")
    return next(itertools.islice(convergents(), n - 2, None))


def convergents() -> Iterator[Convergent]:
    """The convergents for n = 2, 3, ... in turn, from one running pair."""
    n, prev, cur = 2, 1, 1
    while True:
        yield Convergent(n, cur, prev)
        n, prev, cur = n + 1, cur, prev + cur


def variance(n: int, frac_digits: int = 10, rounding: str = HALF_EVEN) -> str:
    """Decimal rendering of the n-th convergent's distance to the golden ratio."""
    return convergent(n).variance_decimal(frac_digits, rounding)


def assess_nearest(value: str | Fraction | int) -> Convergent:
    """The convergent whose ratio is closest to `value`; ties pick smaller n.

    `value` may be a rational string ("p/q" or a decimal with either
    separator) or an exact rational.  One field sign tells the target's side
    of phi; the search walks that side's convergents up to the first one
    between phi and the target and returns it or the one before it,
    whichever is closer by cross-multiplied ints (see the module docstring).
    """
    target = parse_rational(value) if isinstance(value, str) else Fraction(value)
    if target <= 0:
        raise ValueError("ratio must be positive")
    p, q = target.numerator, target.denominator
    side = sign(QuadExt(target) - PHI)  # phi is irrational, so side != 0
    before = None
    for candidate in itertools.islice(convergents(), (1 + side) // 2, None, 2):
        # gap has the sign of ratio - target, over the positive fn_1 * q
        gap = candidate.fn * q - p * candidate.fn_1
        if side * gap < 0:
            break
        before, before_gap = candidate, gap
    if before is not None and side * before_gap * candidate.fn_1 <= -side * gap * before.fn_1:
        return before
    return candidate
