"""Fibonacci convergents of the golden ratio and nearest-convergent search.

Indexing starts at F(1) = F(2) = 1, so the n-th convergent is
``F(n)/F(n-1)`` for n >= 2.  The variance of a convergent is its exact
absolute distance to the golden ratio, an element of the field; rendering to
a decimal is the only approximate-looking step and even that is correctly
rounded.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exact import HALF_EVEN, PHI, QuadExt, parse_rational, sign, to_decimal


def fib(n: int) -> int:
    """F(n) with F(1) = F(2) = 1."""
    if n < 1:
        raise ValueError("Fibonacci index starts at 1")
    prev, cur = 1, 1
    for _ in range(n - 2):
        prev, cur = cur, prev + cur
    return cur if n > 1 else 1


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
    return Convergent(n, fib(n), fib(n - 1))


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
    separator) or an exact rational.  The search stops once every later
    convergent provably loses: convergent distances to phi shrink toward
    zero, so later candidates sit at least |value - phi| - variance(n) away,
    and that bound eventually exceeds the best distance found.
    """
    target = parse_rational(value) if isinstance(value, str) else Fraction(value)
    if target <= 0:
        raise ValueError("ratio must be positive")
    # |target - phi| = side * (target - phi); phi is irrational, so side != 0
    side = sign(QuadExt(target) - PHI)
    best: Convergent | None = None
    best_distance: Fraction | None = None
    for candidate in convergents():
        distance = abs(candidate.ratio - target)
        if best_distance is None or distance < best_distance:
            best, best_distance = candidate, distance
        elif distance > best_distance:
            # |target - phi| <= distance + |ratio - phi|, so only a candidate
            # farther than the best can pass the stop test
            # |target - phi| - |ratio - phi| - best_distance > 0.
            # Cassini's identity F(n+1)F(n-1) - F(n)^2 = (-1)^n puts phi between
            # consecutive convergents, and F(2)/F(1) = 1 lies below it, so
            # |ratio - phi| = above * (ratio - phi) with above = +1 for odd n
            # and -1 for even n.  The test is then rest + (above - side) * phi > 0
            # with a rational rest, and (above - side) * phi = h + h*sqrt5 for
            # h = (above - side) / 2.
            above = 1 if candidate.n % 2 else -1
            h = (above - side) // 2
            rest = side * target - above * candidate.ratio - best_distance
            if sign(QuadExt(rest + h, 0, h)) > 0:
                return best
