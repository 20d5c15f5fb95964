"""Fibonacci convergents of the golden ratio and nearest-convergent search.

Indexing starts at F(1) = F(2) = 1, so the n-th convergent is
``F(n)/F(n-1)`` for n >= 2.  The variance of a convergent is its exact
absolute distance to the golden ratio, an element of the field; rendering to
a decimal is the only approximate-looking step and even that is correctly
rounded.

A row is computed in ints.  For positive p and q, p/q - phi is
(2p - q - q*sqrt5) / (2q), and its sign is the sign of e = p^2 - pq - q^2,
since (p/q)^2 - p/q - 1 = e/q^2 and phi is the positive root of x^2 - x - 1;
4e = (2p - q)^2 - 5q^2 takes two squarings.  For consecutive Fibonacci
numbers e = +-1 (Cassini), and a factor common to p and q divides e, so they
are coprime (Knuth, *TAOCP* vol. 1, section 1.2.8).  The form above is then
reduced but for a factor 2 when q is even: a row needs no gcd, no field
subtraction and no `sign` call.

The nearest convergent to a target t is found by bracketing.  Cassini's
identity F(n+1)F(n-1) - F(n)^2 = (-1)^n puts phi between consecutive
convergents, so those with odd n lie above phi and fall toward it, and those
with even n lie below and rise toward it.  A convergent on the far side of
phi from t is more than |t - phi| away, while some near-side convergent lies
between phi and t and so comes closer.  The answer is therefore one of the
two consecutive near-side convergents that bracket t.

The walk along the near side starts two steps before an index estimated from
|t - phi|, since the n-th convergent lies about 1/(sqrt5 F(n-1)^2) from phi.
When the estimate overshoots the bracket, the walk starts over from the first
near-side convergent, so the answer never rests on the estimate.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .exact import HALF_EVEN, PHI, QuadExt, _new, _reduced, parse_rational, sign, to_decimal


class Convergent(namedtuple("Convergent", "n fn fn_1")):
    """The n-th convergent, F(n)/F(n-1), held as n, F(n) and F(n-1).

    The variance takes its sign from e = fn^2 - fn*fn_1 - fn_1^2 (see the
    module docstring) and skips the gcd when e = +-1.  Fields built by hand
    that are not consecutive Fibonacci numbers take the gcd, and non-positive
    ones the generic field path, so the result has the same reduced form
    whatever the fields.
    """

    __slots__ = ()

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.fn, self.fn_1)

    def ratio_decimal(self, frac_digits: int, rounding: str = HALF_EVEN) -> str:
        if self.fn_1 <= 0:
            return to_decimal(self.ratio, frac_digits, rounding)
        # to_decimal only rounds fn / fn_1, so this unreduced form needs no gcd
        return to_decimal(_new((self.fn, 0, 0, 0), self.fn_1), frac_digits, rounding)

    def variance_exact(self) -> QuadExt:
        """|F(n)/F(n-1) - phi| as an exact field element."""
        p, q = self.fn, self.fn_1
        if p <= 0 or q <= 0:  # the sign rule needs p/q > 0
            return abs(QuadExt(self.ratio) - PHI)
        a = 2 * p - q
        e4 = a * a - 5 * (q * q)  # 4e, from two squarings
        s = 1 if e4 > 0 else -1  # phi is irrational, so e != 0
        if e4 != 4 * s:  # not Cassini's e = +-1, so p and q may share a factor
            return _reduced(s * a, 0, -s * q, 0, 2 * q)
        if q & 1:
            return _new((s * a, 0, -s * q, 0), 2 * q)
        return _new((s * (a >> 1), 0, -s * (q >> 1), 0), q)  # a is even with q

    def variance_decimal(self, frac_digits: int, rounding: str = HALF_EVEN) -> str:
        return to_decimal(self.variance_exact(), frac_digits, rounding)


def convergent(n: int) -> Convergent:
    return next(convergents(n))


def convergents(start: int = 2) -> Iterator[Convergent]:
    """The convergents for n = start, start + 1, ... in turn, from one running pair."""
    if start < 2:
        raise ValueError("convergents start at n = 2")
    n, (prev, cur) = start, _fib_pair(start - 1)
    while True:
        yield Convergent(n, cur, prev)
        n, prev, cur = n + 1, cur, prev + cur


def _fib_pair(k: int) -> tuple[int, int]:
    """(F(k), F(k+1)) by fast doubling, from F(0) = 0 and F(1) = 1:
    F(2m) = F(m)(2F(m+1) - F(m)) and F(2m+1) = F(m)^2 + F(m+1)^2."""
    a, b = 0, 1
    for bit in bin(k)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


# each convergent is about phi**2 times closer to phi than the one before it
_INDEX_PER_BIT = 1 / (2 * math.log2((1 + math.sqrt(5)) / 2))
_LOG2_SQRT5 = math.log2(5) / 2


def _bracket_index(p: int, q: int) -> int:
    """About the first n whose convergent is closer to phi than p/q is.

    With s = 2p - q, |p/q - phi| = |s^2 - 5q^2| / (2q(s + q*sqrt5)), and the
    n-th convergent lies about 1/(sqrt5 F(n-1)^2) = sqrt5 / phi^(2n-2) from
    phi.  Bit lengths give both logarithms to within three bits, which is
    about two indices.
    """
    s = 2 * p - q
    bits = (2 * q).bit_length() + (s + 3 * q).bit_length() - (s * s - 5 * q * q).bit_length()
    return 1 + int((bits + _LOG2_SQRT5) * _INDEX_PER_BIT)


def assess_nearest(value: str | Fraction | int) -> Convergent:
    """The convergent whose ratio is closest to `value`; ties pick smaller n.

    `value` may be a rational string ("p/q" or a decimal with either
    separator) or an exact rational.  One field sign tells the target's side
    of phi; the search walks that side's convergents, from two steps before
    `_bracket_index`, up to the first one between phi and the target and
    returns it or the one before it, whichever is closer by cross-multiplied
    ints (see the module docstring).
    """
    target = parse_rational(value) if isinstance(value, str) else Fraction(value)
    if target <= 0:
        raise ValueError("ratio must be positive")
    p, q = target.numerator, target.denominator
    side = sign(QuadExt(target) - PHI)  # phi is irrational, so side != 0
    first = 2 if side < 0 else 3
    estimate = max(first, _bracket_index(p, q) - 4)
    # walk again from the first near-side convergent only if the estimated start is past t
    for start in (estimate - (estimate - first) % 2, first):
        before = None
        for candidate in itertools.islice(convergents(start), None, None, 2):
            # gap has the sign of ratio - target, over the positive fn_1 * q
            gap = candidate.fn * q - p * candidate.fn_1
            if side * gap < 0:
                break
            before, before_gap = candidate, gap
        if before is not None:
            break
    if before is not None and side * before_gap * candidate.fn_1 <= -side * gap * before.fn_1:
        return before
    return candidate
