"""Reference `sign` and `to_decimal` by interval bisection, used only by tests.

This is the kernel's earlier decision procedure, kept as an oracle that shares
no algorithm with `hexphi.exact`: rational brackets of sqrt(3) and sqrt(5) are
halved until an element's enclosure excludes zero (for `sign`) or both of its
ends render to the same digits (for `to_decimal`).  The brackets are
module-global and only ever tighten, so a deep call makes later calls in the
same process work with longer fractions; that costs time, never correctness.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hexphi.exact import HALF_EVEN, TRUNCATE, QuadExt, as_quadext

_ROUNDING_MODES = (HALF_EVEN, TRUNCATE)


class _RootEnclosure:
    """Monotonically refined rational bracket ``lo < sqrt(n) < hi``.

    Refinement halves the bracket; because ``sqrt(n)`` is irrational the
    midpoint never lands on it and the bracket stays strict.  The tightest
    bracket seen so far is kept, so repeated callers share the work.
    """

    __slots__ = ("_radicand", "_bounds")

    def __init__(self, radicand: int, lo: Fraction, hi: Fraction) -> None:
        self._radicand = radicand
        self._bounds = (lo, hi)

    def refined(self, width: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = self._bounds
        if hi - lo <= width:
            return lo, hi
        while hi - lo > width:
            mid = (lo + hi) / 2
            if mid * mid < self._radicand:
                lo = mid
            else:
                hi = mid
        self._bounds = (lo, hi)
        return lo, hi


_SQRT3_BOUNDS = _RootEnclosure(3, Fraction(1732, 1000), Fraction(1733, 1000))
_SQRT5_BOUNDS = _RootEnclosure(5, Fraction(2236, 1000), Fraction(2237, 1000))


def _enclosure(x: QuadExt, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational interval containing x, with the roots refined to `width`."""
    lo3, hi3 = _SQRT3_BOUNDS.refined(width)
    lo5, hi5 = _SQRT5_BOUNDS.refined(width)
    lo = hi = x.a
    for coeff, clo, chi in (
        (x.b, lo3, hi3),
        (x.c, lo5, hi5),
        (x.d, lo3 * lo5, hi3 * hi5),
    ):
        if coeff >= 0:
            lo += coeff * clo
            hi += coeff * chi
        else:
            lo += coeff * chi
            hi += coeff * clo
    return lo, hi


def sign(value: QuadExt | int | Fraction) -> int:
    """Exact sign (-1, 0, +1).

    Zero is decided structurally from the coefficients; a nonzero irrational
    value is separated from zero by refining the root enclosures.
    """
    x = as_quadext(value)
    if x.is_zero:
        return 0
    if x.is_rational:
        return -1 if x.a < 0 else 1
    width = Fraction(1, 1_000_000)
    while True:
        lo, hi = _enclosure(x, width)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        width /= 1 << 16


def _format_scaled(value: Fraction, frac_digits: int, rounding: str) -> str:
    scaled = value * 10**frac_digits
    if rounding == HALF_EVEN:
        units = round(scaled)
    elif rounding == TRUNCATE:
        units = math.trunc(scaled)
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}; use one of {_ROUNDING_MODES}")
    prefix = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**frac_digits)
    return f"{prefix}{whole}.{frac:0{frac_digits}d}"


def to_decimal(
    value: QuadExt | int | Fraction, frac_digits: int, rounding: str = HALF_EVEN
) -> str:
    """Decimal string with exactly `frac_digits` fractional digits.

    ``half-even`` rounds ties to the even last digit; ``truncate`` drops the
    tail toward zero.  Irrational values are enclosed ever more tightly until
    both interval ends render identically, which settles the rounding without
    ever leaving rational arithmetic.
    """
    if frac_digits < 1:
        raise ValueError("frac_digits must be at least 1")
    if rounding not in _ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}; use one of {_ROUNDING_MODES}")
    x = as_quadext(value)
    if x.is_rational:
        return _format_scaled(x.a, frac_digits, rounding)
    width = Fraction(1, 10 ** (frac_digits + 2))
    while True:
        lo, hi = _enclosure(x, width)
        rendered = _format_scaled(lo, frac_digits, rounding)
        if rendered == _format_scaled(hi, frac_digits, rounding):
            return rendered
        width /= 1 << 16
