"""The field kernel as it was before its integer rewrite, used only by tests.

`QuadExt` here keeps each of the four coefficients of
``a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15)`` as its own ``Fraction``, so every
operation is plain rational arithmetic coefficient by coefficient, and
`inverse` is the product of the three conjugates over the norm.  `sign` and
`to_decimal` read the coefficients through the same ``Fraction`` properties.
`hexphi.exact` stores four ints over one shared denominator instead; the
tests compare the two on random elements.  `assess_nearest` is the
nearest-convergent search as it was written against this kernel: three field
subtractions and an ``abs`` per step.  `sqrt_exact` is the square-root search
of that kernel: a ``Fraction`` division and rational square root for each of
the radicands 1, 3, 5 and 15.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hexphi.exact import (
    HALF_EVEN,
    TRUNCATE,
    NegativeInput,
    NotRepresentable,
    format_fraction,
    parse_rational,
)
from hexphi.fibonacci import Convergent

_ROUNDING_MODES = (HALF_EVEN, TRUNCATE)


def _fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not exact; pass Fraction or int")
    return Fraction(value)


class QuadExt:
    """Field element ``a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15)``.

    Coefficients are ``Fraction`` values and the representation is unique, so
    ``==`` is mathematical equality.  Arithmetic closes over the field;
    division uses the conjugate product, staying exact.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(
        self,
        a: int | Fraction = 0,
        b: int | Fraction = 0,
        c: int | Fraction = 0,
        d: int | Fraction = 0,
    ) -> None:
        self._a = _fraction(a)
        self._b = _fraction(b)
        self._c = _fraction(c)
        self._d = _fraction(d)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def c(self) -> Fraction:
        return self._c

    @property
    def d(self) -> Fraction:
        return self._d

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    @property
    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    def __repr__(self) -> str:
        return f"QuadExt({self._a!r}, {self._b!r}, {self._c!r}, {self._d!r})"

    def __str__(self) -> str:
        terms = []
        for coeff, suffix in (
            (self._a, ""),
            (self._b, "*sqrt3"),
            (self._c, "*sqrt5"),
            (self._d, "*sqrt15"),
        ):
            if coeff:
                terms.append(f"{coeff}{suffix}")
        return " + ".join(terms) if terms else "0"

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self._a)
        return hash((self._a, self._b, self._c, self._d))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return (
                self._a == other._a
                and self._b == other._b
                and self._c == other._c
                and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self._a == other
        return NotImplemented

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> QuadExt:
        return QuadExt(-self._a, -self._b, -self._c, -self._d)

    def __pos__(self) -> QuadExt:
        return self

    def __abs__(self) -> QuadExt:
        return -self if sign(self) < 0 else self

    def __add__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a + o._a, self._b + o._b, self._c + o._c, self._d + o._d)

    __radd__ = __add__

    def __sub__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        return QuadExt(self._a - o._a, self._b - o._b, self._c - o._c, self._d - o._d)

    def __rsub__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        return QuadExt(
            a1 * a2 + 3 * b1 * b2 + 5 * c1 * c2 + 15 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __lt__(self, other: QuadExt | int | Fraction) -> bool:
        return sign(self - other) < 0

    def __le__(self, other: QuadExt | int | Fraction) -> bool:
        return sign(self - other) <= 0

    def __gt__(self, other: QuadExt | int | Fraction) -> bool:
        return sign(self - other) > 0

    def __ge__(self, other: QuadExt | int | Fraction) -> bool:
        return sign(self - other) >= 0

    def conj_sqrt3(self) -> QuadExt:
        """Image under the automorphism sending sqrt(3) to -sqrt(3)."""
        return QuadExt(self._a, -self._b, self._c, -self._d)

    def conj_sqrt5(self) -> QuadExt:
        """Image under the automorphism sending sqrt(5) to -sqrt(5)."""
        return QuadExt(self._a, self._b, -self._c, -self._d)

    def inverse(self) -> QuadExt:
        """Multiplicative inverse via the product of the three conjugates.

        ``x * conj3(x) * conj5(x) * conj3(conj5(x))`` is rational (the field
        norm), so the inverse is that conjugate product over the norm.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        partial = self.conj_sqrt3() * self.conj_sqrt5() * self.conj_sqrt3().conj_sqrt5()
        norm = self * partial
        # the norm is rational by construction
        scale = 1 / norm._a
        return QuadExt(
            partial._a * scale, partial._b * scale, partial._c * scale, partial._d * scale
        )

    def to_json(self) -> dict[str, str]:
        """Coefficients as canonical ``p/q`` strings plus a 12-digit decimal."""
        return {
            "a": format_fraction(self._a),
            "b": format_fraction(self._b),
            "c": format_fraction(self._c),
            "d": format_fraction(self._d),
            "decimal": to_decimal(self, 12),
        }


def _as_quadext(value: object) -> QuadExt | None:
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadExt(value)
    return None


def as_quadext(value: QuadExt | int | Fraction) -> QuadExt:
    """Coerce an int or Fraction to a field element; floats are rejected."""
    x = _as_quadext(value)
    if x is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a field element")
    return x


ZERO = QuadExt()
ONE = QuadExt(1)
SQRT3 = QuadExt(0, 1)
SQRT5 = QuadExt(0, 0, 1)
SQRT15 = QuadExt(0, 0, 0, 1)

#: The golden ratio (1 + sqrt5)/2, satisfying PHI**2 == PHI + 1 exactly.
PHI = QuadExt(Fraction(1, 2), 0, Fraction(1, 2))


def _integer_form(x: QuadExt) -> tuple[int, int, int, int, int]:
    """``(den, a, b, c, d)`` with integers, ``den > 0`` and
    ``x == (a + b*sqrt3 + c*sqrt5 + d*sqrt15) / den``."""
    den = math.lcm(x.a.denominator, x.b.denominator, x.c.denominator, x.d.denominator)
    return (
        den,
        x.a.numerator * (den // x.a.denominator),
        x.b.numerator * (den // x.b.denominator),
        x.c.numerator * (den // x.c.denominator),
        x.d.numerator * (den // x.d.denominator),
    )


def _sign_sqrt3(a: int, b: int) -> int:
    """Sign of ``a + b*sqrt3`` for integers a and b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # opposite signs: a - b*sqrt3 has the sign of a, and the product of the
    # two is a*a - 3*b*b, a nonzero integer because sqrt3 is irrational
    return sa if a * a > 3 * b * b else -sa


def sign(value: QuadExt | int | Fraction) -> int:
    """Exact sign (-1, 0, +1), decided algebraically.

    Write the value as ``p + q*sqrt5`` with ``p = a + b*sqrt3`` and
    ``q = c + d*sqrt3``.  When p and q do not have opposite signs the answer
    is immediate; otherwise it is ``sign(p) * sign(p*p - 5*q*q)``, and
    ``p*p - 5*q*q`` lies in Q(sqrt3).  Each sign in Q(sqrt3) is settled the
    same way over the rationals, so no approximation of a root is needed.
    """
    _, a, b, c, d = _integer_form(as_quadext(value))
    sp = _sign_sqrt3(a, b)
    sq = _sign_sqrt3(c, d)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    return sp * _sign_sqrt3(a * a + 3 * b * b - 5 * c * c - 15 * d * d, 2 * (a * b - 5 * c * d))


def _rational_sqrt(value: Fraction) -> Fraction | None:
    num = math.isqrt(value.numerator)
    if num * num != value.numerator:
        return None
    den = math.isqrt(value.denominator)
    if den * den != value.denominator:
        return None
    return Fraction(num, den)


def sqrt_exact(radicand: int | Fraction) -> QuadExt:
    """Exact square root of a nonnegative rational, if it lies in the field.

    The representable radicands are exactly ``s**2``, ``3*s**2``, ``5*s**2``
    and ``15*s**2`` for rational ``s``; anything else raises
    ``NotRepresentable``.  Negative input raises ``NegativeInput``.
    """
    r = _fraction(radicand)
    if r < 0:
        raise NegativeInput("square root of a negative rational")
    if r == 0:
        return ZERO
    for divisor, unit in ((1, ONE), (3, SQRT3), (5, SQRT5), (15, SQRT15)):
        root = _rational_sqrt(r / divisor)
        if root is not None:
            return unit * root
    raise NotRepresentable(f"sqrt({r}) lies outside the field")


def _rounded(scaled: Fraction, rounding: str) -> int:
    return round(scaled) if rounding == HALF_EVEN else math.trunc(scaled)


def _format_units(units: int, frac_digits: int) -> str:
    prefix = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**frac_digits)
    return f"{prefix}{whole}.{frac:0{frac_digits}d}"


def to_decimal(
    value: QuadExt | int | Fraction, frac_digits: int, rounding: str = HALF_EVEN
) -> str:
    """Decimal string with exactly `frac_digits` fractional digits.

    ``half-even`` rounds ties to the even last digit; ``truncate`` drops the
    tail toward zero.  An irrational value times ``10**(frac_digits + guard)``
    is enclosed between two rationals built from the integer square roots of
    3, 5 and 15 at that scale; the guard digits double until both ends round
    to the same digits, which then are the value's own.
    """
    if frac_digits < 1:
        raise ValueError("frac_digits must be at least 1")
    if rounding not in _ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}; use one of {_ROUNDING_MODES}")
    x = as_quadext(value)
    if x.is_rational:
        return _format_units(_rounded(x.a * 10**frac_digits, rounding), frac_digits)
    den, a, b, c, d = _integer_form(x)
    guard = 8  # settles every coordinate of a rendered figure in one try
    while True:
        scale = 10 ** (frac_digits + guard)
        lo = hi = a * scale
        for coeff, radicand in ((b, 3), (c, 5), (d, 15)):
            # root < sqrt(radicand) * scale < root + 1, strictly: the root is irrational
            root = math.isqrt(radicand * scale * scale)
            lo += coeff * (root if coeff >= 0 else root + 1)
            hi += coeff * (root + 1 if coeff >= 0 else root)
        units = _rounded(Fraction(lo, den * 10**guard), rounding)
        if units == _rounded(Fraction(hi, den * 10**guard), rounding):
            return _format_units(units, frac_digits)
        guard *= 2


def assess_nearest(value: str | Fraction | int) -> Convergent:
    """The convergent whose ratio is closest to `value`; ties pick smaller n."""
    target = parse_rational(value) if isinstance(value, str) else Fraction(value)
    if target <= 0:
        raise ValueError("ratio must be positive")
    phi_gap = abs(QuadExt(target) - PHI)
    best: Convergent | None = None
    best_distance: Fraction | None = None
    n = 2
    prev, cur = 1, 1
    while True:
        candidate = Convergent(n, cur, prev)
        distance = abs(candidate.ratio - target)
        if best_distance is None or distance < best_distance:
            best, best_distance = candidate, distance
        variance = abs(QuadExt(candidate.ratio) - PHI)
        if sign(phi_gap - variance - best_distance) > 0:
            return best
        n += 1
        prev, cur = cur, prev + cur
