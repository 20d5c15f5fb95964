"""Exact arithmetic in the real field obtained from the rationals by adjoining
sqrt(3) and sqrt(5).

Every element is stored as ``(a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15)) / den``:
four int numerators over one positive int denominator, with no factor common
to all five (the integer-vector form of Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, section 4.2).  Since
``{1, sqrt3, sqrt5, sqrt15}`` is a basis of the field over the rationals, a
value has exactly one such form, so equality, hashing and zero tests are
structural and tolerance-free, and arithmetic is integer arithmetic plus one
gcd per result.  Sums and differences share one kernel, `_sum`: a difference
is the sum with the second operand's numerators negated, and `_dot` sums two
products, ``x1*y1 + x2*y2``, with one reduction.  When no operand has a
sqrt(5) or sqrt(15) part, as for the construction's points, frame and
directions, a sum, difference, product or `_dot` works on the two Q(sqrt3)
numerators alone and gives the same reduced form.

Two questions cannot be answered coefficient-wise: the sign of an element and
its decimal rendering.  The sign is decided algebraically (Yap, "Towards exact
geometric computation", 1997): splitting off sqrt(5), then sqrt(3), reduces it
to the signs of a few integer polynomials in the numerators, with no
loop and no precision to choose.  A decimal encloses the element between two
rationals built from ``math.isqrt`` of 3, 5 and 15 at a power-of-ten scale
(Brent & Zimmermann, *Modern Computer Arithmetic*, 2010, section 1.5) and
doubles the guard digits until both ends round alike.  `to_decimals` rounds a
stream of values in one pass, in which the values share each power of ten
and each root, by guard; `to_decimal` is its one-value case.  Neither the
sign nor the decimals keep state between calls.

A Python number enters the field only as an int or a Fraction, or as a
``QuadExt`` where an element is expected.  Any other type, a float, a str or
a Decimal, raises ``TypeError`` before anything is parsed: `parse_rational`,
with its digit bounds, is the only parser of literals.  A rational element
hashes as the Fraction it equals.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd

HALF_EVEN = "half-even"
TRUNCATE = "truncate"

_ROUNDING_MODES = (HALF_EVEN, TRUNCATE)

# bound once: the arithmetic methods call it for every result they build
_object_new = object.__new__

# Python converts no int of more than 4300 digits to or from a string
# (sys.int_info.default_max_str_digits): the fraction digits of a decimal are
# printed from one int, and a rational literal is read as two ints
MAX_DIGITS = 4300
_TOO_LONG_TO_PRINT = f"number out of range: it would print with over {MAX_DIGITS} digits"

# an error message repeats at most this many characters of a rejected literal
ECHO_CHARS = 40

# every decimal literal that `Fraction` reads, and some it rejects: sign,
# whole digits, fraction digits, exponent (compiled on first use, not on import)
_DECIMAL_LITERAL = r"[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?\d+(?:_\d+)*))?"


class NotRepresentable(ArithmeticError):
    """A requested square root does not lie in the field."""


class NegativeInput(ValueError):
    """A square root was requested for a negative radicand."""


def _rational(name: str, value: int | Fraction) -> int | Fraction:
    """`value` itself when it is an int or a Fraction; `name` labels the error otherwise."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"{name} must be an int or a Fraction, not {type(value).__name__}")


def positive_rational(name: str, value: int | Fraction) -> int | Fraction:
    """`value`, an int or a Fraction; `name` labels the error for another type or a value <= 0."""
    if _rational(name, value) <= 0:
        raise ValueError(f"{name} must be positive")
    return value


class QuadExt:
    """Field element ``(a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15)) / den``.

    The four numerators are ints over one positive int denominator, reduced
    so that ``gcd(a, b, c, d, den) == 1``.  That form is unique, so ``==`` is
    mathematical equality and the hash is structural.  The ``a`` to ``d``
    properties give each coefficient as a reduced ``Fraction``.  Arithmetic
    closes over the field in ints: sums and differences, reflected ones too,
    go through the one kernel `_sum` (Henrici's reduced sum); a product is 16
    integer products and one gcd, or 4 and a gcd of three ints when both
    factors lie in Q(sqrt3) (``c == d == 0``), and the inverse has a closed
    form (see `inverse`).
    """

    __slots__ = ("_num", "_den")

    def __init__(
        self,
        a: int | Fraction = 0,
        b: int | Fraction = 0,
        c: int | Fraction = 0,
        d: int | Fraction = 0,
    ) -> None:
        coeffs = [_rational("a coefficient", value) for value in (a, b, c, d)]
        # over the lcm of reduced denominators the form is already reduced
        den = math.lcm(*(coeff.denominator for coeff in coeffs))
        self._num = tuple(coeff.numerator * (den // coeff.denominator) for coeff in coeffs)
        self._den = den

    @property
    def a(self) -> Fraction:
        return Fraction(self._num[0], self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._num[1], self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._num[2], self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._num[3], self._den)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    @property
    def is_rational(self) -> bool:
        _, b, c, d = self._num
        return not (b or c or d)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        terms = []
        for coeff, suffix in (
            (self.a, ""),
            (self.b, "*sqrt3"),
            (self.c, "*sqrt5"),
            (self.d, "*sqrt15"),
        ):
            if coeff:
                terms.append(f"{coeff}{suffix}")
        return " + ".join(terms) if terms else "0"

    def __hash__(self) -> int:
        # a rational value equals Fraction(a, den), so it hashes as that Fraction
        a, b, c, d = self._num
        if b or c or d:
            return hash((self._num, self._den))
        return hash(Fraction(a, self._den))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self._den == other.denominator and self._num == (other.numerator, 0, 0, 0)
        return NotImplemented

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> QuadExt:
        a, b, c, d = self._num
        return _new((-a, -b, -c, -d), self._den)

    def __pos__(self) -> QuadExt:
        return self

    def __abs__(self) -> QuadExt:
        return -self if sign(self) < 0 else self

    def __add__(self, other: QuadExt | int | Fraction) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = _as_quadext(other)
            if other is None:
                return NotImplemented
        return _sum(self._num, self._den, other._num, other._den)

    __radd__ = __add__

    def __sub__(self, other: QuadExt | int | Fraction) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = _as_quadext(other)
            if other is None:
                return NotImplemented
        a, b, c, d = other._num
        return _sum(self._num, self._den, (-a, -b, -c, -d), other._den)

    def __rsub__(self, other: QuadExt | int | Fraction) -> QuadExt:
        o = _as_quadext(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._num
        return _sum(o._num, o._den, (-a, -b, -c, -d), self._den)

    def __mul__(self, other: QuadExt | int | Fraction) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = _as_quadext(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1 = self._num
        a2, b2, c2, d2 = other._num
        den = self._den * other._den
        x = _object_new(QuadExt)
        if c1 or d1 or c2 or d2:
            a = a1 * a2 + 3 * b1 * b2 + 5 * c1 * c2 + 15 * d1 * d2
            b = a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2)
            c = a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2)
            d = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
            g = gcd(den, a, b, c, d)
            if g != 1:
                a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
            x._num = (a, b, c, d)
        else:  # both in Q(sqrt3): (a1 + b1*sqrt3)(a2 + b2*sqrt3)
            a = a1 * a2 + 3 * b1 * b2
            b = a1 * b2 + b1 * a2
            g = gcd(den, a, b)
            if g != 1:
                a, b, den = a // g, b // g, den // g
            x._num = (a, b, 0, 0)
        x._den = den
        return x

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

    def inverse(self) -> QuadExt:
        """Multiplicative inverse in closed form.

        Write the numerator as ``p + q*sqrt3`` with ``p = a + c*sqrt5`` and
        ``q = b + d*sqrt5``.  Its product with the conjugate ``p - q*sqrt3``
        is ``u + v*sqrt5 = p*p - 3*q*q``, and ``(u + v*sqrt5)(u - v*sqrt5)``
        is the integer norm ``N = u*u - 5*v*v``, nonzero for a nonzero value.
        The inverse is therefore ``den * (p - q*sqrt3) * (u - v*sqrt5) / N``.
        """
        a, b, c, d = self._num
        if not (a or b or c or d):
            raise ZeroDivisionError("inverse of zero field element")
        u = a * a - 3 * b * b + 5 * c * c - 15 * d * d
        v = 2 * (a * c - 3 * b * d)
        norm = u * u - 5 * v * v
        scale = self._den if norm > 0 else -self._den
        return _reduced(
            scale * (a * u - 5 * c * v),
            scale * (5 * d * v - b * u),
            scale * (c * u - a * v),
            scale * (b * v - d * u),
            abs(norm),
        )

    def to_json(self) -> dict[str, str]:
        """Coefficients as canonical ``p/q`` strings plus a 12-digit decimal."""
        return {
            "a": format_fraction(self.a),
            "b": format_fraction(self.b),
            "c": format_fraction(self.c),
            "d": format_fraction(self.d),
            "decimal": to_decimal(self, 12),
        }


def _sum(n1: tuple[int, int, int, int], e1: int, n2: tuple[int, int, int, int], e2: int) -> QuadExt:
    """The sum of the reduced forms ``n1 / e1`` and ``n2 / e2``, with Henrici's
    reduction; a difference is the sum with ``n2`` negated.

    With ``g = gcd(e1, e2)`` of the two denominators, the sum is
    ``t / (e1*e2/g)`` for ``t = n1*(e2/g) + n2*(e1/g)``.  A prime that
    divides ``e1/g`` or ``e2/g`` cannot divide all of t, since each term is
    reduced, so the common factor of the sum is ``gcd(g, t)``: 1 when the
    denominators are coprime.  `fractions` adds two ``Fraction`` values the
    same way.  When both terms lie in Q(sqrt3), only the first two
    numerators of t are computed.
    """
    a1, b1, c1, d1 = n1
    a2, b2, c2, d2 = n2
    g = gcd(e1, e2)
    s = e1 // g
    t = e2 // g
    den = s * e2
    x = _object_new(QuadExt)
    if c1 or d1 or c2 or d2:
        a, b, c, d = a1 * t + a2 * s, b1 * t + b2 * s, c1 * t + c2 * s, d1 * t + d2 * s
        if g != 1:
            g = gcd(g, a, b, c, d)  # math.gcd stops at the first 1
            if g != 1:
                a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
        x._num = (a, b, c, d)
    else:  # both in Q(sqrt3)
        a, b = a1 * t + a2 * s, b1 * t + b2 * s
        if g != 1:
            g = gcd(g, a, b)
            if g != 1:
                a, b, den = a // g, b // g, den // g
        x._num = (a, b, 0, 0)
    x._den = den
    return x


def _dot(x1: QuadExt, y1: QuadExt, x2: QuadExt, y2: QuadExt) -> QuadExt:
    """``x1*y1 + x2*y2``: in Q(sqrt3), the two unreduced products summed as in
    `_sum`, then one gcd of the denominator and both numerators, since an
    unreduced term may share any factor with it; otherwise two products and a sum."""
    a1, b1, c1, d1 = x1._num
    a2, b2, c2, d2 = y1._num
    a3, b3, c3, d3 = x2._num
    a4, b4, c4, d4 = y2._num
    if c1 or d1 or c2 or d2 or c3 or d3 or c4 or d4:
        return x1 * y1 + x2 * y2
    e1 = x1._den * y1._den
    e2 = x2._den * y2._den
    g = gcd(e1, e2)
    s = e1 // g
    t = e2 // g
    den = s * e2
    a = (a1 * a2 + 3 * b1 * b2) * t + (a3 * a4 + 3 * b3 * b4) * s
    b = (a1 * b2 + b1 * a2) * t + (a3 * b4 + b3 * a4) * s
    g = gcd(den, a, b)
    if g != 1:
        a, b, den = a // g, b // g, den // g
    return _new((a, b, 0, 0), den)


def _new(num: tuple[int, int, int, int], den: int) -> QuadExt:
    """The element ``num / den``; the caller guarantees the reduced form."""
    x = _object_new(QuadExt)
    x._num = num
    x._den = den
    return x


def _reduced(a: int, b: int, c: int, d: int, den: int) -> QuadExt:
    """``(a, b, c, d) / den`` for ``den > 0``, divided by the common gcd."""
    g = gcd(den, a, b, c, d)
    if g == 1:
        return _new((a, b, c, d), den)
    return _new((a // g, b // g, c // g, d // g), den // g)


def _as_quadext(value: object) -> QuadExt | None:
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, (int, Fraction)):
        return _new((value.numerator, 0, 0, 0), value.denominator)
    return None


def as_quadext(value: QuadExt | int | Fraction) -> QuadExt:
    """Coerce an int or Fraction to a field element; floats are rejected."""
    if value.__class__ is QuadExt:
        return value
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
    The integer numerators stand in for the coefficients, since the common
    denominator is positive.
    """
    a, b, c, d = as_quadext(value)._num
    sp = _sign_sqrt3(a, b)
    sq = _sign_sqrt3(c, d)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    return sp * _sign_sqrt3(a * a + 3 * b * b - 5 * c * c - 15 * d * d, 2 * (a * b - 5 * c * d))


def sqrt_exact(radicand: QuadExt | int | Fraction) -> QuadExt:
    """Exact square root of a nonnegative rational, if it lies in the field.

    The representable radicands are exactly ``s**2``, ``3*s**2``, ``5*s**2``
    and ``15*s**2`` for rational ``s``; anything else, irrational field
    elements too, raises ``NotRepresentable``; a negative, ``NegativeInput``.

    For ``n/d`` in lowest terms, ``sqrt(n/d) = sqrt(n*d) / d``, and the root
    lies in the field exactly when ``n*d = k * s**2`` for an integer s and
    one of ``k = 1, 3, 5, 15``; the root is then ``s*sqrt(k) / d``.  That is
    one product and at most four integer square roots.
    """
    x = as_quadext(radicand)
    if not x.is_rational:
        raise NotRepresentable("square root of an irrational field element is unsupported")
    n, d = x._num[0], x._den  # in lowest terms, as the reduced form is
    if n < 0:
        raise NegativeInput("square root of a negative rational")
    nd = n * d
    for position, k in enumerate((1, 3, 5, 15)):
        quotient, rest = divmod(nd, k)
        if not rest:
            s = math.isqrt(quotient)
            if s * s == quotient:
                num = [0, 0, 0, 0]
                num[position] = s  # the coefficient of sqrt(k)
                return _reduced(*num, d)
    raise NotRepresentable(f"sqrt({Fraction(n, d)}) lies outside the field")


def _rounded(num: int, den: int, rounding: str) -> int:
    """``num / den`` for ``den > 0``, rounded half-even or truncated toward zero."""
    units, rest = divmod(num, den)  # floor
    if rounding == HALF_EVEN:
        if 2 * rest > den or (2 * rest == den and units & 1):
            units += 1
    elif rest and units < 0:
        units += 1
    return units


def _format_units(units: int, frac_digits: int) -> str:
    prefix = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**frac_digits)
    try:  # zfill, not a nested format spec, which costs more than the division
        return f"{prefix}{whole}.{str(frac).zfill(frac_digits)}"
    except ValueError:  # str(int) past MAX_DIGITS digits; no size test on the common path
        raise ValueError(_TOO_LONG_TO_PRINT) from None


def to_decimal(
    value: QuadExt | int | Fraction, frac_digits: int, rounding: str = HALF_EVEN
) -> str:
    """Decimal string with exactly `frac_digits` fractional digits: the one
    value of `to_decimals`."""
    # unpacked rather than taken with next(): the stream then runs to its
    # end, and is not closed later from inside its loop, which costs more
    (text,) = to_decimals((value,), frac_digits, rounding)
    return text


def to_decimals(
    values: Iterable[QuadExt | int | Fraction], frac_digits: int, rounding: str = HALF_EVEN
) -> Iterator[str]:
    """Each value's decimal string with exactly `frac_digits` fractional
    digits, in turn: a lazy stream that reads one value per string it yields.

    ``half-even`` rounds ties to the even last digit; ``truncate`` drops the
    tail toward zero.  An irrational value times ``10**(frac_digits + guard)``
    is enclosed between two rationals built from the integer square roots of
    3, 5 and 15 at that scale; the guard digits double until both ends round
    to the same digits, which then are the value's own.  The first guard is 8
    more than the whole digits of the largest irrational coefficient, so the
    enclosure is under 3e-8 units wide and settles in one try unless the
    value lies that close to a rounding boundary.

    A value's digits depend on that value alone.  Within one call, the values
    share each power of ten by guard and each integer root by (radicand,
    guard): a root is computed the first time a value needs it, and nothing
    is kept once the stream is dropped.  A bad `frac_digits` or `rounding`
    raises here; a value that is not a field element, when it is read.
    """
    if frac_digits < 1:
        raise ValueError("frac_digits must be at least 1")
    if rounding not in _ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}; use one of {_ROUNDING_MODES}")
    return _decimals(values, frac_digits, rounding)


def _decimals(
    values: Iterable[QuadExt | int | Fraction], frac_digits: int, rounding: str
) -> Iterator[str]:
    """The stream `to_decimals` returns, for arguments it has checked."""
    one = 10**frac_digits
    scales: dict[int, tuple[int, int]] = {}  # guard -> (10**guard, one * 10**guard)
    roots: dict[tuple[int, int], int] = {}  # (radicand, guard) -> root at that scale
    for value in values:
        x = as_quadext(value)
        a, b, c, d = x._num
        den = x._den
        if not (b or c or d):
            yield _format_units(_rounded(a * one, den, rounding), frac_digits)
            continue
        # max(|b|, |c|, |d|) / den < 2**whole_bits, and 31/100 > log10(2)
        whole_bits = max(abs(b), abs(c), abs(d)).bit_length() - den.bit_length() + 1
        guard = 8 + max(0, -(-whole_bits * 31 // 100))
        while True:
            powers = scales.get(guard)
            if powers is None:
                unit = 10**guard
                powers = scales[guard] = (unit, one * unit)
            unit, scale = powers
            lo = hi = a * scale
            for coeff, radicand in ((b, 3), (c, 5), (d, 15)):
                if not coeff:
                    continue
                # root < sqrt(radicand) * scale < root + 1, strictly: the root is irrational
                root = roots.get((radicand, guard))
                if root is None:
                    root = roots[radicand, guard] = math.isqrt(radicand * scale * scale)
                lo += coeff * (root if coeff >= 0 else root + 1)
                hi += coeff * (root + 1 if coeff >= 0 else root)
            units = _rounded(lo, den * unit, rounding)
            if units == _rounded(hi, den * unit, rounding):
                yield _format_units(units, frac_digits)
                break
            guard *= 2


def format_fraction(value: Fraction) -> str:
    """Canonical ``p/q`` rendering (q positive, lowest terms)."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # str(int) past MAX_DIGITS digits; no size test on the common path
        raise ValueError(_TOO_LONG_TO_PRINT) from None


def quoted(text: str) -> str:
    """`text` as an error message repeats it: a longer literal than `ECHO_CHARS` is cut."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


def _check_literal_size(num_digits: int, den_digits: int) -> None:
    if num_digits > MAX_DIGITS or den_digits > MAX_DIGITS:
        raise ValueError(
            "rational literal out of range: its numerator and denominator"
            f" may have at most {MAX_DIGITS} digits each"
        )


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a finite decimal; both ``.`` and ``,`` separate decimals.

    A literal whose numerator or denominator would have more than
    `MAX_DIGITS` digits raises ``ValueError``; that is read off its
    characters, before any int is built.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        _check_literal_size(sum(map(str.isdigit, num)), sum(map(str.isdigit, den)))
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {quoted(text)}") from None
        except ValueError:  # not an int on one side: int()'s message repeats it uncut
            raise ValueError(f"not a rational literal: {quoted(text)}") from None
    s = s.replace(",", ".", 1)
    match = re.fullmatch(_DECIMAL_LITERAL, s)
    if match is not None:
        whole, frac, exponent = (group.replace("_", "") for group in match.groups(""))
        magnitude = exponent.lstrip("+-").lstrip("0")
        if len(magnitude) > len(str(MAX_DIGITS)):
            # |exponent| > MAX_DIGITS: 10**|exponent| alone is too long
            _check_literal_size(MAX_DIGITS + 1, 0)
        shift = int(magnitude or 0) * (-1 if exponent.startswith("-") else 1) - len(frac)
        # the value is int(whole + frac) * 10**shift
        _check_literal_size(len(whole) + len(frac) + max(shift, 0), 1 + max(-shift, 0))
    try:
        return Fraction(s)
    except ValueError:
        raise ValueError(f"not a rational literal: {quoted(text)}") from None
