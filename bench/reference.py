"""Output checks against references built from the standard library only.

Nothing here imports ``hexphi``: decimals come from ``decimal`` with 20 guard
digits, Fibonacci numbers from an integer recurrence, the nearest convergent
from a brute-force search, and figures from bytes seen before.
"""

from __future__ import annotations

import hashlib
import os
import xml.etree.ElementTree as ElementTree
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from workloads import Op, vertex_key

GUARD_DIGITS = 20


class Mismatch(Exception):
    """The program's output differs from the reference."""


def _expect(label: str, got: str, want: str) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got[:80]!r}, want {want[:80]!r}")


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n-1)) with F(1) = F(2) = 1."""
    prev, cur = 0, 1
    for _ in range(n - 1):
        prev, cur = cur, prev + cur
    return cur, prev


def _decimal(value_of_phi, frac_digits: int, rounding: str) -> str:
    """`value_of_phi(phi)` at `frac_digits` fractional digits, with guard digits."""
    with localcontext() as ctx:
        ctx.prec = frac_digits + GUARD_DIGITS + 1
        phi = (1 + Decimal(5).sqrt()) / 2
        value = value_of_phi(phi)
        return format(value.quantize(Decimal(1).scaleb(-frac_digits), rounding=rounding), "f")


def phi_text(frac_digits: int) -> str:
    return _decimal(lambda phi: phi, frac_digits, ROUND_HALF_EVEN)


def variance_text(fn: int, fn_1: int, frac_digits: int, rounding: str) -> str:
    return _decimal(lambda phi: abs(Decimal(fn) / Decimal(fn_1) - phi), frac_digits, rounding)


def nearest_convergent(target: Fraction) -> int:
    """Index n of the convergent F(n)/F(n-1) nearest to `target`; ties pick smaller n.

    Brute force over n = 2, 3, ...  For target p/q, |p^2 - pq - q^2| >= 1
    gives |target - Phi| = d > 1/(q(p+q)).  Once F(n-1)^2 > 2q(p+q), every
    later convergent lies within d/2 of Phi.  Those on the far side of Phi are
    more than d away; those on the target's side approach Phi monotonically,
    so the first of them is the nearest.  It is n or n+1, where the search stops.
    """
    p, q = target.numerator, target.denominator
    best_n, best_num, best_den = 0, 0, 0
    limit = 2 * q * (p + q)
    n, fn, fn_1 = 2, 1, 1
    stop = None
    while stop is None or n <= stop:
        num, den = abs(fn * q - p * fn_1), fn_1  # distance = num / (den * q)
        if best_n == 0 or num * best_den < best_num * den:
            best_n, best_num, best_den = n, num, den
        if stop is None and fn_1 * fn_1 > limit:
            stop = n + 1
        n, fn, fn_1 = n + 1, fn + fn_1, fn
    return best_n


def _lines(out: str, count: int) -> list[str]:
    lines = out.splitlines()
    if len(lines) != count:
        raise Mismatch(f"expected {count} output lines, got {len(lines)}")
    return lines


def _field(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise Mismatch(f"expected a line starting {prefix!r}, got {line[:80]!r}")
    return line[len(prefix):]


def check_verify(op: Op, out: str) -> None:
    lines = _lines(out, 7)
    q, r, corner = (int(part) for part in _field(lines[0], "vertex = ").split(","))
    if vertex_key(q, r, corner) != vertex_key(*op.vertex):
        raise Mismatch(f"vertex {q},{r},{corner} is not the point {op.vertex}")
    _expect("side", lines[1], f"side = {_fraction_text(op.side)}")
    _expect("segments", lines[2], "segments = 6")
    ratio = phi_text(op.digits)
    _expect("ratio", lines[3], f"ratio = {ratio}")
    n = nearest_convergent(Fraction(ratio))
    fn, fn_1 = _fib_pair(n)
    variance = variance_text(fn, fn_1, op.digits, ROUND_HALF_EVEN)
    _expect(
        "nearest convergent",
        lines[4],
        f"nearest convergent = F({n})/F({n - 1}) = {_fraction_text(Fraction(fn, fn_1))}"
        f", variance = {variance}",
    )
    _expect("verdict", lines[5], "PHI-EXACT: PASS")
    _expect("verdict", lines[6], "EQUAL-LENGTHS: PASS")


def _truncated_ratio(fn: int, fn_1: int, frac_digits: int) -> str:
    whole, frac = divmod(fn * 10**frac_digits // fn_1, 10**frac_digits)
    return f"{whole}.{frac:0{frac_digits}d}"


def check_fib(op: Op, out: str) -> None:
    top = int(op.argv[op.argv.index("--max") + 1])
    lines = _lines(out, top + 2)
    _expect("header", "\n".join(lines[:3]), "# digits = 10\n# rounding = truncate\nn\tF_n\tF_n-1\tratio\tvariance")
    fn, fn_1 = 1, 1
    for n, line in enumerate(lines[3:], start=2):
        want = (
            f"{n}\t{fn}\t{fn_1}\t{_truncated_ratio(fn, fn_1, 10)}"
            f"\t{variance_text(fn, fn_1, 10, ROUND_DOWN)}"
        )
        _expect(f"row {n}", line, want)
        fn, fn_1 = fn + fn_1, fn


def check_assess(op: Op, out: str) -> None:
    target = Fraction(op.argv[op.argv.index("--ratio") + 1])
    lines = _lines(out, 6)
    n = nearest_convergent(target)
    fn, fn_1 = _fib_pair(n)
    ratio = Fraction(fn, fn_1)
    want = [
        f"target = {_fraction_text(target)}",
        f"n = {n}",
        f"ratio = {_fraction_text(ratio)}",
        f"ratio_decimal = {_truncated_ratio(fn, fn_1, 10)}",
        f"distance = {_fraction_text(abs(ratio - target))}",
        f"variance = {variance_text(fn, fn_1, 10, ROUND_DOWN)}",
    ]
    for got, expected in zip(lines, want):
        _expect(expected.split(" = ")[0], got, expected)


class FigureBook:
    """Remembers each figure's first rendering; the default figure must match the golden file."""

    def __init__(self, golden: bytes) -> None:
        self._digests = {0: hashlib.sha256(golden).hexdigest()}

    def check(self, op: Op, out: str) -> None:
        path = op.argv[op.argv.index("--out") + 1]
        with open(path, "rb") as handle:
            svg = handle.read()
        os.remove(path)  # so a later op that writes nothing cannot pass on these bytes
        _expect("render", out, f"wrote {path} ({len(svg.decode('utf-8'))} bytes)\n")
        digest = hashlib.sha256(svg).hexdigest()
        first = self._digests.get(op.figure)
        if first is None:
            try:
                root = ElementTree.fromstring(svg)
            except ElementTree.ParseError as exc:
                raise Mismatch(f"figure {op.figure} is not well-formed XML: {exc}") from None
            _expect("svg root", root.tag, "{http://www.w3.org/2000/svg}svg")
            self._digests[op.figure] = digest
        elif digest != first:
            what = "the golden figure" if op.figure == 0 else "its first rendering"
            raise Mismatch(f"figure {op.figure} differs from {what}")


CHECKS = {"verify": check_verify, "fib": check_fib, "assess": check_assess}
