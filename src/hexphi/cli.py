"""Command-line front end.

Subcommands: ``verify`` (golden-section check at one vertex), ``scan``
(the same check at every vertex of a patch), ``fib`` (convergent table),
``assess`` (nearest convergent to a given ratio) and ``render`` (SVG
figure).  Exit codes: 0 success or verified, 1 verification failed,
2 usage or parse error, 3 output could not be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from fractions import Fraction

from .construction import build_cluster, make_report, verify_phi
from .exact import (
    ECHO_CHARS, HALF_EVEN, MAX_DIGITS, PHI, TRUNCATE, format_fraction, parse_rational, quoted,
    to_decimal,
)
from .fibonacci import assess_nearest, convergents
from .render import render_svg
from .tessellation import HexIndex, VertexRef, enumerate_vertices

# decimals always print with "."; parse_rational additionally accepts ","
DECIMAL_SEPARATOR = "."

# the largest n with F(n) < 10**MAX_DIGITS, so every fib row prints in full
MAX_FIB_INDEX = 20577

# the largest patch a scan takes: 6 * (MAX_SCAN_RADIUS + 1)**2 = 61,206 vertices
MAX_SCAN_RADIUS = 100


def _vertex_arg(text: str) -> VertexRef:
    try:
        return VertexRef.from_string(text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_rational_arg(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {quoted(text)}")
    return value


def _int_at_least(minimum: int, maximum: int):
    def parse(text: str) -> int:
        shown = quoted(text)
        try:
            value = int(text, 10)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer, got {shown}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {shown}")
        if value > maximum:
            raise argparse.ArgumentTypeError(
                f"expected an integer from {minimum} to {maximum}, got {shown}"
            )
        return value

    return parse


class _Misuse(Exception):
    """A usage error that `_Parser.parse_args` reports once its long tokens are cut."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but its own messages cut each argv token longer than `ECHO_CHARS`,
    whole or its part after "=" or a short flag, raw or as a repr, as `quoted` does."""

    def parse_args(self, args=None, namespace=None):
        try:
            return super().parse_args(args, namespace)
        except _Misuse as exc:  # from this parser or a subparser, which is of this class too
            parser, message = exc.args
            for token in sorted(sys.argv[1:] if args is None else args, key=len, reverse=True):
                for part in (token, token.partition("=")[2], token[2:]):
                    if len(part) > ECHO_CHARS:
                        message = message.replace(repr(part), quoted(part))
                        message = message.replace(part, quoted(part))
            argparse.ArgumentParser.error(parser, message)

    def error(self, message):
        raise _Misuse(self, message)


def _print_json(payload: dict) -> None:
    import json  # imported here: only --json output needs it, and it costs every start-up

    print(json.dumps(payload, indent=2))


def _cmd_verify(args: argparse.Namespace) -> int:
    report = make_report(build_cluster(args.vertex, args.side))
    ok = report.phi_exact_ok and report.equal_lengths_ok
    # the decimal ratio and its nearest Fibonacci convergent are reported
    # only when the golden identity holds, because only then is the ratio phi
    ratio_decimal = nearest = None
    if report.phi_exact_ok:
        ratio_decimal = to_decimal(PHI, args.digits)
        # at 4300 digits the decimal's numerator has 4301, more than
        # parse_rational accepts from a user; Fraction reads it in two parts
        nearest = assess_nearest(Fraction(ratio_decimal))
    if args.json:
        payload = report.to_json()
        payload["ratio_decimal"] = ratio_decimal
        payload["fibonacci"] = None if nearest is None else {
            "n": nearest.n,
            "ratio": format_fraction(nearest.ratio),
            "variance": nearest.variance_decimal(args.digits),
        }
        _print_json(payload)
        return 0 if ok else 1
    print(f"vertex = {report.cluster.vertex}")
    print(f"side = {format_fraction(report.cluster.side)}")
    print(f"segments = {len(report.segments)}")
    if not report.phi_exact_ok:  # make_report already decided; name the failing segments
        for segment in report.segments:
            ab_ok, ao_ok = verify_phi(segment)
            if not ab_ok:
                print(f"segment {segment.k}: |AB|^2 == Phi^2 * |AO|^2 fails")
            if not ao_ok:
                print(f"segment {segment.k}: |AO|^2 == Phi^2 * |OB|^2 fails")
    if not report.equal_lengths_ok:
        distinct = len({segment.ab2 for segment in report.segments})
        print(f"segments have {distinct} distinct |AB|^2 values")
    if nearest is not None:
        print(f"ratio = {ratio_decimal}")
        print(
            f"nearest convergent = F({nearest.n})/F({nearest.n - 1})"
            f" = {format_fraction(nearest.ratio)}"
            f", variance = {nearest.variance_decimal(args.digits)}"
        )
    print(f"PHI-EXACT: {'PASS' if report.phi_exact_ok else 'FAIL'}")
    print(f"EQUAL-LENGTHS: {'PASS' if report.equal_lengths_ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    vertices = enumerate_vertices(args.radius)
    failures = []
    results = []
    for vertex in vertices:
        report = make_report(build_cluster(vertex, args.side))
        ok = report.phi_exact_ok and report.equal_lengths_ok
        results.append((vertex, ok))
        if not ok:
            failures.append(vertex)
    if args.json:
        _print_json(
            {
                "radius": args.radius,
                "side": format_fraction(args.side),
                "decimal_separator": DECIMAL_SEPARATOR,
                "vertices": [{"vertex": str(v), "ok": ok} for v, ok in results],
                "total": len(results),
                "failures": [str(v) for v in failures],
                "all_ok": not failures,
            }
        )
    else:
        for vertex, ok in results:
            print(f"{vertex} {'PASS' if ok else 'FAIL'}")
        print(f"vertices = {len(results)}")
        print(f"failures = {len(failures)}")
        print(f"SCAN: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def _cmd_fib(args: argparse.Namespace) -> int:
    rows = itertools.islice(convergents(), args.max - 1)
    if args.json:
        _print_json(
            {
                "digits": args.digits,
                "rounding": args.rounding,
                "decimal_separator": DECIMAL_SEPARATOR,
                "rows": [
                    {
                        "n": row.n,
                        "fn": row.fn,
                        "fn_1": row.fn_1,
                        "ratio": row.ratio_decimal(args.digits, args.rounding),
                        "variance": row.variance_decimal(args.digits, args.rounding),
                    }
                    for row in rows
                ],
            }
        )
        return 0
    print(f"# digits = {args.digits}")
    print(f"# rounding = {args.rounding}")
    print("n\tF_n\tF_n-1\tratio\tvariance")
    # rows print as they are made, and each F(n) becomes a string once: as
    # this row's F_n and the next row's F_n-1 (the first row's is F(1) = 1)
    fn_1 = "1"
    for row in rows:
        fn = str(row.fn)
        ratio = row.ratio_decimal(args.digits, args.rounding)
        var = row.variance_decimal(args.digits, args.rounding)
        print(f"{row.n}\t{fn}\t{fn_1}\t{ratio}\t{var}")
        fn_1 = fn
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    nearest = assess_nearest(args.ratio)
    distance = abs(nearest.ratio - args.ratio)
    if max(distance.numerator, distance.denominator) >= 10**MAX_DIGITS:
        raise ValueError(
            f"distance out of range: its numerator or denominator has over {MAX_DIGITS} digits"
        )
    lines = [
        f"target = {format_fraction(args.ratio)}",
        f"n = {nearest.n}",
        f"ratio = {format_fraction(nearest.ratio)}",
        f"ratio_decimal = {nearest.ratio_decimal(10, TRUNCATE)}",
        f"distance = {format_fraction(distance)}",
        f"variance = {nearest.variance_decimal(10, TRUNCATE)}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    svg = render_svg(make_report(build_cluster(args.vertex, args.side)))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out} ({len(svg)} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hexphi",
        description="Exact golden-section checks on tangent segments of hexagon circle clusters.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_vertex(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--vertex",
            type=_vertex_arg,
            default=VertexRef(HexIndex(0, 0), 0),
            metavar="Q,R,C",
            help="tessellation vertex as hexagon q,r and corner c (default 0,0,0)",
        )

    def add_side(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--side",
            type=_positive_rational_arg,
            default=Fraction(1),
            metavar="P/Q",
            help="hexagon side length, a positive rational (default 1)",
        )

    verify = subparsers.add_parser("verify", help="check one vertex exactly")
    add_vertex(verify)
    add_side(verify)
    verify.add_argument("--digits", type=_int_at_least(1, MAX_DIGITS), default=10, metavar="D")
    verify.add_argument("--json", action="store_true", help="emit the full report as JSON")
    verify.set_defaults(handler=_cmd_verify)

    scan = subparsers.add_parser("scan", help="check every vertex of a hexagonal patch")
    scan.add_argument(
        "--radius", type=_int_at_least(0, MAX_SCAN_RADIUS), required=True, metavar="N"
    )
    add_side(scan)
    scan.add_argument("--json", action="store_true")
    scan.set_defaults(handler=_cmd_scan)

    fib = subparsers.add_parser("fib", help="Fibonacci convergent table with variances")
    fib.add_argument("--max", type=_int_at_least(2, MAX_FIB_INDEX), required=True, metavar="N")
    fib.add_argument("--digits", type=_int_at_least(1, MAX_DIGITS), default=10, metavar="D")
    fib.add_argument("--rounding", choices=(TRUNCATE, HALF_EVEN), default=TRUNCATE)
    fib.add_argument("--json", action="store_true")
    fib.set_defaults(handler=_cmd_fib)

    assess = subparsers.add_parser("assess", help="nearest convergent to a given ratio")
    assess.add_argument("--ratio", type=_positive_rational_arg, required=True, metavar="X")
    assess.set_defaults(handler=_cmd_assess)

    render = subparsers.add_parser("render", help="write the construction as an SVG figure")
    render.add_argument("--out", required=True, metavar="FILE")
    add_vertex(render)
    add_side(render)
    render.set_defaults(handler=_cmd_render)

    return parser


# One parser per process, built on the first call to `main` and not on import.
# Reuse cannot carry anything from one call into the next: `parse_args` only
# reads the parser's actions and defaults and writes into a fresh Namespace,
# every default is immutable (a frozen VertexRef, Fraction(1), ints, strs and
# bools), `prog` is explicit, and help and usage look up sys.stdout,
# sys.stderr and the terminal width when they print.  The handlers look up
# `make_report` and the rest through this module's globals at call time.
_parser = functools.cache(build_parser)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--vertex -1,0,3`` as ``--vertex=-1,0,3``, abbreviations too, and
    likewise ``--side -3/4`` and ``--ratio -1e3``.

    argparse takes a separate value that starts with "-" and is not a plain
    number for an option, so the flag would be left without its value.
    """
    joined: list[str] = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (len(flag) > 2 and re.match(r"-\.?\d", arg)
                and any(name.startswith(flag) for name in ("--vertex", "--side", "--ratio"))):
            joined[-1] = f"{flag}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
