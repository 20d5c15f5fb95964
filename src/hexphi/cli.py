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
from .fibonacci import assess_nearest, convergents, decimal_rows
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
    """A usage error that `_parse` reports once its long tokens are cut."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but an error is raised as `_Misuse` for `_parse` to report."""

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
    results = []  # for --json only: text lines print as each vertex is verified
    verified = 0
    try:
        for vertex in vertices:
            report = make_report(build_cluster(vertex, args.side))
            ok = report.phi_exact_ok and report.equal_lengths_ok
            if not ok:
                failures.append(vertex)
            if args.json:
                results.append({"vertex": str(vertex), "ok": ok})
            else:
                print(f"{vertex} {'PASS' if ok else 'FAIL'}")
            verified += 1
    except KeyboardInterrupt:  # Ctrl-C: text mode sums up the vertices verified so far
        verdict, code = "INTERRUPTED", 130
    else:
        verdict, code = ("FAIL", 1) if failures else ("PASS", 0)
        if args.json:
            _print_json(
                {
                    "radius": args.radius,
                    "side": format_fraction(args.side),
                    "decimal_separator": DECIMAL_SEPARATOR,
                    "vertices": results,
                    "total": len(vertices),
                    "failures": [str(v) for v in failures],
                    "all_ok": not failures,
                }
            )
    if not args.json:
        print(f"vertices = {verified}")
        print(f"failures = {len(failures)}")
        print(f"SCAN: {verdict}")
    return code


def _cmd_fib(args: argparse.Namespace) -> int:
    # the table's decimals come from one rounding pass that reads each row as it is reached
    rows = decimal_rows(itertools.islice(convergents(), args.max - 1), args.digits, args.rounding)
    if args.json:
        _print_json(
            {
                "digits": args.digits,
                "rounding": args.rounding,
                "decimal_separator": DECIMAL_SEPARATOR,
                "rows": [
                    {"n": row.n, "fn": row.fn, "fn_1": row.fn_1, "ratio": ratio, "variance": var}
                    for row, ratio, var in rows
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
    for row, ratio, var in rows:
        fn = str(row.fn)
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


def _add_vertex(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vertex", type=_vertex_arg, default=VertexRef(HexIndex(0, 0), 0),
                        metavar="Q,R,C",
                        help="tessellation vertex as hexagon q,r and corner c (default 0,0,0)")
    _add_side(parser)  # every subcommand that takes --vertex takes --side after it


def _add_side(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--side", type=_positive_rational_arg, default=Fraction(1), metavar="P/Q",
                        help="hexagon side length, a positive rational (default 1)")


def _add_verify(parser: argparse.ArgumentParser) -> None:
    _add_vertex(parser)
    parser.add_argument("--digits", type=_int_at_least(1, MAX_DIGITS), default=10, metavar="D")
    parser.add_argument("--json", action="store_true", help="emit the full report as JSON")
    parser.set_defaults(handler=_cmd_verify)


def _add_scan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--radius", type=_int_at_least(0, MAX_SCAN_RADIUS), required=True,
                        metavar="N")
    _add_side(parser)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(handler=_cmd_scan)


def _add_fib(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max", type=_int_at_least(2, MAX_FIB_INDEX), required=True, metavar="N")
    parser.add_argument("--digits", type=_int_at_least(1, MAX_DIGITS), default=10, metavar="D")
    parser.add_argument("--rounding", choices=(TRUNCATE, HALF_EVEN), default=TRUNCATE)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(handler=_cmd_fib)


def _add_assess(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratio", type=_positive_rational_arg, required=True, metavar="X")
    parser.set_defaults(handler=_cmd_assess)


def _add_render(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, metavar="FILE")
    _add_vertex(parser)
    parser.set_defaults(handler=_cmd_render)


# each subcommand, in help order: its help line and what adds its arguments and handler
_COMMANDS = {
    "verify": ("check one vertex exactly", _add_verify),
    "scan": ("check every vertex of a hexagonal patch", _add_scan),
    "fib": ("Fibonacci convergent table with variances", _add_fib),
    "assess": ("nearest convergent to a given ratio", _add_assess),
    "render": ("write the construction as an SVG figure", _add_render),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser over every subcommand's; their usage errors raise `_Misuse`."""
    parser = _Parser(
        prog="hexphi",
        description="Exact golden-section checks on tangent segments of hexagon circle clusters.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(subparsers.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """`name`'s parser as `build_parser` builds it: argparse's add_parser passes only `prog`."""
    parser = _Parser(prog=f"hexphi {name}")
    _COMMANDS[name][1](parser)
    return parser


# Two caches, filled on use and not on import: a subcommand's parser on the
# first call that names it, the top-level tree on the first call that names
# none (`--help`, say) or leaves tokens over.  Reuse carries nothing from one
# call into the next: parsing only reads the parsers' actions and defaults
# and writes into a fresh Namespace, every default is immutable (a frozen VertexRef, Fraction(1),
# ints, strs and bools), `prog` is explicit, help and usage look up the
# streams and the terminal width when they print, and the handlers look up
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


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed, by the subcommand's own parser when `argv` starts with a
    subcommand name and that parser takes every token after it.

    Otherwise the top-level parser parses it all, running the subcommand's
    parser again, so help, usage and every error message are argparse's own.
    An error reports argparse's message once each argv token longer than
    `ECHO_CHARS`, whole or its part after "=" or a short flag, raw or as a
    repr, is cut as `quoted` cuts it.
    """
    try:
        if argv and argv[0] in _COMMANDS:
            command = _command_parser(argv[0])
            args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if not rest:
                return args
        return _parser().parse_args(argv)
    except _Misuse as exc:  # from the top-level parser or a subcommand's
        failed, message = exc.args
        for token in sorted(argv, key=len, reverse=True):
            for part in (token, token.partition("=")[2], token[2:]):
                if len(part) > ECHO_CHARS:
                    message = message.replace(repr(part), quoted(part))
                    message = message.replace(part, quoted(part))
        argparse.ArgumentParser.error(failed, message)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code
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
