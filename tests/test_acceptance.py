"""Acceptance gate: one test per required behaviour, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import float_oracle
from hexphi.cli import main
from hexphi.construction import build_cluster, construct_segments, make_report, verify_phi
from hexphi.exact import (
    PHI,
    SQRT3,
    SQRT15,
    TRUNCATE,
    NotRepresentable,
    QuadExt,
    sqrt_exact,
    to_decimal,
)
from hexphi.fibonacci import assess_nearest
from hexphi.render import render_svg
from hexphi.tessellation import HexIndex, VertexRef

GOLDEN = Path(__file__).parent / "data" / "cluster_default.svg"
CANONICAL = VertexRef(HexIndex(0, 0), 0)


def _verdict(criterion: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def test_criterion_1_exact_golden_division():
    started = time.perf_counter()
    segments = construct_segments(build_cluster(CANONICAL, 1))
    identities = [verify_phi(segment) for segment in segments]
    elapsed = time.perf_counter() - started
    ok = (
        len(segments) == 6
        and all(ab_ok and ao_ok for ab_ok, ao_ok in identities)
        and elapsed < 0.1
    )
    _verdict(1, ok, f"identities={identities} elapsed={elapsed:.4f}s")


def test_criterion_2_ratio_decimal_via_cli(capsys):
    code = main(["verify", "--digits", "10"])
    out = capsys.readouterr().out
    ok = code == 0 and "ratio = 1.6180339887" in out.splitlines()
    _verdict(2, ok, out)


def test_criterion_3_equal_lengths_and_closed_forms():
    side = Fraction(1)
    segments = construct_segments(build_cluster(CANONICAL, side))
    ab2 = segments[0].ab2
    all_equal = all(segment.ab2 == ab2 for segment in segments)
    # closed forms, certified as the square roots by exact squaring
    ab_length = (SQRT3 + SQRT15) / 2 * side
    ao_length = SQRT3 * side
    closed_forms = ab_length * ab_length == ab2 and ao_length * ao_length == segments[0].ao2
    renders = (
        to_decimal(ab_length, 10, TRUNCATE) == "2.8025170768"
        and segments[0].ao2 == 3
        and to_decimal(segments[0].ao2, 10) == "3.0000000000"
    )
    oracle = abs(
        float(Fraction(to_decimal(ab_length, 15))) - (math.sqrt(3) + math.sqrt(15)) / 2
    ) < 1e-12 and abs(float(Fraction(to_decimal(ao_length, 15))) - math.sqrt(3)) < 1e-12
    _verdict(3, all_equal and closed_forms and renders and oracle)


def test_criterion_4_fibonacci_row_eleven(capsys):
    code_truncate = main(["fib", "--max", "11"])
    out_truncate = capsys.readouterr().out
    code_half_even = main(["fib", "--max", "11", "--rounding", "half-even"])
    out_half_even = capsys.readouterr().out
    ok = (
        code_truncate == 0
        and code_half_even == 0
        and "11\t89\t55\t1.6181818181\t0.0001478294" in out_truncate.splitlines()
        and "11\t89\t55\t1.6181818182\t0.0001478294" in out_half_even.splitlines()
    )
    _verdict(4, ok, out_truncate + out_half_even)


def test_criterion_5_assessment_round_trip():
    nearest = assess_nearest("1.6181818181")
    _verdict(5, nearest.n == 11, f"got n={nearest.n}")


def test_criterion_6_vertex_universality(capsys):
    started = time.perf_counter()
    code = main(["scan", "--radius", "2"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    counts = [
        int(line.split("=")[1]) for line in out.splitlines() if line.startswith("vertices =")
    ]
    ok = code == 0 and counts and counts[0] >= 24 and "SCAN: PASS" in out and elapsed < 2.0
    _verdict(6, ok, f"exit={code} vertices={counts} elapsed={elapsed:.2f}s")


def test_criterion_7_oracle_equivalence():
    segments = construct_segments(build_cluster(CANONICAL, 1))
    _, expected = float_oracle.segments(0, 0, 0, 1.0)
    ok = len(expected) == 6
    for segment, (_, a_pt, b_pt) in zip(segments, expected):
        ax, ay = float_oracle.point_to_floats(segment.a)
        bx, by = float_oracle.point_to_floats(segment.b)
        ok = ok and abs(ax - a_pt[0]) < 1e-12 and abs(ay - a_pt[1]) < 1e-12
        ok = ok and abs(bx - b_pt[0]) < 1e-12 and abs(by - b_pt[1]) < 1e-12
    _verdict(7, ok)


def test_criterion_8_field_kernel_properties():
    ok = PHI * PHI == PHI + 1
    ok = ok and sqrt_exact(15) == SQRT15
    try:
        sqrt_exact(2)
        ok = False
    except NotRepresentable:
        pass
    rng = random.Random(20260814)

    def element() -> QuadExt:
        parts = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)
        ]
        return QuadExt(*parts)

    for _ in range(500):
        x, y, z = element(), element(), element()
        ok = ok and (x + y) + z == x + (y + z)
        ok = ok and (x * y) * z == x * (y * z)
        ok = ok and x * y == y * x
        ok = ok and x * (y + z) == x * y + x * z
        ok = ok and x + QuadExt(0) == x and x * QuadExt(1) == x
        ok = ok and x - x == QuadExt(0)
        if not x.is_zero:
            ok = ok and x * x.inverse() == QuadExt(1)
        if not ok:
            break
    _verdict(8, ok)


def test_criterion_9_deterministic_render():
    report = make_report(build_cluster(CANONICAL, 1))
    first = render_svg(report)
    second = render_svg(report)
    golden = GOLDEN.read_text(encoding="utf-8")
    _verdict(9, first == second == golden)
