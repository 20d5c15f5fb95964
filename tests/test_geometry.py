from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

import pytest

from geometry_checks import is_tangent, squared_distance, squared_distance_point_line
from hexphi.exact import SQRT3, NegativeInput, QuadExt
from hexphi.geometry import (
    ParamLine,
    Point,
    compare_directions,
    tangent_frame,
    tangent_lines_in_frame,
)

HALF = Fraction(1, 2)
SQRT3_HALF = QuadExt(0, HALF)


def _as_float(x: QuadExt) -> float:
    return (
        float(x.a)
        + float(x.b) * math.sqrt(3)
        + float(x.c) * math.sqrt(5)
        + float(x.d) * math.sqrt(15)
    )


# --- value types ---------------------------------------------------------------

def test_point_coerces_rationals():
    p = Point(1, Fraction(1, 2))
    assert p.x == QuadExt(1) and p.y == QuadExt(HALF)
    assert repr(p) == (
        "Point(x=QuadExt(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "y=QuadExt(Fraction(1, 2), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)))"
    )
    assert hash(p) == hash(tuple(p)) == hash((QuadExt(1), QuadExt(HALF)))
    with pytest.raises(AttributeError):
        p.x = QuadExt(2)


def test_param_line_rejects_zero_direction():
    with pytest.raises(ValueError):
        ParamLine(Point(0, 0), (QuadExt(0), QuadExt(0)))
    line = ParamLine(Point(0, 0), (1, HALF))
    assert line.dir == (QuadExt(1), QuadExt(HALF))
    assert hash(line) == hash(tuple(line))
    with pytest.raises(AttributeError):
        line.dir = (QuadExt(1), QuadExt(0))


def _tangent_lines(p: Point, center: Point, radius: QuadExt) -> list[ParamLine]:
    cx, cy = center.x - p.x, center.y - p.y
    return tangent_lines_in_frame(p, cx, cy, tangent_frame(cx * cx + cy * cy, radius))


# --- the distance checkers of geometry_checks -----------------------------------

def test_squared_distance_example():
    assert squared_distance(Point(0, 0), Point(Fraction(3, 2), SQRT3_HALF)) == QuadExt(3)


def test_squared_distance_point_line_on_line_is_zero():
    line = ParamLine(Point(0, 0), (SQRT3_HALF, QuadExt(HALF)))
    t = QuadExt(0, 7)
    on_line = Point(line.origin.x + t * line.dir[0], line.origin.y + t * line.dir[1])
    assert squared_distance_point_line(on_line, line) == QuadExt(0)


def test_squared_distance_point_line_examples():
    line = ParamLine(Point(0, 0), (SQRT3_HALF, QuadExt(HALF)))
    assert squared_distance_point_line(Point(1, 0), line) == QuadExt(HALF * HALF * 4) / 4
    x_axis = ParamLine(Point(0, 0), (QuadExt(1), QuadExt(0)))
    assert squared_distance_point_line(Point(0, 1), x_axis) == QuadExt(1)


def test_squared_distance_point_line_is_dir_scale_invariant():
    p = Point(2, Fraction(1, 3))
    line = ParamLine(Point(0, 0), (SQRT3_HALF, QuadExt(HALF)))
    doubled = ParamLine(Point(0, 0), (SQRT3_HALF * 2, QuadExt(1)))
    assert squared_distance_point_line(p, line) == squared_distance_point_line(p, doubled)


# --- tangency predicate ------------------------------------------------------------

def test_is_tangent_example():
    line = ParamLine(Point(0, 0), (SQRT3_HALF, QuadExt(HALF)))
    assert is_tangent(line, Point(1, 0), QuadExt(HALF))
    assert not is_tangent(line, Point(1, 0), QuadExt(1))


# --- tangent lines --------------------------------------------------------------------

def test_tangents_from_external_point():
    lines = _tangent_lines(Point(0, 0), Point(1, 0), QuadExt(HALF))
    assert [line.dir for line in lines] == [
        (SQRT3_HALF, QuadExt(HALF)),
        (SQRT3_HALF, QuadExt(-HALF)),
    ]
    assert all(line.origin == Point(0, 0) for line in lines)


def test_tangent_from_interior_point_rejected():
    # the squared tangent length is negative, so its square root is refused
    with pytest.raises(NegativeInput):
        _tangent_lines(Point(0, 0), Point(1, 0), QuadExt(2))


def test_tangent_with_irrational_center_distance_is_exact():
    # |pc| = sqrt2 leaves the field, but the tangent length 1 does not, and
    # the frame needs only |pc|^2: the tangents are the lines y = 0 and x = 0
    lines = _tangent_lines(Point(0, 0), Point(1, 1), QuadExt(1))
    assert [line.dir for line in lines] == [(QuadExt(1), QuadExt(0)), (QuadExt(0), QuadExt(1))]


def test_constructed_tangents_are_tangent():
    # |pc| = m*m + n*n, radius = m*m - n*n, tangent length = 2*m*n: all rational
    for m, n in ((2, 1), (3, 1), (3, 2), (5, 2)):
        dist = Fraction(m * m + n * n)
        radius = Fraction(m * m - n * n)
        for ux, uy in ((Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5))):
            p = Point(Fraction(1, 3), Fraction(-2, 7))
            center = Point(p.x + dist * ux, p.y + dist * uy)
            lines = _tangent_lines(p, center, QuadExt(radius))
            assert len(lines) == 2
            for line in lines:
                assert is_tangent(line, center, QuadExt(radius))
                # the touch point is the foot of the perpendicular from the center
                dx, dy = line.dir
                t = ((center.x - p.x) * dx + (center.y - p.y) * dy) / (dx * dx + dy * dy)
                foot = Point(p.x + t * dx, p.y + t * dy)
                assert squared_distance(foot, center) == QuadExt(radius * radius)


def test_tangents_match_arcsin_rotation_oracle():
    # center at distance sqrt(3); radius 3/2 keeps the tangent length in the field
    p = Point(0, 0)
    center = Point(Fraction(3, 2), SQRT3_HALF)
    lines = _tangent_lines(p, center, QuadExt(Fraction(3, 2)))
    base = math.atan2(_as_float(center.y), _as_float(center.x))
    theta = math.asin(1.5 / math.hypot(_as_float(center.x), _as_float(center.y)))
    angles = sorted((a % (2 * math.pi)) for a in (base + theta, base - theta))
    got = sorted(
        math.atan2(_as_float(d[1]), _as_float(d[0])) % (2 * math.pi)
        for d in (line.dir for line in lines)
    )
    for g, e in zip(got, angles):
        assert g == pytest.approx(e, abs=1e-12)


# --- direction ordering -----------------------------------------------------------------

def test_direction_order_walks_counterclockwise():
    one = QuadExt(1)
    dirs = [
        (one, QuadExt(0)),          # 0
        (SQRT3_HALF, QuadExt(HALF)),  # 30
        (QuadExt(0), one),          # 90
        (-SQRT3_HALF, QuadExt(HALF)),  # 150
        (-one, QuadExt(0)),         # 180
        (QuadExt(0), -one),         # 270
        (SQRT3_HALF, QuadExt(-HALF)),  # 330
    ]
    shuffled = dirs[::-1]
    assert sorted(shuffled, key=cmp_to_key(compare_directions)) == dirs
    # exactly -1, 0 or +1, opposite axis directions included
    assert compare_directions(dirs[0], dirs[4]) == -1
    assert compare_directions(dirs[4], dirs[0]) == 1
    for i, d1 in enumerate(dirs):
        for j, d2 in enumerate(dirs):
            assert compare_directions(d1, d2) == (i > j) - (i < j)


def test_direction_comparison_treats_parallel_as_equal():
    d1 = (QuadExt(1), SQRT3)
    d2 = (QuadExt(2), SQRT3 * 2)
    assert compare_directions(d1, d2) == 0
    assert compare_directions(d1, (-QuadExt(1), -SQRT3)) != 0

