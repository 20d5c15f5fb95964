from __future__ import annotations

import math
from fractions import Fraction

import pytest

from geometry_checks import is_tangent, squared_distance, squared_distance_point_line
from hexphi.exact import SQRT3, NegativeInput, QuadExt
from hexphi.geometry import (
    ParamLine,
    Point,
    _lower_half,
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

ONE = QuadExt(1)
# counterclockwise from the positive x-axis: 0, 30, 90, 150, 180, 270 and 330 degrees
SEVEN_DIRECTIONS = [
    (ONE, QuadExt(0)),
    (SQRT3_HALF, QuadExt(HALF)),
    (QuadExt(0), ONE),
    (-SQRT3_HALF, QuadExt(HALF)),
    (-ONE, QuadExt(0)),
    (QuadExt(0), -ONE),
    (SQRT3_HALF, QuadExt(-HALF)),
]


def test_lower_half_is_the_angle_range_pi_to_two_pi():
    # [pi, 2*pi) holds the negative x-axis but not the positive one
    assert [_lower_half(d) for d in SEVEN_DIRECTIONS] == [False] * 4 + [True] * 3
    for dx, dy in SEVEN_DIRECTIONS:
        assert _lower_half((dx * 2, dy * 2)) == _lower_half((dx, dy))
        assert _lower_half((-dx, -dy)) != _lower_half((dx, dy))


# unit offsets every 30 degrees, 0 to 330
UNIT_OFFSETS = [
    (QuadExt(1), QuadExt(0)), (SQRT3_HALF, QuadExt(HALF)), (QuadExt(HALF), SQRT3_HALF),
]
UNIT_OFFSETS += [(-y, x) for x, y in UNIT_OFFSETS]
UNIT_OFFSETS += [(-x, -y) for x, y in UNIT_OFFSETS]


def _unit(direction) -> tuple[float, float]:
    x, y = (_as_float(c) for c in direction)
    norm = math.hypot(x, y)
    return x / norm, y / norm


# (|pc|, radius): the construction's frame (theta = 30 degrees), a 60-degree
# one, and p on the circle (cosine 0, so the two tangents are opposite)
@pytest.mark.parametrize("scale, radius", [
    (QuadExt(1), QuadExt(HALF)),
    (SQRT3, QuadExt(Fraction(3, 2))),
    (QuadExt(2), QuadExt(2)),
])
def test_tangent_pair_comes_in_angle_order(scale, radius):
    # a float atan2 oracle: the tangents lie at the offset's angle +/- theta,
    # and the first has the smaller angle in [0, 2*pi); the pair whose turn
    # by 2*theta wraps past angle 0 comes with the +theta tangent first
    assert len(set(UNIT_OFFSETS)) == 12
    p = Point(Fraction(1, 3), Fraction(-2, 7))
    frame = tangent_frame(scale * scale, radius)
    theta = math.asin(_as_float(radius) / _as_float(scale))
    plus_first = []
    for ux, uy in UNIT_OFFSETS:
        lines = tangent_lines_in_frame(p, scale * ux, scale * uy, frame)
        assert all(line.origin == p for line in lines)
        first, second = (_unit(line.dir) for line in lines)
        angle = [math.atan2(y, x) % (2 * math.pi) for x, y in (first, second)]
        assert angle[0] < angle[1]
        base = math.atan2(_as_float(uy), _as_float(ux))
        plus = (math.cos(base + theta), math.sin(base + theta))
        minus = (math.cos(base - theta), math.sin(base - theta))
        if first == pytest.approx(plus, abs=1e-12):
            assert second == pytest.approx(minus, abs=1e-12)
            plus_first.append((ux, uy))
        else:
            assert first == pytest.approx(minus, abs=1e-12)
            assert second == pytest.approx(plus, abs=1e-12)
    assert 0 < len(plus_first) < len(UNIT_OFFSETS)
