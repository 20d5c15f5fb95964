"""Exact plane geometry over the field: points, parametric lines, circles.

Lines are parametric, ``origin + t * dir``, with no unit-length requirement on
``dir``; line parameters are therefore relative to ``|dir|``.  Every
predicate reduces to a coefficient comparison or to the exact sign of a field
element, so tangency and membership are decided without tolerances.

Square roots are taken through :func:`hexphi.exact.sqrt_exact`, which only
accepts rational radicands.  The roots taken are a point's distance to a
circle's center and its tangent length; one that would leave the field raises
:class:`hexphi.exact.NotRepresentable`.  Both roots, and the one inverse,
depend only on that distance and the radius: `tangent_frame` takes them once,
and `tangent_lines_in_frame` turns the frame toward each center, so circles
of equal radius at equal distance share one frame.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key

from .exact import QuadExt, as_quadext, sign, sqrt_exact

Direction = tuple[QuadExt, QuadExt]
Frame = tuple[QuadExt, QuadExt, QuadExt]  # see tangent_frame


class Point(namedtuple("Point", "x y")):
    __slots__ = ()

    def __new__(cls, x: QuadExt | int | Fraction, y: QuadExt | int | Fraction) -> Point:
        if x.__class__ is not QuadExt:
            x = as_quadext(x)
        if y.__class__ is not QuadExt:
            y = as_quadext(y)
        return super().__new__(cls, x, y)

    def to_json(self) -> dict[str, dict[str, str]]:
        return {"x": self.x.to_json(), "y": self.y.to_json()}


class ParamLine(namedtuple("ParamLine", "origin dir")):
    """Line through `origin` with direction `dir`, traced as origin + t*dir."""

    __slots__ = ()

    def __new__(cls, origin: Point, dir: Direction) -> ParamLine:
        dx, dy = dir
        dx = as_quadext(dx)
        dy = as_quadext(dy)
        if dx.is_zero and dy.is_zero:
            raise ValueError("line direction must be nonzero")
        return super().__new__(cls, origin, (dx, dy))

    def point_at(self, t: QuadExt | int | Fraction) -> Point:
        t = as_quadext(t)
        return Point(self.origin.x + t * self.dir[0], self.origin.y + t * self.dir[1])


class Circle(namedtuple("Circle", "center radius")):
    __slots__ = ()

    def __new__(cls, center: Point, radius: QuadExt | int | Fraction) -> Circle:
        radius = as_quadext(radius)
        if sign(radius) <= 0:
            raise ValueError("circle radius must be positive")
        return super().__new__(cls, center, radius)


class PointInsideCircle(ValueError):
    """No tangent line exists from a point strictly inside a circle."""


def squared_distance(p: Point, q: Point) -> QuadExt:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def squared_distance_point_line(p: Point, line: ParamLine) -> QuadExt:
    """Squared distance from `p` to the (infinite) line.

    cross(dir, p - origin)**2 / |dir|**2, a rational function of the inputs,
    so the result stays in the field.
    """
    dx, dy = line.dir
    wx = p.x - line.origin.x
    wy = p.y - line.origin.y
    cross = dx * wy - dy * wx
    return cross * cross / (dx * dx + dy * dy)


def is_tangent(line: ParamLine, circle: Circle) -> bool:
    return squared_distance_point_line(circle.center, line) == circle.radius * circle.radius


def tangent_lines_from_point(p: Point, circle: Circle) -> list[ParamLine]:
    """Tangent lines from `p` to `circle`, through `p`, sorted by direction angle.

    For a point on the circle there is a single tangent (the perpendicular to
    the radius); for an exterior point there are two, those of
    `tangent_lines_in_frame`.  Raises as `tangent_frame` does.
    """
    cx = circle.center.x - p.x
    cy = circle.center.y - p.y
    frame = tangent_frame(cx * cx + cy * cy, circle.radius)
    if frame is None:
        return [ParamLine(p, (-cy, cx))]
    return tangent_lines_in_frame(p, cx, cy, frame)


def tangent_frame(dist2: QuadExt, radius: QuadExt) -> Frame | None:
    """``(1/|pc|, cos(theta), sin(theta))`` for tangents from p to a circle of
    `radius` about c, with ``|pc|**2 == dist2``; None when p is on the circle.

    cos(theta) and sin(theta) are the exact ratios tangent_length/|pc| and
    radius/|pc|.  Raises PointInsideCircle for an interior point and
    NotRepresentable when |pc| or the tangent length is irrational in the field.
    """
    reach2 = dist2 - radius * radius  # squared tangent length
    outside = sign(reach2)
    if outside < 0:
        raise PointInsideCircle("no tangent from a point inside the circle")
    if outside == 0:
        return None
    inv_dist = sqrt_exact(dist2).inverse()
    return inv_dist, sqrt_exact(reach2) * inv_dist, radius * inv_dist


def tangent_lines_in_frame(p: Point, cx: QuadExt, cy: QuadExt, frame: Frame) -> list[ParamLine]:
    """The two tangent lines through `p`, sorted by direction angle, toward a
    center at offset ``(cx, cy)`` from `p`: the unit vector ``(cx, cy)/|pc|``
    rotated by +/-theta, with `frame` from `tangent_frame`."""
    inv_dist, cos_t, sin_t = frame
    ux, uy = cx * inv_dist, cy * inv_dist
    cos_ux, sin_uy, sin_ux, cos_uy = cos_t * ux, sin_t * uy, sin_t * ux, cos_t * uy
    plus: Direction = (cos_ux - sin_uy, sin_ux + cos_uy)
    minus: Direction = (cos_ux + sin_uy, cos_uy - sin_ux)
    if compare_directions(plus, minus) > 0:
        plus, minus = minus, plus
    return [ParamLine(p, plus), ParamLine(p, minus)]


def _direction_class(direction: Direction) -> int:
    # 0: positive x-axis, 1: open upper half, 2: negative x-axis, 3: open lower half
    dx, dy = direction
    sy = sign(dy)
    if sy > 0:
        return 1
    if sy < 0:
        return 3
    return 0 if sign(dx) > 0 else 2


def compare_directions(d1: Direction, d2: Direction) -> int:
    """Order directions by angle in [0, 2*pi); -1, 0 or +1, decided exactly."""
    c1 = _direction_class(d1)
    c2 = _direction_class(d2)
    if c1 != c2:
        return -1 if c1 < c2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    return -sign(cross)


#: Sort key ordering directions by angle in [0, 2*pi), decided exactly.
direction_angle_key = cmp_to_key(compare_directions)
