"""Exact checkers of circle membership and tangency, used only by tests.

They compare squared distances in the field, so a check holds or fails
exactly.  None of them is on the construction's path: the construction
builds its tangents from `hexphi.geometry.tangent_frame`, and these confirm
the result independently.
"""

from __future__ import annotations

from hexphi.exact import QuadExt
from hexphi.geometry import ParamLine, Point


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


def is_tangent(line: ParamLine, center: Point, radius: QuadExt) -> bool:
    return squared_distance_point_line(center, line) == radius * radius
