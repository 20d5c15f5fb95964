"""Exact plane geometry over the field: points, parametric lines and the
tangent frame.

Lines are parametric, ``origin + t * dir``, with no unit-length requirement on
``dir``; line parameters are therefore relative to ``|dir|``.

Square roots are taken through :func:`hexphi.exact.sqrt_exact`, which only
accepts rational radicands.  The one root taken is a point's tangent length
to a circle; one that would leave the field raises
:class:`hexphi.exact.NotRepresentable`.  The distance to the circle's center
is never taken, only its square.  That root, and the one inverse (of the
squared distance), depend only on that distance and the radius:
`tangent_frame` takes them once and returns a `Frame`, the cosine and sine of
the tangent's angle already divided by the distance, and
`tangent_lines_in_frame` rotates the raw offset toward each center by it, so
circles of equal radius at equal distance share one frame.  The point must
lie outside the circle, as the construction's vertex does.

The two tangents come in angle order over [0, 2*pi) with no angle compared.
The frame's cosine is >= 0 and, for radius > 0, its sine > 0, so the one turned
by +theta is the other turned counterclockwise by 2*theta in (0, pi]: second,
unless the turn wraps past 0, when the other is in [pi, 2*pi) and it in [0, pi).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import QuadExt, as_quadext, sign, sqrt_exact

Direction = tuple[QuadExt, QuadExt]
Frame = tuple[QuadExt, QuadExt]  # (cos(theta), sin(theta)) / |pc|; see tangent_frame


class Point(namedtuple("Point", "x y")):
    __slots__ = ()

    def __new__(cls, x: QuadExt | int | Fraction, y: QuadExt | int | Fraction) -> Point:
        return super().__new__(cls, as_quadext(x), as_quadext(y))

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


def tangent_frame(dist2: QuadExt, radius: QuadExt) -> Frame:
    """``(cos(theta)/|pc|, sin(theta)/|pc|)`` for tangents from p to a circle
    of `radius` about c, with ``|pc|**2 == dist2``.

    cos(theta) and sin(theta) are the exact ratios tangent_length/|pc| and
    radius/|pc|, so the frame is the tangent length and the radius over
    `dist2`: one inverse, one square root (of the squared tangent length) and
    no |pc| itself, which may lie outside the field.  p must lie outside the
    circle: for an interior point the squared tangent length is negative and
    `sqrt_exact` raises NegativeInput.  Raises NotRepresentable when the
    tangent length is irrational in the field.  Ordering the tangents needs radius > 0.
    """
    reach2 = dist2 - radius * radius  # squared tangent length
    inv_dist2 = dist2.inverse()
    return sqrt_exact(reach2) * inv_dist2, radius * inv_dist2


def tangent_lines_in_frame(p: Point, cx: QuadExt, cy: QuadExt, frame: Frame) -> list[ParamLine]:
    """The two tangent lines through `p`, sorted by direction angle, toward a
    center at offset ``(cx, cy)`` from `p`: that offset rotated by +/-theta
    and divided by |pc|, which `frame`, from `tangent_frame`, folds in.  For
    radius > 0 the half-plane rule of the module docstring orders them."""
    cos_t, sin_t = frame
    cos_x, sin_y, sin_x, cos_y = cos_t * cx, sin_t * cy, sin_t * cx, cos_t * cy
    plus: Direction = (cos_x - sin_y, sin_x + cos_y)
    minus: Direction = (cos_x + sin_y, cos_y - sin_x)
    if _lower_half(minus) and not _lower_half(plus):
        return [ParamLine._make((p, plus)), ParamLine._make((p, minus))]
    return [ParamLine._make((p, minus)), ParamLine._make((p, plus))]


def _lower_half(direction: Direction) -> bool:
    """Whether `direction` points below the x-axis or along its negative half: [pi, 2*pi)."""
    dx, dy = direction
    sy = sign(dy)
    return sy < 0 or (sy == 0 and sign(dx) < 0)
