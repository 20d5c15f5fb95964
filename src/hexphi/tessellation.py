"""Regular hexagonal tessellation on axial coordinates, flat-top orientation.

A hexagon ``(q, r)`` with side length ``s`` is centered at
``q * (3s/2, s*sqrt3/2) + r * (0, s*sqrt3)``; its six corners sit at angles
``60*k`` degrees (corner 0 on the positive x side).  Corner coordinates all
live in the exact field, so vertex coincidence is decidable by equality.

Each geometric vertex is shared by exactly three hexagons and therefore has
three ``(hexagon, corner)`` names.  A :class:`VertexRef` normalizes itself to
the lexicographically smallest ``(q, r, corner)`` of the three, which makes
reference equality coincide with geometric identity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import MAX_DIGITS, _reduced, positive_rational, quoted
from .geometry import Point

#: Axial steps to the six neighbors, listed by azimuth 30 + 60*i degrees.
_NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

# corner k offset from the center: side * (cos 60k, sin 60k), that is
# side/2 * (_CORNER_X[k], _CORNER_Y[k] * sqrt3)
_CORNER_X = (2, 1, -1, -2, -1, 1)
_CORNER_Y = (0, 1, 1, 0, -1, -1)


class HexIndex(namedtuple("HexIndex", "q r")):
    __slots__ = ()

    def __new__(cls, q: int, r: int) -> HexIndex:
        if not isinstance(q, int) or not isinstance(r, int):
            raise TypeError("axial coordinates must be integers")
        return super().__new__(cls, q, r)

    def __str__(self) -> str:
        return f"{self.q},{self.r}"


def _names(q: int, r: int, corner: int) -> tuple[tuple[int, int, int], ...]:
    """The three ``(q, r, corner)`` names of one vertex, this one first."""
    (q1, r1), (q2, r2) = _NEIGHBOR_STEPS[(corner - 1) % 6], _NEIGHBOR_STEPS[corner]
    return (
        (q, r, corner),
        (q + q1, r + r1, (corner + 2) % 6),
        (q + q2, r + r2, (corner + 4) % 6),
    )


class VertexRef(namedtuple("VertexRef", "hex corner")):
    """A tessellation vertex, stored in canonical (q, r, corner) form.

    Any of the three equivalent (hexagon, corner) names may be passed in;
    the constructor rewrites it to the smallest one, so two references are
    equal exactly when they name the same geometric point.
    """

    __slots__ = ()

    def __new__(cls, hex: HexIndex, corner: int) -> VertexRef:
        if not isinstance(corner, int) or not 0 <= corner <= 5:
            raise ValueError("corner must be an integer in 0..5")
        q, r, corner = min(_names(hex.q, hex.r, corner))
        return super().__new__(cls, HexIndex(q, r), corner)

    @classmethod
    def from_string(cls, text: str) -> VertexRef:
        """Parse ``q,r,corner`` (canonical or not).

        A component of more than `MAX_DIGITS` digits raises ``ValueError``
        before any int is built, with a message that does not repeat it.
        """
        parts = text.strip().split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'q,r,corner', got {quoted(text)}")
        if max(sum(map(str.isdigit, part)) for part in parts) > MAX_DIGITS:
            raise ValueError(f"vertex components may have at most {MAX_DIGITS} digits each")
        try:
            q, r, corner = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"vertex components must be integers: {quoted(text)}") from None
        return cls(HexIndex(q, r), corner)

    def __str__(self) -> str:
        return f"{self.hex.q},{self.hex.r},{self.corner}"


def _center(hexagon: HexIndex, side: Fraction) -> Point:
    """side * (3q/2, (q/2 + r)*sqrt3) for a side checked by `positive_rational`."""
    p, den = side.numerator, 2 * side.denominator
    x = _reduced(3 * hexagon.q * p, 0, 0, 0, den)
    y = _reduced(0, (hexagon.q + 2 * hexagon.r) * p, 0, 0, den)
    return Point._make((x, y))


def _corner(center: Point, side: Fraction, k: int) -> Point:
    p, den = side.numerator, 2 * side.denominator
    x = _reduced(_CORNER_X[k] * p, 0, 0, 0, den)
    y = _reduced(0, _CORNER_Y[k] * p, 0, 0, den)
    return Point._make((center.x + x, center.y + y))


def hex_corners(hexagon: HexIndex, side: int | Fraction = 1) -> list[Point]:
    """The six corner points, corner 0 first."""
    side = positive_rational("side", side)
    center = _center(hexagon, side)
    return [_corner(center, side, k) for k in range(6)]


def incident_hexagons(vertex: VertexRef) -> tuple[HexIndex, HexIndex, HexIndex]:
    """The three hexagons sharing the vertex, sorted by (q, r)."""
    first, second, third = sorted(
        HexIndex(q, r) for q, r, _ in _names(vertex.hex.q, vertex.hex.r, vertex.corner)
    )
    return (first, second, third)


def enumerate_vertices(patch_radius: int) -> list[VertexRef]:
    """All distinct vertices of the hexagons with |q|, |r|, |q+r| <= patch_radius.

    Returned in canonical form, sorted by (q, r, corner).  The patch of
    radius n holds 3n(n+1)+1 hexagons and 6(n+1)**2 distinct vertices.
    """
    if patch_radius < 0:
        raise ValueError("patch radius must be nonnegative")
    n = patch_radius
    found = set()
    for q in range(-n, n + 1):
        for r in range(-n, n + 1):
            if abs(q + r) > n:
                continue
            for corner in range(6):
                found.add(VertexRef(HexIndex(q, r), corner))
    return sorted(found)
