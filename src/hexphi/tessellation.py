"""Regular hexagonal tessellation on axial coordinates, flat-top orientation.

A hexagon ``(q, r)`` with side length ``s`` is centered at
``q * (3s/2, s*sqrt3/2) + r * (0, s*sqrt3)``; its six corners sit at angles
``60*k`` degrees (corner 0 on the positive x side).  Corner coordinates all
live in the exact field, so vertex coincidence is decidable by equality.

Each geometric vertex is shared by exactly three hexagons and therefore has
three ``(hexagon, corner)`` names.  A {6;3} tessellation has two kinds of
vertex: corner 0 of its leftmost hexagon, the other two lying below right and
above right, and corner 1 of its lower left hexagon, the others lying above
left and to the right.  That name is the smallest ``(q, r, corner)`` of the
three, and a :class:`VertexRef` rewrites itself to it from a table, which
makes reference equality coincide with geometric identity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import MAX_DIGITS, _reduced, quoted
from .geometry import Point

# corner k of hexagon (q, r) is corner 0 or 1 of hexagon (q + dq, r + dr):
# _CANONICAL[k] is (dq, dr, that corner)
_CANONICAL = ((0, 0, 0), (0, 0, 1), (-1, 1, 0), (-1, 0, 1), (-1, 0, 0), (0, -1, 1))

# axial offsets of the three hexagons at corner 0 and at corner 1, sorted
_INCIDENT = (((0, 0), (1, -1), (1, 0)), ((0, 0), (0, 1), (1, 0)))

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


class VertexRef(namedtuple("VertexRef", "hex corner")):
    """A tessellation vertex, stored in canonical (q, r, corner) form.

    Any of the three equivalent (hexagon, corner) names may be passed in;
    the constructor rewrites it to the smallest one, whose corner is 0 or 1,
    so two references are equal exactly when they name the same geometric
    point.
    """

    __slots__ = ()

    def __new__(cls, hex: HexIndex, corner: int) -> VertexRef:
        if not isinstance(corner, int) or not 0 <= corner <= 5:
            raise ValueError("corner must be an integer in 0..5")
        dq, dr, corner = _CANONICAL[corner]
        return super().__new__(cls, HexIndex(hex.q + dq, hex.r + dr), corner)

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


def _point(x: int, y: int, side: int | Fraction) -> Point:
    """side/2 * (x, y*sqrt3) for a side checked by `positive_rational`."""
    p, den = side.numerator, 2 * side.denominator
    return Point._make((_reduced(x * p, 0, 0, 0, den), _reduced(0, y * p, 0, 0, den)))


def _center(hexagon: HexIndex, side: int | Fraction) -> Point:
    """side * (3q/2, (q/2 + r)*sqrt3)."""
    return _point(3 * hexagon.q, hexagon.q + 2 * hexagon.r, side)


def _corner(hexagon: HexIndex, side: int | Fraction, k: int) -> Point:
    return _point(3 * hexagon.q + _CORNER_X[k], hexagon.q + 2 * hexagon.r + _CORNER_Y[k], side)


def incident_hexagons(vertex: VertexRef) -> tuple[HexIndex, HexIndex, HexIndex]:
    """The three hexagons sharing a canonical vertex, sorted by (q, r): `vertex.hex` first."""
    if vertex.corner not in (0, 1):  # a `_replace`d corner, say
        raise ValueError(f"vertex {vertex} is not in canonical form")
    q, r = vertex.hex
    return tuple(HexIndex._make((q + dq, r + dr)) for dq, dr in _INCIDENT[vertex.corner])


def enumerate_vertices(patch_radius: int) -> list[VertexRef]:
    """All distinct vertices of the hexagons with |q|, |r|, |q+r| <= patch_radius.

    Returned in canonical form, sorted by (q, r, corner): the canonical names
    are visited in that order, and a name is kept when one of its three
    hexagons lies in the patch.  The patch of radius n holds 3n(n+1)+1
    hexagons and 6(n+1)**2 distinct vertices.
    """
    if patch_radius < 0:
        raise ValueError("patch radius must be nonnegative")
    n = patch_radius
    return [
        VertexRef._make((HexIndex._make((q, r)), corner))
        for q in range(-n - 1, n + 1)
        for r in range(-n - 1, n + 2)
        for corner in (0, 1)
        if any(abs(q + dq) <= n and abs(r + dr) <= n and abs(q + dq + r + dr) <= n
               for dq, dr in _INCIDENT[corner])
    ]
