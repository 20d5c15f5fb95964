from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geometry_checks import squared_distance
from hexphi.exact import QuadExt, sign
from hexphi.geometry import Point
from hexphi.tessellation import HexIndex, VertexRef, _corner, enumerate_vertices, incident_hexagons

HALF = Fraction(1, 2)

AXIAL = st.integers(min_value=-6, max_value=6)
CORNERS = st.integers(min_value=0, max_value=5)
SIDES = st.fractions(min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=10)


def hex_corners(hexagon: HexIndex, side: int | Fraction = 1) -> list[Point]:
    """The six corner points, corner 0 first."""
    return [_corner(hexagon, side, k) for k in range(6)]


def hex_center(hexagon: HexIndex, side: int | Fraction = 1) -> Point:
    """The midpoint of opposite corners 0 and 3."""
    corners = hex_corners(hexagon, side)
    return Point((corners[0].x + corners[3].x) / 2, (corners[0].y + corners[3].y) / 2)


def vertex_point(vertex: VertexRef, side: int | Fraction = 1) -> Point:
    """The vertex as a corner of its canonical hexagon."""
    return hex_corners(vertex.hex, side)[vertex.corner]


def test_hex_index_validation_and_order():
    with pytest.raises(TypeError):
        HexIndex(Fraction(1, 2), 0)
    assert HexIndex(0, 0) < HexIndex(1, -1) < HexIndex(1, 0)
    assert str(HexIndex(2, -1)) == "2,-1"
    hexagon = HexIndex(2, -1)
    assert repr(hexagon) == "HexIndex(q=2, r=-1)"
    assert hash(hexagon) == hash(tuple(hexagon)) == hash((2, -1))
    with pytest.raises(AttributeError):
        hexagon.q = 0


def test_hex_center_examples():
    assert hex_center(HexIndex(0, 0)) == Point(0, 0)
    assert hex_center(HexIndex(1, 0)) == Point(Fraction(3, 2), QuadExt(0, HALF))
    assert hex_center(HexIndex(0, 1)) == Point(0, QuadExt(0, 1))


def test_hex_center_scales_with_side():
    assert hex_center(HexIndex(1, 0), 2) == Point(3, QuadExt(0, 1))


def test_vertex_point_examples():
    assert vertex_point(VertexRef(HexIndex(0, 0), 0)) == Point(1, 0)
    assert vertex_point(VertexRef(HexIndex(0, 0), 2)) == Point(-HALF, QuadExt(0, HALF))
    # corner 3 canonicalizes to a neighboring hexagon but stays at (-1, 0)
    assert vertex_point(VertexRef(HexIndex(0, 0), 3)) == Point(-1, 0)


def test_corner_zero_offset_is_along_x():
    corners = hex_corners(HexIndex(0, 0), Fraction(5, 3))
    assert corners[0] == Point(Fraction(5, 3), 0)
    assert len(corners) == 6
    assert len(set(corners)) == 6


@given(AXIAL, AXIAL, SIDES)
def test_all_corners_lie_on_the_circumcircle(q, r, side):
    center = hex_center(HexIndex(q, r), side)
    for corner in hex_corners(HexIndex(q, r), side):
        assert squared_distance(corner, center) == QuadExt(side * side)


def test_vertex_ref_canonicalizes_aliases():
    canonical = VertexRef(HexIndex(0, 0), 0)
    assert VertexRef(HexIndex(1, 0), 4) == canonical
    assert VertexRef(HexIndex(1, -1), 2) == canonical
    assert str(canonical) == "0,0,0"
    alias = VertexRef(HexIndex(1, 2), 3)
    assert repr(alias) == "VertexRef(hex=HexIndex(q=0, r=2), corner=1)"
    assert hash(alias) == hash(tuple(alias)) == hash((HexIndex(0, 2), 1))
    assert canonical < VertexRef(HexIndex(0, 0), 1) < alias  # (q, r) first, then corner
    with pytest.raises(AttributeError):
        alias.corner = 2


def test_vertex_ref_rejects_bad_corner():
    with pytest.raises(ValueError):
        VertexRef(HexIndex(0, 0), 9)
    with pytest.raises(ValueError):
        VertexRef(HexIndex(0, 0), -1)
    for corner in (-1, 2, 5):  # _replace skips the constructor's rewrite
        with pytest.raises(ValueError, match="not in canonical form"):
            incident_hexagons(VertexRef(HexIndex(0, 0), 0)._replace(corner=corner))


def test_vertex_ref_parsing():
    assert VertexRef.from_string("1,0,4") == VertexRef(HexIndex(0, 0), 0)
    assert VertexRef.from_string(" 2,-1,5 ") == VertexRef(HexIndex(2, -1), 5)
    for bad in ("1,2", "1,2,3,4", "a,b,c", "0,0,6"):
        with pytest.raises(ValueError):
            VertexRef.from_string(bad)


@given(AXIAL, AXIAL, CORNERS, SIDES)
def test_aliases_share_the_geometric_point(q, r, corner, side):
    vertex = VertexRef(HexIndex(q, r), corner)
    point = vertex_point(vertex, side)
    for hexagon in incident_hexagons(vertex):
        assert point in hex_corners(hexagon, side)


@given(AXIAL, AXIAL, CORNERS)
def test_canonicalization_is_idempotent(q, r, corner):
    vertex = VertexRef(HexIndex(q, r), corner)
    again = VertexRef(vertex.hex, vertex.corner)
    assert again == vertex


def test_incident_hexagons_example():
    vertex = VertexRef(HexIndex(0, 0), 0)
    hexes = incident_hexagons(vertex)
    assert hexes == (HexIndex(0, 0), HexIndex(1, -1), HexIndex(1, 0))
    assert hexes[0] == vertex.hex


def test_incident_hexagons_brute_force_oracle():
    """Scan every hexagon near the origin for corners landing on (1, 0)."""
    target = vertex_point(VertexRef(HexIndex(0, 0), 0))
    touching = [
        HexIndex(q, r)
        for q in range(-2, 3)
        for r in range(-2, 3)
        if target in hex_corners(HexIndex(q, r))
    ]
    assert tuple(touching) == incident_hexagons(VertexRef(HexIndex(0, 0), 0))


@given(AXIAL, AXIAL, CORNERS, SIDES)
def test_incident_centers_are_at_side_distance(q, r, corner, side):
    vertex = VertexRef(HexIndex(q, r), corner)
    point = vertex_point(vertex, side)
    hexes = incident_hexagons(vertex)
    assert len(set(hexes)) == 3
    assert hexes[0] == vertex.hex
    for hexagon in hexes:
        assert squared_distance(point, hex_center(hexagon, side)) == QuadExt(side * side)


@given(AXIAL, AXIAL, CORNERS)
def test_incident_centers_at_mutual_120_degrees(q, r, corner):
    vertex = VertexRef(HexIndex(q, r), corner)
    point = vertex_point(vertex)
    offsets = [
        (hex_center(h).x - point.x, hex_center(h).y - point.y)
        for h in incident_hexagons(vertex)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            dot = offsets[i][0] * offsets[j][0] + offsets[i][1] * offsets[j][1]
            assert dot == QuadExt(Fraction(-1, 2))  # cos 120 * side**2


def test_enumerate_vertices_counts():
    assert len(enumerate_vertices(0)) == 6
    assert len(enumerate_vertices(1)) == 24
    assert len(enumerate_vertices(2)) == 54


def test_enumerate_vertices_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_vertices(-1)


def test_enumerate_vertices_sorted_and_canonical():
    vertices = enumerate_vertices(1)
    assert vertices == sorted(vertices)
    for vertex in vertices:
        assert VertexRef(vertex.hex, vertex.corner) == vertex


def test_enumerate_vertices_matches_geometric_dedup():
    """Count distinct corner points directly, as a geometry-level oracle."""
    for n in range(5):
        points = set()
        for q in range(-n, n + 1):
            for r in range(-n, n + 1):
                if abs(q + r) > n:
                    continue
                points.update(hex_corners(HexIndex(q, r)))
        listed = [vertex_point(v) for v in enumerate_vertices(n)]
        assert points == set(listed)
        assert len(listed) == len(points) == 6 * (n + 1) ** 2


def test_canonical_name_is_the_smallest_coinciding_corner():
    """Exhaustively near the origin: a reference names the smallest (q, r, corner)
    whose corner point coincides with its own, and its hexagons are those names'."""
    names: dict[Point, list[tuple[int, int, int]]] = {}
    for q in range(-5, 6):
        for r in range(-5, 6):
            for corner, point in enumerate(hex_corners(HexIndex(q, r))):
                names.setdefault(point, []).append((q, r, corner))
    for q in range(-3, 4):
        for r in range(-3, 4):
            for corner in range(6):
                vertex = VertexRef(HexIndex(q, r), corner)
                aliases = names[hex_corners(HexIndex(q, r))[corner]]
                assert len(aliases) == 3
                assert (vertex.hex.q, vertex.hex.r, vertex.corner) == min(aliases)
                assert incident_hexagons(vertex) == tuple(
                    HexIndex(aq, ar) for aq, ar, _ in sorted(aliases))


@given(AXIAL, AXIAL, CORNERS)
def test_distinct_references_are_distinct_points(q, r, corner):
    vertex = VertexRef(HexIndex(q, r), corner)
    other = VertexRef(HexIndex(q, r), (corner + 1) % 6)
    assert vertex != other
    assert vertex_point(vertex) != vertex_point(other)
    assert sign(squared_distance(vertex_point(vertex), vertex_point(other))) == 1
