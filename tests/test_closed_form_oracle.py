"""Every constructed segment against the construction's closed form.

Let C be the center of a hexagon at vertex O and s the side.  |OC| = s and
the small radius is s/2, so each tangent from O leaves OC at 30 degrees, and
along its unit direction u the middle circle (radius s) is met again at
distance s*sqrt3 and the large circle (radius 2s), on the other side of O,
at distance s*(sqrt15 - sqrt3)/2: the roots of t*t - sqrt3*s*t - 3*s*s = 0,
by the power of the point O (Euclid III.35-36).  Hence

    A = O + s*sqrt3*u,    B = O - s*(sqrt15 - sqrt3)/2*u,
    ao2 = 3*s*s,    ob2 = (9 - 3*sqrt5)*s*s/2,    ab2 = (9 + 3*sqrt5)*s*s/2.

The oracle computes these with `fraction_oracle.QuadExt` alone, from the
vertex's name and the side, and shares no code with `hexphi.exact`,
`hexphi.geometry` or `hexphi.tessellation`.  It is compared with
`construct_segments` per hexagon as a set of (A, B, ao2, ob2, ab2), so it
needs no angle order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import QuadExt
from hexphi.cli import MAX_SCAN_RADIUS
from hexphi.construction import build_cluster, construct_segments
from hexphi.tessellation import HexIndex, VertexRef, enumerate_vertices

HALF = Fraction(1, 2)
SQRT3 = QuadExt(0, 1)
# (cos, sin) of 60*k degrees for k = 0..5
UNIT_60 = tuple(
    (QuadExt(cos), QuadExt(0, sin_over_sqrt3))
    for cos, sin_over_sqrt3 in (
        (1, 0), (HALF, HALF), (-HALF, HALF), (-1, 0), (-HALF, -HALF), (HALF, -HALF)
    )
)
COS_30 = QuadExt(0, HALF)
SIN_30 = QuadExt(HALF)


def _coeffs(x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (x.a, x.b, x.c, x.d)


def _key(a, b, ao2, ob2, ab2) -> tuple:
    """Exact coefficients of one segment, comparable across the two kernels."""
    return tuple(_coeffs(x) for x in (a[0], a[1], b[0], b[1], ao2, ob2, ab2))


def closed_form(vertex: VertexRef, side: Fraction) -> dict[tuple[int, int], set[tuple]]:
    """{(q, r) of each incident hexagon: keys of its two segments}."""
    s = QuadExt(side)
    cx = s * Fraction(3, 2) * vertex.hex.q
    cy = s * SQRT3 * (Fraction(vertex.hex.q, 2) + vertex.hex.r)
    cos_k, sin_k = UNIT_60[vertex.corner]
    o = (cx + s * cos_k, cy + s * sin_k)
    ao2 = s * s * 3
    ob2 = s * s * QuadExt(Fraction(9, 2), 0, Fraction(-3, 2))
    ab2 = s * s * QuadExt(Fraction(9, 2), 0, Fraction(3, 2))
    a_reach = s * SQRT3
    b_reach = s * QuadExt(0, HALF, 0, -HALF)  # s*(sqrt3 - sqrt15)/2: B lies behind O
    found = {}
    # the center of hexagon (q, r) lies from O at 60*corner + 180 degrees,
    # and the other two centers 120 degrees on either side of it
    for turn in (3, 5, 1):
        ux, uy = UNIT_60[(vertex.corner + turn) % 6]
        center = (o[0] + s * ux, o[1] + s * uy)
        q = center[0].a / (side * Fraction(3, 2))
        r = center[1].b / side - q / 2
        assert q.denominator == 1 and r.denominator == 1
        segments = set()
        for sin in (SIN_30, -SIN_30):
            ex = ux * COS_30 - uy * sin
            ey = ux * sin + uy * COS_30
            a = (o[0] + a_reach * ex, o[1] + a_reach * ey)
            b = (o[0] + b_reach * ex, o[1] + b_reach * ey)
            segments.add(_key(a, b, ao2, ob2, ab2))
        found[(int(q), int(r))] = segments
    return found


def constructed(vertex: VertexRef, side: Fraction) -> dict[tuple[int, int], set[tuple]]:
    found: dict[tuple[int, int], set[tuple]] = {}
    for segment in construct_segments(build_cluster(vertex, side)):
        found.setdefault((segment.hex.q, segment.hex.r), set()).add(
            _key(
                (segment.a.x, segment.a.y),
                (segment.b.x, segment.b.y),
                segment.ao2,
                segment.ob2,
                segment.ab2,
            )
        )
    return found


def test_oracle_reads_the_unit_side_figure():
    # from the canonical vertex (1, 0) the center (0, 0) lies at 180 degrees;
    # A of both tangents to its small circle, at 150 and 210 degrees, has
    # x = 1 + sqrt3*cos(150 degrees) = -1/2
    segments = closed_form(VertexRef(HexIndex(0, 0), 0), Fraction(1))
    assert set(segments) == {(0, 0), (1, -1), (1, 0)}
    a_x = (QuadExt(1) + SQRT3 * QuadExt(0, -HALF)).a
    assert {key[0][0] for key in segments[(0, 0)]} == {a_x}
    assert all(len(keys) == 2 for keys in segments.values())


@pytest.mark.parametrize("side", [Fraction(1), Fraction(3, 7)])
def test_every_vertex_of_the_radius_4_patch(side):
    for vertex in enumerate_vertices(4):
        assert constructed(vertex, side) == closed_form(vertex, side), str(vertex)


@st.composite
def scan_vertices(draw) -> VertexRef:
    """A vertex of a hexagon in the scan's largest patch."""
    cap = MAX_SCAN_RADIUS
    q = draw(st.integers(-cap, cap))
    r = draw(st.integers(max(-cap, -cap - q), min(cap, cap - q)))
    return VertexRef(HexIndex(q, r), draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(
    scan_vertices(),
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**9),
)
def test_sides_and_vertices_up_to_the_scan_cap(vertex, side):
    assert constructed(vertex, side) == closed_form(vertex, side), str(vertex)
