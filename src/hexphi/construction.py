"""The tangent-segment construction at a tessellation vertex and its exact
golden-ratio verification.

Around a vertex O shared by three hexagons, each hexagon contributes three
concentric circles centered on its center C: radii side/2, side and 2*side
(relationship 1:2:4, the middle one circumscribing the hexagon and passing
through O).  From O, two tangents are drawn to each small circle, giving six
tangent lines.  A line O + t*dir meets a circle of radius r about C where
lead*t^2 - 2*half*t + |O - C|^2 - r^2 = 0, for lead = |dir|^2 and
half = (C - O).dir.  A is the middle circle's crossing other than O, at
t_A = 2*half/lead (Vieta), and B is the large circle's crossing on the
other side of O: O lies inside it, so its roots differ in sign (the power of
a point, Euclid III.35-36).  The claim verified here, exactly and per
segment, is that O divides AB in the golden ratio:

    AB = phi * AO  and  AO = phi * OB.

Both identities are checked multiplicatively on squared lengths
(ab2 == phi**2 * ao2 and ao2 == phi**2 * ob2), which avoids division while
still pinning the ratio, since all quantities are positive.  A, O and B are
collinear, so ao2 = t_A^2*lead, ob2 = t_B^2*lead and ab2 = (t_A - t_B)^2*lead.
A segment therefore keeps its line, t_A and t_B, and its endpoints A and B
are ``O + t*dir``, computed from t_A and t_B on demand: the verdict reads
only the squared lengths, and only a JSON report or a figure prints A and B.

Work is shared by value, never by position.  The tangent frame (the tangent
length and the radius, each over |O - C|^2) depends only on |O - C|^2
and the small radius, and the per-hexagon guard demands |O - C|^2 = side^2,
so a construction takes one frame and turns it toward each of the three
centers.  Past lead and half, a line's solve (1/lead, t_A, the square root,
t_B and the three squared lengths) depends on nothing else of the line, so
one solve is shared by every line with equal (lead, half), and the golden
identities are checked once per distinct (ao2, ob2, ab2) triple.  The six
lines of a cluster come out with equal values, so a verify solves and checks
once; a line whose values differ gets its own solve and its own check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import PHI, QuadExt, _dot, _reduced, format_fraction, positive_rational, sign, sqrt_exact
from .geometry import Point, tangent_frame, tangent_lines_in_frame
from .tessellation import VertexRef, _center, _corner, incident_hexagons

_PHI_SQUARED = PHI * PHI


class Cluster(namedtuple("Cluster", "vertex side o centers")):
    """A vertex O and the centers of its three incident hexagons, in sorted order.

    Each center carries three concentric circles whose radii, `radii`, follow
    from the side alone; the middle one passes through O.  `centers` holds
    one ``(HexIndex, Point)`` pair per hexagon.
    """

    __slots__ = ()

    @property
    def radii(self) -> tuple[QuadExt, QuadExt, QuadExt]:
        """The small, middle and large radius: side/2, side and 2*side."""
        p, q = self.side.numerator, self.side.denominator
        return _reduced(p, 0, 0, 0, 2 * q), _reduced(p, 0, 0, 0, q), _reduced(2 * p, 0, 0, 0, q)


class PhiSegment(namedtuple("PhiSegment", "k hex line t_a t_b ao2 ob2 ab2")):
    """One tangent segment A-B through O, with exact squared lengths.

    A and B sit at parameters `t_a` and `t_b` on `line`; the `a` and `b`
    properties build them anew on each access.
    """

    __slots__ = ()

    @property
    def a(self) -> Point:
        return self._point_at(self.t_a)

    @property
    def b(self) -> Point:
        return self._point_at(self.t_b)

    def _point_at(self, t: QuadExt) -> Point:
        (ox, oy), (dx, dy) = self.line
        return Point._make((ox + t * dx, oy + t * dy))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "hex": str(self.hex),
            "A": self.a.to_json(),
            "B": self.b.to_json(),
            "ao2": self.ao2.to_json(),
            "ob2": self.ob2.to_json(),
            "ab2": self.ab2.to_json(),
        }


class PhiReport(namedtuple("PhiReport", "cluster segments phi_exact_ok equal_lengths_ok")):
    """Verification verdict for one cluster."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertex": str(self.cluster.vertex),
            "side": format_fraction(self.cluster.side),
            "segments": [segment.to_json() for segment in self.segments],
            "phi_exact_ok": self.phi_exact_ok,
            "equal_lengths_ok": self.equal_lengths_ok,
        }


def build_cluster(vertex: VertexRef, side: int | Fraction = 1) -> Cluster:
    """The cluster at `vertex` of hexagons of side `side`: O and three centers.

    O lies on each middle circle because a hexagon's circumradius equals its side.
    """
    side = positive_rational("side", side)
    centers = tuple((hexagon, _center(hexagon, side)) for hexagon in incident_hexagons(vertex))
    o = _corner(vertex.hex, side, vertex.corner)
    return Cluster(vertex=vertex, side=side, o=o, centers=centers)


def construct_segments(cluster: Cluster) -> tuple[PhiSegment, ...]:
    """The six tangent segments through O, numbered 1..6.

    Hexagons are visited in their sorted order; within a hexagon the two
    tangent lines come ordered by direction angle.  On each line A is the
    middle-circle crossing other than O (Vieta) and B the large-circle
    crossing on the opposite side of O (the power of O, one square root).
    One tangent frame serves the three hexagons, and lines with equal
    ``(lead, half)`` share one solve within the call.
    """
    small, middle, large = cluster.radii
    middle2 = middle * middle
    # |O - C|^2 - (2*side)^2 once O is on the middle circle: -3*side^2, so O is inside
    const = middle2 - large * large
    # the guard below demands |O - C|^2 == middle2 of every hexagon, so all
    # three share the frame of a small circle at that distance
    frame = tangent_frame(middle2, small)
    o = cluster.o
    ox, oy = o
    # ((lead, half), solution) pairs met so far in this call; a cluster's six
    # lines meet one key, so a short list is cheaper than hashing four values
    solved = []
    segments = []
    for hexagon, center in cluster.centers:
        cx = center.x - ox
        cy = center.y - oy
        if _dot(cx, cx, cy, cy) != middle2:
            raise ValueError(f"vertex must lie on the middle circle of hexagon {hexagon}")
        for line in tangent_lines_in_frame(o, cx, cy, frame):
            dx, dy = line.dir
            key = (_dot(dx, dx, dy, dy), _dot(cx, dx, cy, dy))  # (lead, half)
            for seen, solution in solved:
                if seen == key:
                    break
            else:
                solution = _solve(*key, const)
                solved.append((key, solution))
            segments.append(PhiSegment(len(segments) + 1, hexagon, line, *solution))
    return tuple(segments)


def _solve(
    lead: QuadExt, half: QuadExt, const: QuadExt
) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt, QuadExt]:
    """t_A, t_B and the squared lengths ao2, ob2, ab2 on a line with these values.

    Along the line the middle circle is ``lead*t^2 - 2*half*t = 0`` and the
    large one ``lead*t^2 - 2*half*t + const = 0``, with ``const < 0``.
    """
    inv_lead = lead.inverse()
    t_a = (half + half) * inv_lead
    root = sqrt_exact(_dot(half, half, lead, -const))  # quarter discriminant, > 0
    t_b = (half + (root if sign(t_a) < 0 else -root)) * inv_lead
    t_ab = t_a - t_b
    return t_a, t_b, t_a * t_a * lead, t_b * t_b * lead, t_ab * t_ab * lead


def verify_phi(segment: PhiSegment) -> tuple[bool, bool]:
    """(AB = phi*AO, AO = phi*OB), each checked exactly on squared lengths."""
    return (
        segment.ab2 == _PHI_SQUARED * segment.ao2,
        segment.ao2 == _PHI_SQUARED * segment.ob2,
    )


def make_report(cluster: Cluster) -> PhiReport:
    """Construct and check one cluster.

    ``phi_exact_ok`` demands both identities on every segment, checked once
    per distinct ``(ao2, ob2, ab2)`` triple; ``equal_lengths_ok`` demands all
    ab2 values be field-equal.
    """
    segments = construct_segments(cluster)
    phi_exact_ok = True
    checked = []  # triples that passed; a short list, as in construct_segments
    for segment in segments:
        lengths = (segment.ao2, segment.ob2, segment.ab2)
        if lengths in checked:
            continue
        if not all(verify_phi(segment)):
            phi_exact_ok = False
            break
        checked.append(lengths)
    first_ab2 = segments[0].ab2
    equal_lengths_ok = all(segment.ab2 == first_ab2 for segment in segments[1:])
    return PhiReport(cluster, segments, phi_exact_ok, equal_lengths_ok)
