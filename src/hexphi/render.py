"""Deterministic SVG rendering of a verified cluster.

The output is built from exact values only: every coordinate is a field
element rendered at a fixed number of fractional digits, so the same report
produces byte-identical SVG on every run and platform.  No floating point is
involved anywhere.  The document is first laid out with a numbered slot for
each distinct value, in first-use order; one :func:`hexphi.exact.to_decimals`
pass then rounds those values, sharing its powers of ten and integer roots
across the figure, and fills the slots.

Drawing order (back to front): hexagon outlines, small circles, middle
circles, large circles, tangent carrier lines, the six segments, point
markers, labels.  The mathematical y-axis points up, so the geometry sits in
a ``scale(1,-1)`` group and label text (which must not be mirrored) is placed
outside it with negated y.
"""

from __future__ import annotations

from fractions import Fraction

from .construction import PhiReport
from .exact import QuadExt, as_quadext, sign, to_decimals
from .geometry import _lower_half
from .tessellation import _corner

_SVG_OPEN = '<?xml version="1.0" encoding="UTF-8"?>\n'

# the one figure style: every number printed with 12 fraction digits, 100
# canvas units per unit of length, stroke widths in units of the side
_FRAC_DIGITS = 12
_CANVAS_SCALE = 100
_HEXAGON_STROKE = Fraction(1, 60)
_CIRCLE_STROKE = Fraction(1, 100)
_TANGENT_STROKE = Fraction(1, 150)
_SEGMENT_STROKE = Fraction(1, 40)
# shares of the figure: the margin of each side of the viewBox, of its width
# or height; a label's distance from its point and a marker's half width, of
# the viewBox size
_MARGIN = Fraction(1, 20)
_LABEL_OFFSET = Fraction(3, 100)
_MARKER_HALF = Fraction(1, 160)


def render_svg(report: PhiReport) -> str:
    """Serialize the report's cluster and its six segments as an SVG 1.1 document."""
    if len(report.segments) != 6:
        raise ValueError("expected the six tangent segments")
    cluster = report.cluster
    radii = cluster.radii  # a property that builds the three anew

    # each distinct value gets one slot, "{i}", filled by str.format once the
    # document is laid out: a center, a radius or an endpoint recurs across
    # layers.  The key is the reduced form, unique to each value, so a lookup
    # hashes a tuple of ints.  The document has no other braces
    slots: dict[tuple[tuple[int, int, int, int], int], str] = {}
    values: list[QuadExt] = []

    def fmt(value: QuadExt | int | Fraction) -> str:
        x = as_quadext(value)
        key = (x._num, x._den)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = f"{{{len(values)}}}"
            values.append(x)
        return slot

    # bounding box of the three large circles, plus 5% margin per side
    large = radii[2]
    xs = [center.x for _, center in cluster.centers]
    ys = [center.y for _, center in cluster.centers]
    x_min, x_max = min(xs) - large, max(xs) + large
    y_min, y_max = min(ys) - large, max(ys) + large
    width = x_max - x_min
    height = y_max - y_min
    margin_x = width * _MARGIN
    margin_y = height * _MARGIN
    vb_w = width + 2 * margin_x
    vb_h = height + 2 * margin_y
    view_box = (
        f"{fmt(x_min - margin_x)} {fmt(-(y_max + margin_y))} {fmt(vb_w)} {fmt(vb_h)}"
    )
    size = max(vb_w, vb_h)

    out: list[str] = [_SVG_OPEN]
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(vb_w * _CANVAS_SCALE)}" height="{fmt(vb_h * _CANVAS_SCALE)}" '
        f'viewBox="{view_box}">\n'
    )
    out.append(f'<g transform="scale({fmt(1)},{fmt(-1)})">\n')

    out.append(
        f'<g id="hexagons" fill="none" stroke="#303030" '
        f'stroke-width="{fmt(_HEXAGON_STROKE * cluster.side)}">\n'
    )
    for hexagon, _ in cluster.centers:
        corners = (_corner(hexagon, cluster.side, k) for k in range(6))
        points = " ".join(f"{fmt(p.x)},{fmt(p.y)}" for p in corners)
        out.append(f'<polygon points="{points}"/>\n')
    out.append("</g>\n")

    circle_stroke = fmt(_CIRCLE_STROKE * cluster.side)
    layers = (("small", "#9a9a9a"), ("middle", "#5b7fb5"), ("large", "#9a9a9a"))
    for (layer, color), radius in zip(layers, radii):
        out.append(
            f'<g id="{layer}-circles" fill="none" stroke="{color}" '
            f'stroke-width="{circle_stroke}">\n'
        )
        r = fmt(radius)
        for _, center in cluster.centers:
            out.append(f'<circle cx="{fmt(center.x)}" cy="{fmt(center.y)}" r="{r}"/>\n')
        out.append("</g>\n")

    # the six tangent rays lie on three carrier lines; draw each once,
    # spanning the large radius, 2*side, both ways from O (beyond every A and B)
    carriers: list[tuple[QuadExt, QuadExt]] = []
    for segment in report.segments:
        dx, dy = segment.line.dir
        if _lower_half((dx, dy)):
            dx, dy = -dx, -dy  # orient into the upper half-plane
        if (dx, dy) not in carriers:
            carriers.append((dx, dy))
    out.append(
        f'<g id="tangent-lines" stroke="#c9c9c9" '
        f'stroke-width="{fmt(_TANGENT_STROKE * cluster.side)}">\n'
    )
    for dx, dy in carriers:
        reach_x, reach_y = large * dx, large * dy
        out.append(
            f'<line x1="{fmt(cluster.o.x - reach_x)}" y1="{fmt(cluster.o.y - reach_y)}" '
            f'x2="{fmt(cluster.o.x + reach_x)}" y2="{fmt(cluster.o.y + reach_y)}"/>\n'
        )
    out.append("</g>\n")

    out.append(
        f'<g id="phi-segments" stroke="#c23a55" '
        f'stroke-width="{fmt(_SEGMENT_STROKE * cluster.side)}">\n'
    )
    # a segment builds its endpoints on each access: read them once here
    ends = [(segment.a, segment.b) for segment in report.segments]
    for a, b in ends:
        out.append(f'<line x1="{fmt(a.x)}" y1="{fmt(a.y)}" x2="{fmt(b.x)}" y2="{fmt(b.y)}"/>\n')
    out.append("</g>\n")

    # O, A1, B1, ..., A6, B6 and the place of each one's label: O's below left
    # of it, an endpoint's 3% of the viewBox size outward along its unit-length
    # carrier, so inside the field; point - O is t*dir, so outward is sign(t)
    offset = size * _LABEL_OFFSET
    o = cluster.o
    points = [("O", o, o.x - offset, o.y - offset)]
    for segment, (a, b) in zip(report.segments, ends):
        dx, dy = segment.line.dir
        push_x, push_y = offset * dx, offset * dy
        for end, point, t in (("A", a, segment.t_a), ("B", b, segment.t_b)):
            if sign(t) > 0:
                x, y = point.x + push_x, point.y + push_y
            else:
                x, y = point.x - push_x, point.y - push_y
            points.append((f"{end}{segment.k}", point, x, y))

    marker_half = size * _MARKER_HALF
    marker = fmt(2 * marker_half)
    out.append('<g id="markers" fill="#101010" stroke="none">\n')
    for _, point, _, _ in points:
        out.append(
            f'<rect x="{fmt(point.x - marker_half)}" y="{fmt(point.y - marker_half)}" '
            f'width="{marker}" height="{marker}"/>\n'
        )
    out.append("</g>\n")
    out.append("</g>\n")

    out.append(
        f'<g id="labels" font-family="monospace" font-size="{fmt(offset)}" '
        'fill="#101010" text-anchor="middle">\n'
    )
    for name, _, x, y in points:
        out.append(f'<text x="{fmt(x)}" y="{fmt(-y)}">{name}</text>\n')
    out.append("</g>\n")

    out.append("</svg>\n")
    return "".join(out).format(*to_decimals(values, _FRAC_DIGITS))
