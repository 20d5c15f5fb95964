"""Deterministic SVG rendering of a verified cluster.

The output is built from exact values only: every coordinate is a field
element rendered through :func:`hexphi.exact.to_decimal` at a fixed number of
fractional digits, so the same report produces byte-identical SVG on every
run and platform.  No floating point is involved anywhere.

Drawing order (back to front): hexagon outlines, small circles, middle
circles, large circles, tangent carrier lines, the six segments, point
markers, labels.  The mathematical y-axis points up, so the geometry sits in
a ``scale(1,-1)`` group and label text (which must not be mirrored) is placed
outside it with negated y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import Cluster, PhiReport
from .exact import QuadExt, positive_rational, sign, to_decimal
from .geometry import Point
from .tessellation import hex_corners

_SVG_OPEN = '<?xml version="1.0" encoding="UTF-8"?>\n'


@dataclass(frozen=True)
class RenderOptions:
    """Knobs for the SVG output; strokes are in units of the side length."""

    frac_digits: int = 12
    canvas_scale: Fraction = Fraction(100)
    show_labels: bool = True
    hexagon_stroke: Fraction = Fraction(1, 60)
    circle_stroke: Fraction = Fraction(1, 100)
    tangent_stroke: Fraction = Fraction(1, 150)
    segment_stroke: Fraction = Fraction(1, 40)

    def __post_init__(self) -> None:
        if not isinstance(self.frac_digits, int) or self.frac_digits < 1:
            raise ValueError("frac_digits must be a positive integer")
        for name in ("canvas_scale", "hexagon_stroke", "circle_stroke",
                     "tangent_stroke", "segment_stroke"):
            object.__setattr__(self, name, positive_rational(name, getattr(self, name)))


def render_svg(report: PhiReport, cluster: Cluster, options: RenderOptions | None = None) -> str:
    """Serialize the cluster and its verified segments as an SVG 1.1 document."""
    opts = options or RenderOptions()
    if report.vertex != cluster.vertex or report.side != cluster.side:
        raise ValueError("report does not describe this cluster")
    if len(report.segments) != 6:
        raise ValueError("expected the six tangent segments")

    def fmt(value: QuadExt | int | Fraction) -> str:
        return to_decimal(value, opts.frac_digits)

    # bounding box of the three large circles, plus 5% margin per side
    xs: list[QuadExt] = []
    ys: list[QuadExt] = []
    for triple in cluster.triples:
        center = triple.large.center
        radius = triple.large.radius
        xs += [center.x - radius, center.x + radius]
        ys += [center.y - radius, center.y + radius]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    width = x_max - x_min
    height = y_max - y_min
    margin_x = width * Fraction(1, 20)
    margin_y = height * Fraction(1, 20)
    vb_w = width + 2 * margin_x
    vb_h = height + 2 * margin_y
    view_box = (
        f"{fmt(x_min - margin_x)} {fmt(-(y_max + margin_y))} {fmt(vb_w)} {fmt(vb_h)}"
    )
    size = max(vb_w, vb_h)

    out: list[str] = [_SVG_OPEN]
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(vb_w * opts.canvas_scale)}" height="{fmt(vb_h * opts.canvas_scale)}" '
        f'viewBox="{view_box}">\n'
    )
    out.append(f'<g transform="scale({fmt(1)},{fmt(-1)})">\n')

    out.append(
        f'<g id="hexagons" fill="none" stroke="#303030" '
        f'stroke-width="{fmt(opts.hexagon_stroke * cluster.side)}">\n'
    )
    for triple in cluster.triples:
        corners = hex_corners(triple.hex, cluster.side)
        points = " ".join(f"{fmt(p.x)},{fmt(p.y)}" for p in corners)
        out.append(f'<polygon points="{points}"/>\n')
    out.append("</g>\n")

    circle_stroke = fmt(opts.circle_stroke * cluster.side)
    for layer, color in (("small", "#9a9a9a"), ("middle", "#5b7fb5"), ("large", "#9a9a9a")):
        out.append(
            f'<g id="{layer}-circles" fill="none" stroke="{color}" '
            f'stroke-width="{circle_stroke}">\n'
        )
        for triple in cluster.triples:
            circle = getattr(triple, layer)
            out.append(
                f'<circle cx="{fmt(circle.center.x)}" cy="{fmt(circle.center.y)}" '
                f'r="{fmt(circle.radius)}"/>\n'
            )
        out.append("</g>\n")

    # the six tangent rays lie on three carrier lines; draw each once,
    # spanning 2*side both ways from O (beyond every A and B endpoint)
    carriers: list[tuple[QuadExt, QuadExt]] = []
    for segment in report.segments:
        dx, dy = segment.line.dir
        if sign(dy) < 0 or (sign(dy) == 0 and sign(dx) < 0):
            dx, dy = -dx, -dy  # orient into the upper half-plane
        if (dx, dy) not in carriers:
            carriers.append((dx, dy))
    reach = 2 * cluster.side
    out.append(
        f'<g id="tangent-lines" stroke="#c9c9c9" '
        f'stroke-width="{fmt(opts.tangent_stroke * cluster.side)}">\n'
    )
    for dx, dy in carriers:
        out.append(
            f'<line x1="{fmt(cluster.o.x - reach * dx)}" y1="{fmt(cluster.o.y - reach * dy)}" '
            f'x2="{fmt(cluster.o.x + reach * dx)}" y2="{fmt(cluster.o.y + reach * dy)}"/>\n'
        )
    out.append("</g>\n")

    out.append(
        f'<g id="phi-segments" stroke="#c23a55" '
        f'stroke-width="{fmt(opts.segment_stroke * cluster.side)}">\n'
    )
    for segment in report.segments:
        out.append(
            f'<line x1="{fmt(segment.a.x)}" y1="{fmt(segment.a.y)}" '
            f'x2="{fmt(segment.b.x)}" y2="{fmt(segment.b.y)}"/>\n'
        )
    out.append("</g>\n")

    marker_half = size * Fraction(1, 160)
    marker_points: list[tuple[str, Point]] = [("O", cluster.o)]
    for segment in report.segments:
        marker_points.append((f"A{segment.k}", segment.a))
        marker_points.append((f"B{segment.k}", segment.b))
    out.append('<g id="markers" fill="#101010" stroke="none">\n')
    for _, point in marker_points:
        out.append(
            f'<rect x="{fmt(point.x - marker_half)}" y="{fmt(point.y - marker_half)}" '
            f'width="{fmt(2 * marker_half)}" height="{fmt(2 * marker_half)}"/>\n'
        )
    out.append("</g>\n")
    out.append("</g>\n")

    if opts.show_labels:
        out.append(_labels(report, cluster, marker_points, size, fmt))

    out.append("</svg>\n")
    return "".join(out)


def _labels(report: PhiReport, cluster: Cluster, marker_points, size, fmt) -> str:
    """Label block in already-flipped (SVG) coordinates.

    Endpoint labels are pushed outward along their carrier direction by 3%
    of the viewBox size, which stays inside the field because the carrier
    directions of this construction are unit vectors.
    """
    offset = size * Fraction(3, 100)
    by_name = {f"A{s.k}": s for s in report.segments}
    by_name.update({f"B{s.k}": s for s in report.segments})
    chunks = [
        f'<g id="labels" font-family="monospace" font-size="{fmt(offset)}" '
        'fill="#101010" text-anchor="middle">\n'
    ]
    for name, point in marker_points:
        if name == "O":
            x = point.x - offset
            y = point.y - offset
        else:
            segment = by_name[name]
            dx, dy = segment.line.dir
            outward = sign((point.x - cluster.o.x) * dx + (point.y - cluster.o.y) * dy)
            x = point.x + outward * offset * dx
            y = point.y + outward * offset * dy
        chunks.append(f'<text x="{fmt(x)}" y="{fmt(-y)}">{name}</text>\n')
    chunks.append("</g>\n")
    return "".join(chunks)
