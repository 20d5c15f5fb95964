from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import hexphi.render as render
from hexphi.construction import build_cluster, make_report
from hexphi.render import render_svg
from hexphi.tessellation import HexIndex, VertexRef

GOLDEN = Path(__file__).parent / "data" / "cluster_default.svg"

NUMERIC_ATTRS = {
    "width", "height", "viewBox", "x", "y", "x1", "y1", "x2", "y2",
    "cx", "cy", "r", "points", "stroke-width", "font-size", "transform",
}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _default_svg() -> str:
    return render_svg(make_report(build_cluster(VertexRef(HexIndex(0, 0), 0))))


def _tags(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    return [element.tag.rsplit("}", 1)[-1] for element in root.iter()]


def test_output_is_well_formed_svg11():
    root = ET.fromstring(_default_svg())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    assert len(root.get("viewBox").split()) == 4


def test_element_counts():
    tags = _tags(_default_svg())
    assert tags.count("polygon") == 3
    assert tags.count("circle") == 9
    assert tags.count("rect") == 13
    assert tags.count("text") == 13


def test_segment_lines_and_carriers():
    root = ET.fromstring(_default_svg())
    namespace = "{http://www.w3.org/2000/svg}"
    groups = {g.get("id"): g for g in root.iter(f"{namespace}g") if g.get("id")}
    assert len(groups["phi-segments"].findall(f"{namespace}line")) == 6
    assert len(groups["tangent-lines"].findall(f"{namespace}line")) == 3
    expected_order = [
        "hexagons", "small-circles", "middle-circles", "large-circles",
        "tangent-lines", "phi-segments", "markers", "labels",
    ]
    assert [gid for gid in (g.get("id") for g in root.iter(f"{namespace}g")) if gid] == expected_order


def test_label_texts():
    root = ET.fromstring(_default_svg())
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert texts == {"O"} | {f"A{k}" for k in range(1, 7)} | {f"B{k}" for k in range(1, 7)}


def test_every_numeric_attribute_has_exact_digits():
    for element in ET.fromstring(_default_svg()).iter():
        for attr, value in element.attrib.items():
            if attr not in NUMERIC_ATTRS:
                continue
            numbers = NUMBER.findall(value)
            assert numbers, (attr, value)
            for token in numbers:
                whole, _, frac = token.partition(".")
                assert len(frac) == 12, (attr, token)


def test_byte_determinism_across_runs():
    assert _default_svg() == _default_svg()
    cluster = build_cluster(VertexRef(HexIndex(1, -1), 2), Fraction(3, 2))
    first = render_svg(make_report(cluster))
    second = render_svg(make_report(cluster))
    assert first == second


def test_matches_golden_file():
    assert _default_svg() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("vertex, side, expected", [
    (VertexRef(HexIndex(0, 0), 0), Fraction(1), 60),
    (VertexRef(HexIndex(2, -1), 3), Fraction(5, 7), None),
])
def test_each_distinct_value_is_rounded_once(monkeypatch, vertex, side, expected):
    # a figure repeats centers, radii and endpoints across its layers; each
    # distinct field value is rounded once, equal values sharing a hash, in
    # the figure's one rounding pass
    report = make_report(build_cluster(vertex, side))
    passes = []
    to_decimals = render.to_decimals

    def recorded(values, frac_digits):
        passes.append(list(values))
        return to_decimals(passes[-1], frac_digits)

    monkeypatch.setattr(render, "to_decimals", recorded)
    render_svg(report)
    (rounded,) = passes
    assert len(rounded) == len(set(rounded))
    if expected is not None:
        assert len(rounded) == expected


def test_view_box_covers_large_circles_with_margin():
    root = ET.fromstring(_default_svg())
    x, y, w, h = (float(v) for v in root.get("viewBox").split())
    # large circles at side 1 span x in [-2, 3.5], y in [-sqrt3/2-2, sqrt3/2+2]
    sqrt3 = 3.0 ** 0.5
    assert x == pytest.approx(-2 - 5.5 / 20)
    assert w == pytest.approx(5.5 * 1.1)
    assert y == pytest.approx(-(sqrt3 / 2 + 2) - (sqrt3 + 4) / 20)
    assert h == pytest.approx((sqrt3 + 4) * 1.1)
