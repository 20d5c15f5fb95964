from __future__ import annotations

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import float_oracle
import hexphi.cli as cli
import hexphi.construction as construction
import hexphi.exact as exact
import hexphi.fibonacci as fibonacci
import hexphi.geometry as geometry
import hexphi.render as render
import hexphi.tessellation as tessellation
from geometry_checks import is_tangent, squared_distance, squared_distance_point_line
from hexphi.construction import (
    PhiSegment,
    build_cluster,
    construct_segments,
    make_report,
    verify_phi,
)
from hexphi.exact import MAX_DIGITS, PHI, NotRepresentable, QuadExt, sign, sqrt_exact, to_decimal
from hexphi.fibonacci import convergent
from hexphi.geometry import Point, tangent_frame, tangent_lines_in_frame
from hexphi.tessellation import HexIndex, VertexRef, _corner, enumerate_vertices

HALF = Fraction(1, 2)
ORIGIN_VERTEX = VertexRef(HexIndex(0, 0), 0)

# squared lengths of the canonical unit-side construction
AO2 = QuadExt(3)
OB2 = QuadExt(Fraction(9, 2), 0, Fraction(-3, 2))
AB2 = QuadExt(Fraction(9, 2), 0, Fraction(3, 2))


def test_build_cluster_canonical_example():
    cluster = build_cluster(ORIGIN_VERTEX)
    assert cluster.o == Point(1, 0)
    assert cluster.centers == (
        (HexIndex(0, 0), Point(0, 0)),
        (HexIndex(1, -1), Point(Fraction(3, 2), QuadExt(0, -HALF))),
        (HexIndex(1, 0), Point(Fraction(3, 2), QuadExt(0, HALF))),
    )


def test_build_cluster_radii_are_1_2_4():
    assert build_cluster(ORIGIN_VERTEX, 2).radii == (QuadExt(1), QuadExt(2), QuadExt(4))


def test_build_cluster_vertex_on_every_middle_circle():
    cluster = build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7))
    middle = cluster.radii[1]
    for _, center in cluster.centers:
        assert squared_distance(cluster.o, center) == middle * middle


def test_build_cluster_finds_each_center_once(monkeypatch):
    # O is a corner of vertex.hex, which is one of the three incident hexagons
    called = []
    center = construction._center

    def counted(hexagon, side):
        called.append(hexagon)
        return center(hexagon, side)

    monkeypatch.setattr(construction, "_center", counted)
    for vertex in (ORIGIN_VERTEX, VertexRef(HexIndex(2, -1), 3), VertexRef(HexIndex(-3, 1), 5)):
        called.clear()
        cluster = build_cluster(vertex, Fraction(5, 7))
        assert called == [hexagon for hexagon, _ in cluster.centers]
        assert cluster.o == _corner(vertex.hex, Fraction(5, 7), vertex.corner)


def test_build_cluster_input_validation():
    with pytest.raises(ValueError):
        build_cluster(ORIGIN_VERTEX, 0)
    with pytest.raises(ValueError):
        build_cluster(ORIGIN_VERTEX, Fraction(-1, 2))
    with pytest.raises(TypeError):
        build_cluster(ORIGIN_VERTEX, 1.0)


def test_six_segments_with_expected_squared_lengths():
    segments = construct_segments(build_cluster(ORIGIN_VERTEX))
    assert [segment.k for segment in segments] == [1, 2, 3, 4, 5, 6]
    for segment in segments:
        assert segment.ao2 == AO2
        assert segment.ob2 == OB2
        assert segment.ab2 == AB2


def test_segment_hexagon_grouping():
    segments = construct_segments(build_cluster(ORIGIN_VERTEX))
    assert [segment.hex for segment in segments] == [
        HexIndex(0, 0), HexIndex(0, 0),
        HexIndex(1, -1), HexIndex(1, -1),
        HexIndex(1, 0), HexIndex(1, 0),
    ]


def test_segments_scale_quadratically_with_side():
    segments = construct_segments(build_cluster(ORIGIN_VERTEX, 2))
    for segment in segments:
        assert segment.ao2 == AO2 * 4
        assert segment.ob2 == OB2 * 4
        assert segment.ab2 == AB2 * 4


def test_lines_are_tangent_to_their_small_circles():
    cluster = build_cluster(ORIGIN_VERTEX)
    segments = construct_segments(cluster)
    centers = dict(cluster.centers)
    small = cluster.radii[0]
    for segment in segments:
        assert is_tangent(segment.line, centers[segment.hex], small)


def test_endpoints_lie_on_their_circles():
    cluster = build_cluster(ORIGIN_VERTEX, Fraction(3, 2))
    centers = dict(cluster.centers)
    _, middle, large = cluster.radii
    for segment in construct_segments(cluster):
        assert squared_distance(segment.a, centers[segment.hex]) == middle * middle
        assert squared_distance(segment.b, centers[segment.hex]) == large * large


def test_segment_keeps_parameters_and_builds_endpoints_on_demand():
    segment = construct_segments(build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7)))[0]
    assert segment._fields == ("k", "hex", "line", "t_a", "t_b", "ao2", "ob2", "ab2")
    (ox, oy), (dx, dy) = segment.line
    assert segment.a == Point(ox + segment.t_a * dx, oy + segment.t_a * dy)
    assert segment.b == Point(ox + segment.t_b * dx, oy + segment.t_b * dy)
    assert segment.a is not segment.a  # built anew on each access, never cached
    assert list(segment.to_json()) == ["k", "hex", "A", "B", "ao2", "ob2", "ab2"]


def test_o_lies_strictly_between_a_and_b():
    cluster = build_cluster(ORIGIN_VERTEX)
    for segment in construct_segments(cluster):
        to_a = (segment.a.x - cluster.o.x, segment.a.y - cluster.o.y)
        to_b = (segment.b.x - cluster.o.x, segment.b.y - cluster.o.y)
        dot = to_a[0] * to_b[0] + to_a[1] * to_b[1]
        assert sign(dot) == -1
        assert squared_distance_point_line(cluster.o, segment.line) == QuadExt(0)


def test_six_segments_lie_on_three_carrier_lines():
    segments = construct_segments(build_cluster(ORIGIN_VERTEX))
    carriers = []
    for segment in segments:
        dx, dy = segment.line.dir
        cross_products = [dx * ey - dy * ex for ex, ey in carriers]
        if all(sign(cp) != 0 for cp in cross_products):
            carriers.append((dx, dy))
    assert len(carriers) == 3


def test_verify_phi_holds_on_real_segments():
    for segment in construct_segments(build_cluster(ORIGIN_VERTEX, Fraction(7, 3))):
        assert verify_phi(segment) == (True, True)


def test_verify_phi_rejects_a_doctored_segment():
    segment = construct_segments(build_cluster(ORIGIN_VERTEX))[0]
    shrunk = segment._replace(ob2=segment.ao2 / 4)
    assert verify_phi(shrunk) == (True, False)
    stretched = segment._replace(ab2=segment.ab2 * 2)
    assert verify_phi(stretched) == (False, True)


def _verify_json(capsys, *argv) -> tuple[int, dict]:
    code = cli.main(["verify", "--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_report_for_canonical_cluster(capsys):
    # a report is the construction's verdict; the ratio is verify's to print
    cluster = build_cluster(ORIGIN_VERTEX)
    report = make_report(cluster)
    assert report._fields == ("cluster", "segments", "phi_exact_ok", "equal_lengths_ok")
    assert report.cluster == cluster
    assert report.phi_exact_ok
    assert report.equal_lengths_ok
    assert len(report.segments) == 6
    code, payload = _verify_json(capsys)
    assert code == 0
    assert payload["ratio_decimal"] == "1.6180339887"
    assert payload["fibonacci"] is not None
    assert payload["fibonacci"]["n"] > 11


def test_report_json_shape(capsys):
    report = make_report(build_cluster(ORIGIN_VERTEX))
    payload = report.to_json()
    assert list(payload) == ["vertex", "side", "segments", "phi_exact_ok", "equal_lengths_ok"]
    assert payload["vertex"] == "0,0,0"
    assert payload["side"] == "1/1"
    assert payload["phi_exact_ok"] is True
    assert payload["equal_lengths_ok"] is True
    code, verified = _verify_json(capsys)
    assert code == 0
    assert list(verified) == [*payload, "ratio_decimal", "fibonacci"]
    assert verified["ratio_decimal"] == "1.6180339887"
    assert set(verified["fibonacci"]) == {"n", "ratio", "variance"}
    assert len(payload["segments"]) == 6
    first = payload["segments"][0]
    assert first["k"] == 1 and first["hex"] == "0,0"
    assert first["ao2"]["a"] == "3/1"
    assert first["ao2"]["decimal"] == "3.000000000000"
    assert first["A"]["x"].keys() == {"a", "b", "c", "d", "decimal"}


def test_report_checks_every_distinct_triple(monkeypatch, capsys):
    # segments that share a triple share one check, but a segment whose
    # triple differs gets its own: doctoring any one past the first alone
    # must fail both the identity and the equal lengths
    cluster = build_cluster(ORIGIN_VERTEX)
    segments = construct_segments(cluster)
    for index in range(1, 6):
        doctored = list(segments)
        doctored[index] = segments[index]._replace(ab2=segments[index].ab2 * 2)
        monkeypatch.setattr(construction, "construct_segments", lambda _cluster: tuple(doctored))
        report = make_report(cluster)
        assert not report.phi_exact_ok
        assert not report.equal_lengths_ok
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("segment ")] == [
            f"segment {index + 1}: |AB|^2 == Phi^2 * |AO|^2 fails",
        ]
        assert "segments have 2 distinct |AB|^2 values" in out
        assert "PHI-EXACT: FAIL" in out


def test_report_on_a_doctored_segment_fails(monkeypatch, capsys):
    cluster = build_cluster(ORIGIN_VERTEX)
    first, *rest = construct_segments(cluster)
    doctored = (first._replace(ab2=first.ab2 * 2), *rest)
    monkeypatch.setattr(construction, "construct_segments", lambda _cluster: doctored)
    report = make_report(cluster)
    assert report.segments == doctored
    assert not report.phi_exact_ok
    assert not report.equal_lengths_ok
    # no ratio on a FAIL: the identity failed, so the ratio is not phi
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "PHI-EXACT: FAIL" in out
    assert not [line for line in out.splitlines() if line.startswith("ratio =")]
    assert "nearest convergent" not in out
    code, payload = _verify_json(capsys)
    assert code == 1
    assert payload["ratio_decimal"] is None
    assert payload["fibonacci"] is None


def test_construction_guards_raise_domain_errors():
    # a ValueError is a usage error to the CLI; an ArithmeticError such as
    # NotRepresentable would escape `main`
    moved = build_cluster(ORIGIN_VERTEX)._replace(o=Point(0, 0))
    with pytest.raises(ValueError, match="vertex must lie on the middle circle"):
        construct_segments(moved)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("shift", [(Fraction(1, 3), 0), (0, QuadExt(0, 1)), (1, 1)])
def test_a_moved_center_fails_its_own_guard(index, shift):
    # the three hexagons share one tangent frame only because each guard
    # holds; a center off that distance must stop at its guard, before any
    # root of its own distance could raise NotRepresentable
    cluster = build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7))
    centers = list(cluster.centers)
    hexagon, center = centers[index]
    centers[index] = (hexagon, Point(center.x + shift[0], center.y + shift[1]))
    moved = cluster._replace(centers=tuple(centers))
    with pytest.raises(ValueError, match=f"middle circle of hexagon {hexagon}$") as raised:
        construct_segments(moved)
    assert not isinstance(raised.value, NotRepresentable)
    assert raised.value.__context__ is None


@pytest.mark.parametrize("side", [Fraction(1), Fraction(5, 7), Fraction(10**40, 3)])
def test_lines_match_the_public_tangent_solver(side):
    # the shared frame turned toward each center gives exactly the lines
    # that each hexagon's own frame, from its own distance to O, gives
    for vertex in enumerate_vertices(3):
        cluster = build_cluster(vertex, side)
        segments = construct_segments(cluster)
        for hexagon, center in cluster.centers:
            lines = [segment.line for segment in segments if segment.hex == hexagon]
            cx, cy = center.x - cluster.o.x, center.y - cluster.o.y
            frame = tangent_frame(cx * cx + cy * cy, QuadExt(side / 2))
            assert lines == tangent_lines_in_frame(cluster.o, cx, cy, frame)


# the modules whose names tests rebind to count calls to an `exact` function
_BINDING_MODULES = (exact, geometry, construction, render, fibonacci, tessellation)


def _count_field_operations(monkeypatch) -> dict[str, int]:
    """From now on, count `QuadExt` muls and inverses, and `exact._dot` calls
    wherever a module binds the name, into the returned dict.  A `_dot` that
    falls back to two products counts them as muls too."""
    counts = {"mul": 0, "dot": 0, "inverse": 0}
    mul, inverse, dot = QuadExt.__mul__, QuadExt.inverse, exact._dot

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    def counted_dot(*args):
        counts["dot"] += 1
        return dot(*args)

    monkeypatch.setattr(QuadExt, "__mul__", counted_mul)
    monkeypatch.setattr(QuadExt, "__rmul__", counted_mul)
    monkeypatch.setattr(QuadExt, "inverse", counted_inverse)
    for module in _BINDING_MODULES:
        if getattr(module, "_dot", None) is dot:
            monkeypatch.setattr(module, "_dot", counted_dot)
    return counts


def test_construction_field_operation_counts(monkeypatch):
    # pins the work of one construction without timing it: the counts of
    # the concentric solve, with one 1/|O - C|^2 for the shared tangent frame
    # and one 1/lead per distinct (lead, half); the six lines of a cluster
    # share one, and no endpoint is built until it is read.  Each two-term
    # sum of products is one `_dot`: per hexagon the guard and the four
    # components of the two directions, per line lead and half, and the
    # solve's discriminant; none falls back, or the muls would grow by two
    cluster = build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7))
    counts = _count_field_operations(monkeypatch)
    construct_segments(cluster)
    assert counts == {"mul": 13, "dot": 28, "inverse": 2}


def test_lines_share_a_solve_by_value_not_by_position(monkeypatch):
    # a direction scaled by 2 is the same line with other (lead, half): it
    # gets its own solve, one more inverse, and the same points and lengths
    cluster = build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7))
    counts = _count_field_operations(monkeypatch)
    plain = construct_segments(cluster)
    plain_inverses = counts["inverse"]
    tangent_lines = construction.tangent_lines_in_frame
    scaled = []

    def one_direction_doubled(p, cx, cy, frame):
        lines = tangent_lines(p, cx, cy, frame)
        if not scaled:
            dx, dy = lines[1].dir
            lines[1] = geometry.ParamLine(p, (dx * 2, dy * 2))
            scaled.append(lines[1])
        return lines

    monkeypatch.setattr(construction, "tangent_lines_in_frame", one_direction_doubled)
    counts["inverse"] = 0
    doubled = construct_segments(cluster)
    assert counts["inverse"] == plain_inverses + 1
    assert doubled[1].line is scaled[0] != plain[1].line
    for before, after in zip(plain, doubled):
        assert (after.a, after.b, after.ao2, after.ob2, after.ab2) == (
            before.a, before.b, before.ao2, before.ob2, before.ab2)


def test_verify_command_field_operation_counts(monkeypatch, capsys):
    # a whole `verify` checks the identities once per distinct (ao2, ob2,
    # ab2) triple, in make_report: one triple, so two muls
    counts = _count_field_operations(monkeypatch)
    assert cli.main(["verify", "--vertex", "2,-1,3", "--side", "5/7"]) == 0
    assert "PHI-EXACT: PASS" in capsys.readouterr().out
    assert counts == {"mul": 15, "dot": 28, "inverse": 2}


def test_default_figure_field_operation_counts(monkeypatch, capsys, tmp_path):
    # the construction, the carriers' orientation and each label's side read
    # from the sign of its endpoint's t, with no product of point and direction
    counts = _count_field_operations(monkeypatch)
    assert cli.main(["render", "--out", str(tmp_path / "figure.svg")]) == 0
    assert counts == {"mul": 66, "dot": 28, "inverse": 2}


def _count_endpoint_reads(monkeypatch) -> list[tuple[str, int]]:
    """From now on, record each read of a segment's `a` or `b` as ``(end, k)``."""
    reads = []
    a, b = PhiSegment.a, PhiSegment.b

    def counted(end, endpoint):
        def read(segment):
            reads.append((end, segment.k))
            return endpoint.fget(segment)
        return property(read)

    monkeypatch.setattr(PhiSegment, "a", counted("A", a))
    monkeypatch.setattr(PhiSegment, "b", counted("B", b))
    return reads


def test_text_verify_and_scan_build_no_endpoint(monkeypatch, capsys):
    # the verdict reads t_A, t_B and the squared lengths; only a JSON
    # report or a figure prints A and B, so only they build the points
    reads = _count_endpoint_reads(monkeypatch)
    assert cli.main(["verify", "--vertex", "2,-1,3", "--side", "5/7"]) == 0
    assert cli.main(["scan", "--radius", "1"]) == 0
    assert "SCAN: PASS" in capsys.readouterr().out
    assert reads == []


def test_json_verify_and_render_build_each_endpoint_once(monkeypatch, capsys, tmp_path):
    once = sorted((end, k) for end in "AB" for k in range(1, 7))
    reads = _count_endpoint_reads(monkeypatch)
    assert cli.main(["verify", "--json", "--vertex", "2,-1,3", "--side", "5/7"]) == 0
    assert sorted(reads) == once
    reads.clear()
    assert cli.main(["render", "--out", str(tmp_path / "figure.svg")]) == 0
    assert sorted(reads) == once


def _count_calls(monkeypatch, function) -> list[int]:
    """From now on, count calls to an `exact` function wherever a module binds its name."""
    calls = []

    def counted(*args):
        calls.append(1)
        return function(*args)

    for module in _BINDING_MODULES:
        if getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def test_sign_calls_per_verify_and_per_cluster(monkeypatch, capsys):
    # a cluster is its centers and side: no circle to check, so no sign call;
    # the tangent frame takes no sign either, since O is always outside the
    # small circles (a negative squared tangent length fails in sqrt_exact);
    # a hexagon's tangent pair takes at most two, the half-plane of each
    # direction, and a solve one, the side of t_A
    calls = _count_calls(monkeypatch, sign)
    build_cluster(VertexRef(HexIndex(2, -1), 3), Fraction(5, 7))
    assert len(calls) == 0
    assert cli.main(["verify", "--vertex", "2,-1,3", "--side", "5/7"]) == 0
    assert "PHI-EXACT: PASS" in capsys.readouterr().out
    assert len(calls) <= 6


def test_fib_table_makes_no_sign_call(monkeypatch, capsys):
    # each row's variance takes its sign from an int (Cassini), not from `abs`;
    # consecutive Fibonacci numbers are coprime, so no row takes a gcd either
    calls = _count_calls(monkeypatch, sign)
    gcds = _count_calls(monkeypatch, exact._reduced)
    assert cli.main(["fib", "--max", "500"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 502
    assert len(calls) == 0
    assert len(gcds) == 0


def test_assess_makes_no_sign_call(monkeypatch, capsys):
    # the target's side of phi is the sign of the int p^2 - pq - q^2
    calls = _count_calls(monkeypatch, sign)
    for ratio in ("1.6181818181", "1.6", "3/2", "89/55", "1e-9", "1000"):
        assert cli.main(["assess", "--ratio", ratio]) == 0
    assert capsys.readouterr().out.count("variance = ") == 6
    assert len(calls) == 0


def test_square_roots_per_verify(monkeypatch, capsys):
    # the tangent length once for the shared frame, and one quarter
    # discriminant per distinct (lead, half)
    calls = _count_calls(monkeypatch, sqrt_exact)
    assert cli.main(["verify", "--vertex", "2,-1,3", "--side", "5/7"]) == 0
    assert "PHI-EXACT: PASS" in capsys.readouterr().out
    assert 0 < len(calls) <= 2


def test_all_patch_vertices_verify():
    for vertex in enumerate_vertices(2):
        report = make_report(build_cluster(vertex))
        assert report.phi_exact_ok, str(vertex)
        assert report.equal_lengths_ok, str(vertex)


def test_segment_lengths_identical_across_vertices():
    reference = construct_segments(build_cluster(ORIGIN_VERTEX))
    for vertex in (VertexRef(HexIndex(0, 0), 1), VertexRef(HexIndex(-2, 1), 4)):
        segments = construct_segments(build_cluster(vertex))
        assert [s.ao2 for s in segments] == [s.ao2 for s in reference]
        assert [s.ob2 for s in segments] == [s.ob2 for s in reference]
        assert [s.ab2 for s in segments] == [s.ab2 for s in reference]


def test_matches_float_brute_force_construction():
    cluster = build_cluster(ORIGIN_VERTEX)
    segments = construct_segments(cluster)
    (ox, oy), expected = float_oracle.segments(0, 0, 0)
    assert float_oracle.point_to_floats(cluster.o) == pytest.approx((ox, oy), abs=1e-12)
    assert len(expected) == 6
    for segment, (hexagon, a_pt, b_pt) in zip(segments, expected):
        assert (segment.hex.q, segment.hex.r) == hexagon
        ax, ay = float_oracle.point_to_floats(segment.a)
        bx, by = float_oracle.point_to_floats(segment.b)
        assert ax == pytest.approx(a_pt[0], abs=1e-12)
        assert ay == pytest.approx(a_pt[1], abs=1e-12)
        assert bx == pytest.approx(b_pt[0], abs=1e-12)
        assert by == pytest.approx(b_pt[1], abs=1e-12)


def test_float_agreement_at_other_vertices_and_sides():
    for vertex, side in (
        (VertexRef(HexIndex(1, -1), 2), Fraction(1)),
        (VertexRef(HexIndex(0, 1), 5), Fraction(3, 2)),
    ):
        cluster = build_cluster(vertex, side)
        segments = construct_segments(cluster)
        _, expected = float_oracle.segments(
            vertex.hex.q, vertex.hex.r, vertex.corner, float(side)
        )
        for segment, (_, a_pt, b_pt) in zip(segments, expected):
            assert float_oracle.point_to_floats(segment.a) == pytest.approx(a_pt, abs=1e-12)
            assert float_oracle.point_to_floats(segment.b) == pytest.approx(b_pt, abs=1e-12)


def test_closed_form_lengths_against_oracle():
    segments = construct_segments(build_cluster(ORIGIN_VERTEX))
    import math

    for segment in segments:
        ao = math.sqrt(float_oracle.quad_to_float(segment.ao2))
        ab = math.sqrt(float_oracle.quad_to_float(segment.ab2))
        assert ao == pytest.approx(math.sqrt(3), abs=1e-12)
        assert ab == pytest.approx((math.sqrt(3) + math.sqrt(15)) / 2, abs=1e-12)
    assert to_decimal(PHI * PHI * 3, 10) == to_decimal(AB2, 10)


def test_report_at_the_digit_limit_hands_the_ratio_over_exactly(monkeypatch, capsys):
    # a 4300-digit ratio has a 4301-digit numerator, which parse_rational
    # rejects from users; the search itself is covered in test_fraction_oracle
    seen = []

    def nearest(target):
        seen.append(target)
        return convergent(2)

    monkeypatch.setattr(cli, "assess_nearest", nearest)
    assert cli.main(["verify", "--digits", str(MAX_DIGITS)]) == 0
    ratio_decimal = to_decimal(PHI, MAX_DIGITS)
    assert f"ratio = {ratio_decimal}\n" in capsys.readouterr().out
    assert seen == [Fraction(ratio_decimal)]


def test_construction_imports_only_the_layers_below_it():
    # a report is the construction's verdict: the decimal ratio and the
    # convergent search belong to `verify`, so no fibonacci and no to_decimal
    tree = ast.parse(Path(construction.__file__).read_text(encoding="utf-8"))
    local: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.partition(".")[0] != "hexphi", node.module
        elif isinstance(node, ast.Import):
            assert all(alias.name.partition(".")[0] != "hexphi" for alias in node.names)
    assert set(local) == {"exact", "geometry", "tessellation"}
    assert "to_decimal" not in local["exact"]
