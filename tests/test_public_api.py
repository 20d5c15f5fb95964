"""The names `hexphi` exports; a change to them shows up here as a diff."""

from __future__ import annotations

import hexphi

PUBLIC_NAMES = [
    "Cluster",
    "Convergent",
    "HALF_EVEN",
    "HexIndex",
    "NegativeInput",
    "NotRepresentable",
    "PHI",
    "ParamLine",
    "PhiReport",
    "PhiSegment",
    "Point",
    "QuadExt",
    "SQRT15",
    "SQRT3",
    "SQRT5",
    "TRUNCATE",
    "VertexRef",
    "__version__",
    "as_quadext",
    "assess_nearest",
    "build_cluster",
    "construct_segments",
    "convergent",
    "convergents",
    "enumerate_vertices",
    "format_fraction",
    "hex_corners",
    "incident_hexagons",
    "make_report",
    "parse_rational",
    "render_svg",
    "sign",
    "sqrt_exact",
    "to_decimal",
    "verify_phi",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(hexphi.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(hexphi, name), name
