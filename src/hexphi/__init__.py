"""Exact construction and golden-ratio verification of tangent segments
through the vertices of a regular hexagonal tessellation."""

from .construction import (
    Cluster,
    PhiReport,
    PhiSegment,
    build_cluster,
    construct_segments,
    make_report,
    verify_phi,
)
from .exact import (
    HALF_EVEN,
    PHI,
    SQRT3,
    SQRT5,
    SQRT15,
    TRUNCATE,
    NegativeInput,
    NotRepresentable,
    QuadExt,
    as_quadext,
    format_fraction,
    parse_rational,
    sign,
    sqrt_exact,
    to_decimal,
)
from .fibonacci import Convergent, assess_nearest, convergent, convergents
from .geometry import ParamLine, Point
from .render import render_svg
from .tessellation import HexIndex, VertexRef, enumerate_vertices, incident_hexagons

__version__ = "0.1.0"

__all__ = [
    "HALF_EVEN",
    "PHI",
    "SQRT3",
    "SQRT5",
    "SQRT15",
    "TRUNCATE",
    "Cluster",
    "Convergent",
    "HexIndex",
    "NegativeInput",
    "NotRepresentable",
    "ParamLine",
    "PhiReport",
    "PhiSegment",
    "Point",
    "QuadExt",
    "VertexRef",
    "as_quadext",
    "assess_nearest",
    "build_cluster",
    "construct_segments",
    "convergent",
    "convergents",
    "enumerate_vertices",
    "format_fraction",
    "incident_hexagons",
    "make_report",
    "parse_rational",
    "render_svg",
    "sign",
    "sqrt_exact",
    "to_decimal",
    "verify_phi",
    "__version__",
]
