"""
Every tessellation vertex is a phi center
=========================================

"""

from fractions import Fraction

from hexphi import HexIndex, VertexRef, build_cluster, enumerate_vertices, make_report

# all distinct vertices of the patch of hexagons with |q|,|r|,|q+r| <= 2
vertices = enumerate_vertices(2)
print("vertices in patch:", len(vertices))

failures = 0
for vertex in vertices:
    report = make_report(build_cluster(vertex, side=Fraction(5, 7)))
    if not (report.phi_exact_ok and report.equal_lengths_ok):
        failures += 1
        print("FAILED at", vertex)
print("failures:", failures)

# a vertex can be addressed from any of its three incident hexagons;
# aliases canonicalize to the same reference and the same point
a = VertexRef(HexIndex(0, 0), 0)
b = VertexRef(HexIndex(1, -1), 2)
c = VertexRef(HexIndex(1, 0), 4)
print("aliases collapse:", a == b == c)
point = build_cluster(a).o
print("shared point: ({}, {})".format(point.x, point.y))
