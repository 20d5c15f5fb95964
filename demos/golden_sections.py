"""
Six tangent segments, all divided by phi at the shared vertex
=============================================================

"""

from hexphi import (PHI, HexIndex, VertexRef, build_cluster, construct_segments, make_report,
                    to_decimal, verify_phi)

# three hexagons meet at corner 0 of the hexagon at axial (0, 0)
cluster = build_cluster(VertexRef(HexIndex(0, 0), 0), side=1)
print("shared vertex O = ({}, {})".format(cluster.o.x, cluster.o.y))
for hexagon, _center in cluster.centers:
    print("hexagon", hexagon, "radii", *cluster.radii)

# each tangent from O to a small circle crosses a middle circle at A
# and a large circle at B, on opposite sides of O
segments = construct_segments(cluster)
for segment in segments:
    ab_ok, ao_ok = verify_phi(segment)
    print(
        f"segment {segment.k}: hexagon {segment.hex}",
        f"AO^2 = {segment.ao2}, OB^2 = {segment.ob2}, AB^2 = {segment.ab2}",
        f"AB = phi*AO: {ab_ok}, AO = phi*OB: {ao_ok}",
    )

# the report holds the verdicts; once they pass, the ratio is phi itself
report = make_report(cluster)
print("phi exact on all six:", report.phi_exact_ok)
print("all six lengths equal:", report.equal_lengths_ok)
print("AB/AO = AO/OB =", to_decimal(PHI, 12))
