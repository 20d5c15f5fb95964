"""
Drawing the construction as a deterministic SVG
===============================================

"""

from hexphi import HexIndex, VertexRef, build_cluster, make_report, render_svg

report = make_report(build_cluster(VertexRef(HexIndex(0, 0), 0)))

# every coordinate in the file is an exact value printed to a fixed
# number of digits, so the bytes never change between runs
svg = render_svg(report)
print("figure:", len(svg), "bytes")
print(svg == render_svg(report), "(byte-identical on the second run)")

with open("cluster.svg", "w", encoding="utf-8") as handle:
    handle.write(svg)
print("wrote cluster.svg")
