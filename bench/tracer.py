"""Spans around calls into each hexphi layer, recorded from outside the package.

`Tracer.install` replaces each function named in `FUNCTIONS` (and the two
`QuadExt` methods in `METHODS`) by a timing wrapper.  The wrapper goes in
every place a hexphi module binds the original: construction, geometry,
fibonacci and render bind `sign` and `to_decimal` with ``from .exact import``,
so patching `hexphi.exact` alone would miss their calls.

The largest coefficient bit length of a mul result is measured inside the
mul's own span, so that its cost (about 4% of a mul on `scan`) is counted in
`exact.mul` and not in the caller.  Spans stay in memory until `write`.  A span's self time is its duration minus
the time its traced children cover; `layer_totals` works that out afterwards
from the spans alone.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "exact": ("sign", "to_decimal", "sqrt_exact"),
    "geometry": ("tangent_lines_from_point", "line_circle_intersections", "squared_distance"),
    "tessellation": ("hex_center", "hex_corners", "vertex_point", "incident_hexagons",
                     "enumerate_vertices"),
    "construction": ("build_cluster", "construct_segments", "make_report"),
    "fibonacci": ("assess_nearest", "convergent", "fib"),
    "render": ("render_svg",),
    "cli": ("main",),
}
METHODS = {"exact.mul": "__mul__", "exact.inverse": "inverse"}  # of hexphi.exact.QuadExt

# one span: (op, span id, parent span id or -1, name, start ns, end ns, largest coefficient bits)
Span = tuple[int, int, int, str, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0  # index of the op being run, stamped on each span
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, measure=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            bits = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    bits = measure(result)  # inside the span: its cost is this call's own
            finally:
                spans.append((tracer.op, span, parent, name, start, clock(), bits))
                stack.pop()
            return result

        return traced

    def install(self) -> None:
        import hexphi.cli  # noqa: F401  (loads every layer)
        from hexphi.exact import QuadExt

        def coeff_bits(x) -> int:
            if not isinstance(x, QuadExt):
                return 0
            return max(max(c.numerator.bit_length(), c.denominator.bit_length())
                       for c in (x.a, x.b, x.c, x.d))

        wrappers = {}
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"hexphi.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hexphi" and not module_name.startswith("hexphi."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for metric, method in METHODS.items():
            fn = QuadExt.__dict__.get(method)
            if fn is None:
                continue
            wrapped = self.wrap(metric, fn, coeff_bits if method == "__mul__" else None)
            for attr, value in list(vars(QuadExt).items()):
                if value is fn:  # __rmul__ is the same function as __mul__
                    setattr(QuadExt, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines("\t".join(map(str, span)) + "\n" for span in self.spans)


def read_spans(path: str) -> list[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            op, span, parent, name, start, end, bits = line.rstrip("\n").split("\t")
            spans.append((int(op), int(span), int(parent), name, int(start), int(end), int(bits)))
    return spans


def layer_totals(spans: list[Span]) -> tuple[dict[str, list[int]], int]:
    """({span name: [calls, self ns]}, largest coefficient bit length seen)."""
    covered: dict[tuple[int, int], int] = defaultdict(int)
    for op, _span, parent, _name, start, end, _bits in spans:
        if parent >= 0:
            covered[(op, parent)] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    bits_max = 0
    for op, span, _parent, name, start, end, bits in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start - covered.get((op, span), 0)
        bits_max = max(bits_max, bits)
    return dict(totals), bits_max
