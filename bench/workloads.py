"""Seeded op streams for the three workloads.

An op is one ``hexphi`` argv plus what the checker needs to know about it.
The generators know nothing of the ``hexphi`` package: vertices, sides and
digit counts are drawn here with ``random.Random(seed)``, and the program only
ever sees the generated argv.

Ops come in cycles.  The harness stops only at the end of a cycle, so each
cycle is laid out to hold a fixed mix (one op of each kind in ``deep``, one
heavy op per twenty in ``session``).  Within a kind, sizes follow a golden
ratio (Weyl) sequence from a seeded start: every prefix of it covers the size
range evenly, so two seeds give different inputs but nearly the same spread
of sizes, which keeps the medians steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

PATCH_RADIUS = 8
PATCH_VERTICES = 486  # 6 * (PATCH_RADIUS + 1) ** 2

# corner k of hexagon (q, r) with unit side sits at
#   x = 3q/2 + cos(60k),   y = sqrt3 * (q/2 + r) + sin(60k);
# (2x, 2y/sqrt3) is then an integer pair that names the point exactly
_TWICE_COS = (2, 1, -1, -2, -1, 1)
_TWICE_SIN_OVER_SQRT3 = (0, 1, 1, 0, -1, -1)

_WEYL_STEP = 0.6180339887498949  # frac(Phi): the most evenly spread additive step


@dataclass(frozen=True)
class Op:
    """One CLI call.  `kind` selects the output check; the rest parameterise it."""

    kind: str  # "verify", "fib", "assess" or "render"
    argv: tuple[str, ...]
    vertex: tuple[int, int, int] = (0, 0, 0)
    side: Fraction = Fraction(1)
    digits: int = 10
    figure: int = -1  # render: index into the workload's figure pool; 0 is the golden figure


def vertex_key(q: int, r: int, corner: int) -> tuple[int, int]:
    """Exact integer name of the geometric point at corner `corner` of hexagon (q, r)."""
    return (3 * q + _TWICE_COS[corner], q + 2 * r + _TWICE_SIN_OVER_SQRT3[corner])


class Patch:
    """The vertices of the radius-8 hexagon patch, with every name and every edge."""

    def __init__(self, radius: int = PATCH_RADIUS) -> None:
        self.aliases: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self.neighbours: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for q in range(-radius, radius + 1):
            for r in range(-radius, radius + 1):
                if abs(q + r) > radius:
                    continue
                for corner in range(6):
                    here = vertex_key(q, r, corner)
                    there = vertex_key(q, r, (corner + 1) % 6)
                    self.aliases.setdefault(here, []).append((q, r, corner))
                    self.neighbours.setdefault(here, set()).add(there)
                    self.neighbours.setdefault(there, set()).add(here)
        self.keys = sorted(self.aliases)
        if len(self.keys) != 6 * (radius + 1) ** 2:
            raise RuntimeError(f"patch has {len(self.keys)} vertices, expected {6 * (radius + 1) ** 2}")

    def random_name(self, rng: random.Random) -> tuple[int, int, int]:
        """A random (q, r, corner) name of a random vertex."""
        return rng.choice(self.aliases[rng.choice(self.keys)])

    def walk(self, rng: random.Random):
        """Endless random walk along hexagon edges; yields one (q, r, corner) name per step."""
        key = rng.choice(self.keys)
        while True:
            yield rng.choice(self.aliases[key])
            key = rng.choice(sorted(self.neighbours[key]))


def _rational(rng: random.Random, max_bits: int = 20) -> Fraction:
    """Positive rational whose numerator and denominator each have 1 to `max_bits` bits."""
    parts = []
    for _ in range(2):
        bits = rng.randint(1, max_bits)
        parts.append(rng.randint(1 << (bits - 1), (1 << bits) - 1))
    return Fraction(parts[0], parts[1])


def _side_text(side: Fraction) -> str:
    return f"{side.numerator}/{side.denominator}"


def _vertex_text(vertex: tuple[int, int, int]) -> str:
    # always "--vertex=q,r,c": argparse reads "--vertex -1,0,3" as a missing value
    return "--vertex={},{},{}".format(*vertex)


def _sizes(rng: random.Random, low: int, high: int):
    """Endless sizes in [low, high] along a Weyl sequence from a seeded start."""
    u = rng.random()
    while True:
        yield low + round(u * (high - low))
        u = (u + _WEYL_STEP) % 1.0


def verify_op(vertex: tuple[int, int, int], side: Fraction, digits: int) -> Op:
    argv = ("verify", _vertex_text(vertex), "--side", _side_text(side))
    if digits != 10:
        argv += ("--digits", str(digits))
    return Op("verify", argv, vertex=vertex, side=side, digits=digits)


def phi_prefix(frac_digits: int) -> str:
    """Phi truncated to `frac_digits` fractional digits, from `decimal`."""
    with localcontext() as ctx:
        ctx.prec = frac_digits + 20
        phi = (1 + Decimal(5).sqrt()) / 2
    return format(phi, "f")[: frac_digits + 2]


def scan(seed: int, out_dir: str):
    """One verify per op at the default 10 digits, along a walk over the patch."""
    rng = random.Random(seed)
    walk = Patch().walk(rng)
    while True:
        yield [verify_op(next(walk), _rational(rng), 10)]


def deep(seed: int, out_dir: str):
    """Cycles of one high-digit verify, one long fib table and one long assess."""
    rng = random.Random(seed)
    digits = _sizes(rng, 200, 1000)
    rows = _sizes(rng, 200, 800)
    ratio_digits = _sizes(rng, 50, 400)
    while True:
        cycle = []
        for kind in rng.sample(("verify", "fib", "assess"), 3):
            if kind == "verify":
                d = next(digits)
                cycle.append(Op("verify", ("verify", "--digits", str(d)), digits=d))
            elif kind == "fib":
                cycle.append(Op("fib", ("fib", "--max", str(next(rows)))))
            else:
                text = phi_prefix(next(ratio_digits))
                last = (int(text[-1]) + rng.randint(1, 9)) % 10
                cycle.append(Op("assess", ("assess", "--ratio", text[:-1] + str(last))))
        yield cycle


# one session cycle: 19 light ops and one heavy verify, in seeded order.  The
# mix is fixed rather than drawn, so that the median lands inside the cluster
# of light verifies and the 75th percentile inside the cluster of (slower)
# figures, not in the gap between them, where a few more figures in one run
# would move it.  The 5:14 split of figures to verifies is a choice made for
# steady percentiles; no measure of real usage gives it.
SESSION_CYCLE = ("heavy",) + ("render",) * 5 + ("verify",) * 14
SESSION_FIGURES = 8


def session(seed: int, out_dir: str):
    """Cycles of 19 light ops (figures and low-digit verifies) and one high-digit verify.

    Figures are drawn from a pool of eight (vertex, side) pairs so that each is
    rendered many times; pool entry 0 is the default figure, whose bytes are
    known, and the first figure of the run is always that one.
    """
    rng = random.Random(seed)
    patch = Patch()
    pool = [((0, 0, 0), Fraction(1))]
    while len(pool) < SESSION_FIGURES:
        pool.append((patch.random_name(rng), _rational(rng)))
    heavy_digits = _sizes(rng, 300, 1000)
    out = f"{out_dir}/figure.svg"
    first_figure = True
    while True:
        cycle = []
        for kind in rng.sample(SESSION_CYCLE, len(SESSION_CYCLE)):
            if kind == "heavy":
                d = next(heavy_digits)
                cycle.append(Op("verify", ("verify", "--digits", str(d)), digits=d))
            elif kind == "render":
                figure = 0 if first_figure else rng.randrange(SESSION_FIGURES)
                first_figure = False
                vertex, side = pool[figure]
                argv = ("render", "--out", out, _vertex_text(vertex), "--side", _side_text(side))
                cycle.append(Op("render", argv, vertex=vertex, side=side, figure=figure))
            else:
                cycle.append(verify_op(patch.random_name(rng), _rational(rng), rng.randint(10, 12)))
        yield cycle


WORKLOADS = {"scan": scan, "deep": deep, "session": session}
