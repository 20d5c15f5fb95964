"""Fixed pieces of work that measure how slow the machine is right now.

The benchmark runs on shared hosts whose speed drifts by a factor of two or
more within minutes, with no change to the program.  Each timed piece of work
is therefore paired with a calibration, and the harness divides its time by
the calibration's slowness: how many times longer the calibration took than
its nominal time.  Times are then in seconds at one fixed machine speed.
Neither calibration touches hexphi, so a change to the program does not move
it.

- `slowness` is `fractions.Fraction` arithmetic on integers of up to about
  330 bits, the kind of work hexphi does.  It follows each op of a
  long-lived session, in the same process.
- `start_slowness` starts a bare interpreter.  It follows each op that runs
  in an interpreter of its own, and each timed start-up.  Such ops are mostly
  interpreter start-up and work on integers of thousands of bits, which do
  not speed up and slow down as the small arithmetic does, but as a bare
  start does.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

TERMS = 60
REPEATS = 10
ARITHMETIC_S = 0.001  # nominal time of the arithmetic, about what a fast core takes
START_S = 0.03  # nominal time of a bare interpreter's start, likewise


def _work() -> Fraction:
    total = Fraction(0)
    for _ in range(REPEATS):
        total = Fraction(0)
        for k in range(1, TERMS + 1):
            total += Fraction((-1) ** k, k * k + 1)
    return total


def slowness() -> float:
    """Time of the fixed arithmetic, with the collector off, over its nominal time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) / ARITHMETIC_S
    finally:
        if enabled:
            gc.enable()


def start_slowness() -> float:
    """Time to start and end an interpreter that does nothing, over its nominal time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) / START_S
