"""The benchmark's tracer still finds the kernel: it wraps `QuadExt.__mul__`
and `QuadExt.inverse` by name and reads the coefficients of each product, and
it wraps `fibonacci.assess_nearest`, which every passing verify calls once.
The tracer and the work guards in test_construction wrap the same two
class-dict methods, so the benchmark's `exact.mul` and `exact.inverse` counts
are the ones those guards bound."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hexphi.cli as cli
from test_construction import _count_field_operations

ROOT = Path(__file__).resolve().parent.parent


def test_traced_verify_records_kernel_spans(tmp_path, monkeypatch, capsys):
    spans_path = tmp_path / "spans.tsv"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, str(ROOT / "bench" / "worker.py"), "--trace", str(spans_path),
               "--op", "0", "--", "verify", "--side", "3/7"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PHI-EXACT: PASS" in done.stdout
    # op, span id, parent id, name, start ns, end ns, largest coefficient bits
    spans = [line.split("\t") for line in spans_path.read_text().splitlines()]
    calls = Counter(span[3] for span in spans)
    assert calls["exact.mul"] > 0
    assert calls["exact.inverse"] > 0
    assert calls["fibonacci.assess_nearest"] == 1
    assert max(int(span[6]) for span in spans if span[3] == "exact.mul") > 0
    counts = _count_field_operations(monkeypatch)
    assert cli.main(["verify", "--side", "3/7"]) == 0
    assert capsys.readouterr().out == done.stdout
    assert calls["exact.mul"] == counts["mul"]
    assert calls["exact.inverse"] == counts["inverse"]
