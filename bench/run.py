"""hexphi benchmark: one client drives ``hexphi.cli.main`` in a closed loop.

    python3 bench/run.py --workload scan|deep|session --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; hexphi is loaded from its
``src``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see bench/README.md).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "cluster_default.svg"
OUT = ROOT / ".bench_out"  # scratch files during a run, spans after a traced one
WORKER = BENCH / "worker.py"

NPROC = len(os.sched_getaffinity(0))  # as `nproc` reports it, before the run pins itself
CPU = min(os.sched_getaffinity(0))  # the one core a run uses
SETUP_RUNS = 15  # set-up is timed this many times per run; the median is reported
CALIBRATION_WINDOW = 2  # an op is scaled by the median slowness of the ops this near it
DEADLINE_S = 170  # a run that is still going then is stopped without a result

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the span names it adds up; ".calls" counts them, ".self_ms" sums self time
PER_LAYER: dict[str, tuple[str, ...]] = {}
for _name in ("exact.mul", "exact.inverse", "exact.sign", "exact.to_decimal", "exact.sqrt_exact",
              "geometry.tangent_lines_from_point", "geometry.line_circle_intersections",
              "geometry.squared_distance", "fibonacci.assess_nearest", "fibonacci.convergent",
              "fibonacci.fib", "render.render_svg"):
    PER_LAYER[f"{_name}.calls"] = PER_LAYER[f"{_name}.self_ms"] = (_name,)
PER_LAYER["tessellation.self_ms"] = tuple(f"tessellation.{fn}" for fn in tracer.FUNCTIONS["tessellation"])
for _fn in tracer.FUNCTIONS["construction"]:
    PER_LAYER[f"construction.{_fn}.self_ms"] = (f"construction.{_fn}",)
PER_LAYER["cli.main.self_ms"] = ("cli.main",)
LAYER_EXTRA = {"exact.coeff_bits_max": "bits", "trace.overhead_ratio": "ratio"}


class Failure(Exception):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Server:
    """A long-lived worker process holding one hexphi session."""

    def __init__(self, spans_path: str | None = None) -> None:
        command = [sys.executable, str(WORKER), "--serve"]
        if spans_path is not None:
            command += ["--trace", spans_path]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        try:
            if self.proc.stdout.readline() != "ready\n":
                raise Failure("the worker did not start; is src/hexphi importable?")
        except BaseException:
            self.kill()
            raise

    def call(self, op: workloads.Op) -> tuple[int, str, str, float, float]:
        self.proc.stdin.write(json.dumps(op.argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failure(f"the worker exited during {' '.join(op.argv)}")
        reply = json.loads(line)
        return reply["code"], reply["out"], reply["err"], reply["seconds"], reply["slowness"]

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise Failure(f"the worker exited with code {self.proc.returncode}")
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


class Client:
    """The one client: sends the next op only after the previous one has returned.

    ``deep`` starts a fresh interpreter per op, times it from spawn to exit
    and then measures `calibrate.start_slowness`; ``scan`` and ``session``
    send ops to one long-lived `Server`, which times ``hexphi.cli.main`` and
    then measures `calibrate.slowness`.  Either way at most one child runs at
    a time; in a traced run two clients are open, but they take turns
    (`run_ops`).
    """

    def __init__(self, workload: str, spans_dir: str | None) -> None:
        self.spans_dir = spans_dir
        self.server = None
        if workload != "deep":
            self.server = Server(spans_dir and os.path.join(spans_dir, "session.tsv"))

    def call(self, index: int, op: workloads.Op) -> tuple[int, str, str, float, float]:
        if self.server is not None:
            return self.server.call(op)
        command = [sys.executable, str(WORKER)]
        if self.spans_dir is not None:
            command += ["--trace", os.path.join(self.spans_dir, f"op{index}.tsv"), "--op", str(index)]
        start = time.perf_counter()
        proc = subprocess.Popen([*command, "--", *op.argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        took = time.perf_counter() - start
        return proc.returncode, out, err, took, calibrate.start_slowness()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, kind, value, trace) -> None:
        if self.server is None:
            return
        if kind is None:
            self.server.close()
        else:
            self.server.kill()


def _problem(op: workloads.Op, code: int, out: str, err: str, figures) -> str | None:
    """Why the op failed, or None when its exit code and output are right."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    try:
        if op.kind == "render":
            figures.check(op, out)
        else:
            reference.CHECKS[op.kind](op, out)
    except (reference.Mismatch, ValueError, OSError) as exc:
        return str(exc)
    return None


def run_ops(clients: list[Client], cycles, seconds: float, figures) -> list[list[tuple]]:
    """Run whole cycles until `seconds` have passed, each op on every client.

    Clients take turns op by op, and the one that goes first alternates, so a
    change in the machine's speed during the run touches each client alike.
    Returns, per client, one (op, seconds, slowness, problem) record per op.
    """
    records: list[list[tuple]] = [[] for _ in clients]
    start = time.perf_counter()
    for cycle in cycles:
        for op in cycle:
            index = len(records[0])
            order = range(len(clients)) if index % 2 == 0 else reversed(range(len(clients)))
            for which in order:
                code, out, err, took, slowness = clients[which].call(index, op)
                problem = _problem(op, code, out, err, figures)
                if problem is not None:
                    print(f"FAILED {' '.join(op.argv)[:120]}: {problem}", file=sys.stderr)
                records[which].append((op, took, slowness, problem))
        if time.perf_counter() - start >= seconds:
            break
    return records


def scaled(pairs: list[tuple[float, float]]) -> list[float]:
    """Each (seconds, slowness) pair as seconds at the reference speed.

    A time is divided by the median slowness of its neighbours within
    `CALIBRATION_WINDOW`, so that one slow calibration does not shrink its op.
    """
    slowness = [slow for _took, slow in pairs]
    return [took / statistics.median(slowness[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1])
            for i, (took, _slow) in enumerate(pairs)]


def measure_setup() -> tuple[float, dict[str, float]]:
    """Median time from spawning a session worker until hexphi is imported.

    Returns it scaled to the reference speed, and the medians as measured of
    it and of its calibration.  Each start-up follows the start of a bare
    interpreter, its calibration; one start-up before them warms the file
    cache and is not counted.
    """
    Server().close()
    pairs = []
    for _ in range(SETUP_RUNS):
        slowness = calibrate.start_slowness()
        start = time.perf_counter()
        server = Server()
        try:
            took = time.perf_counter() - start
        finally:
            server.close()
        pairs.append((took, slowness))
    return statistics.median(scaled(pairs)), {
        "setup_s": statistics.median(took for took, _ in pairs),
        "setup_slowness": statistics.median(slow for _, slow in pairs),
    }


def end_to_end(records: list[tuple], setup_s: float) -> dict[str, float]:
    took = scaled([(seconds, slowness) for _op, seconds, slowness, _problem in records])
    quartiles = statistics.quantiles(took, n=4, method="inclusive") if len(took) > 1 else took * 3
    return {
        "setup_s": setup_s,
        "ops_per_s": len(took) / sum(took),
        "latency_p50_ms": statistics.median(took) * 1e3,
        "latency_p75_ms": quartiles[2] * 1e3,
        # every child, set-up ones included, has been waited for by now
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(spans: list, ops: int, overhead: float) -> dict[str, float]:
    totals, bits_max = tracer.layer_totals(spans)
    metrics = {}
    for metric, names in PER_LAYER.items():
        calls = metric.endswith(".calls")
        value = sum(totals.get(name, (0, 0))[0 if calls else 1] for name in names) / ops
        metrics[metric] = value if calls else value / 1e6
    metrics["exact.coeff_bits_max"] = bits_max
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def _units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update({metric: "count/op" if metric.endswith(".calls") else "ms/op" for metric in PER_LAYER})
    units.update(LAYER_EXTRA)
    return units


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git checkout."""
    # the ceiling keeps git from taking a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metadata(args: argparse.Namespace, measured: dict) -> dict:
    src_lines = 0
    for path in sorted((SRC / "hexphi").glob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu": CPU,
        "git_commit": _git_commit(),
        "src_hexphi_lines": src_lines,
        # as measured, before scaling to the reference speed; never gated
        "measured": measured,
    }


def run(args: argparse.Namespace, scratch: str) -> tuple[dict, dict]:
    """The result line, and the unscaled figures for the metadata."""
    figures = reference.FigureBook(GOLDEN.read_bytes())
    cycles = workloads.WORKLOADS[args.workload](args.seed, scratch)
    if not args.trace:
        setup_s, measured = measure_setup()
        with Client(args.workload, None) as client:
            [records] = run_ops([client], cycles, args.seconds, figures)
        metrics = end_to_end(records, setup_s)
        took = [seconds for _op, seconds, _slowness, _problem in records]
        measured.update(ops_per_s=len(took) / sum(took), latency_p50_ms=statistics.median(took) * 1e3)
    else:
        # every op twice, untraced and traced, in separate processes that take
        # turns op by op; per-layer figures come from the traced ones
        spans_dir = os.path.join(scratch, "spans")
        os.mkdir(spans_dir)
        with Client(args.workload, None) as plain, Client(args.workload, spans_dir) as tracing:
            untraced, traced = run_ops([plain, tracing], cycles, args.seconds, figures)
        spans = []
        for name in sorted(os.listdir(spans_dir)):
            spans += tracer.read_spans(os.path.join(spans_dir, name))
        overhead = sum(scaled([r[1:3] for r in traced])) / sum(scaled([r[1:3] for r in untraced]))
        metrics = per_layer(spans, len(traced), overhead)
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz", "wt") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tcoeff_bits\n")
            handle.writelines("\t".join(map(str, span)) + "\n" for span in spans)
        records = untraced + traced
        measured = {}
    slowness = [r[2] for r in records]
    measured["slowness"] = [min(slowness), statistics.median(slowness), max(slowness)]
    units = _units()
    failed = sum(1 for *_record, problem in records if problem is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, measured


def _deadline(signum, frame) -> None:
    raise Failure(f"the run did not finish within {DEADLINE_S} s")


def _terminated(signum, frame) -> None:
    raise Failure("the run was terminated")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "hexphi" / "cli.py", GOLDEN):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run inside a hexphi checkout",
                  file=sys.stderr)
            return 2
    # cores of a shared host run at different speeds, so the harness, its
    # children and the calibration all stay on one
    os.sched_setaffinity(0, {CPU})
    # every process started from here caches bytecode inside the checkout, so
    # that each start-up after the first imports compiled code, as an
    # installed package does, whatever the caller's environment says
    os.environ["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result, measured = run(args, scratch)
        meta = _metadata(args, measured)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
