"""Quick check of the benchmark itself: correctness only, never timings.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and requires every
op to pass its output check and every metric of BENCHMARK.json to be
reported with its unit.  It also shows that the output checks reject a
changed digit, and that the benchmark refuses to run without the program.
Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402
from run import OUT, child_env  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def runs_every_workload(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                        f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result['failed']} of {result['attempted']} ops "
                  f"failed: {proc.stderr[-500:]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} metrics differ from BENCHMARK.json")
            print(f"smoke: {workload} trace={trace}: {result['attempted']} ops correct")


def checks_reject_a_changed_digit() -> None:
    ops = [next(workloads.scan(3, ""))[0], *next(workloads.deep(3, ""))]
    for op in ops:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--", *op.argv],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        reference.CHECKS[op.kind](op, proc.stdout)  # passes as printed
        # change the last digit of the last line with digits, then of the longest line
        lines = proc.stdout.splitlines()
        numbered = [i for i, line in enumerate(lines) if any(ch.isdigit() for ch in line)]
        for at in (numbered[-1], max(numbered, key=lambda i: len(lines[i]))):
            line = lines[at]
            last = max(i for i, ch in enumerate(line) if ch.isdigit())
            wrong = lines[:]
            wrong[at] = line[:last] + str((int(line[last]) + 1) % 10) + line[last + 1:]
            try:
                reference.CHECKS[op.kind](op, "\n".join(wrong) + "\n")
            except reference.Mismatch:
                continue
            check(False, f"the {op.kind} check accepted a changed digit in line {at}")
    print(f"smoke: output checks reject changed digits in {len(ops)} ops")


def refuses_without_program() -> None:
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "scan", 0)
        check(proc.returncode != 0, "ran without src/hexphi")
        check('"correct"' not in proc.stdout, "printed a result without src/hexphi")
    finally:
        shutil.rmtree(bare)
    print("smoke: refuses to run without the program")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks_reject_a_changed_digit()
    refuses_without_program()
    runs_every_workload(spec)
    print("smoke: ok")


if __name__ == "__main__":
    main()
