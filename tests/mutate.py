"""Single-site mutation testing of hexphi's modules, stdlib only.

Each mutant changes one site inside a function of one module:

- a comparison operator flips: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swap;
- ``+`` and ``-`` swap, and ``*`` becomes ``+``;
- an int constant n becomes n + 1.

A mutant is named by its module, its function and its source text before and
after, for example ``geometry._lower_half: sy < 0 -> sy <= 0``, never by line
number, so a name survives edits elsewhere in the file.  The text is the
mutated expression, or for a constant the expression around it.  A name met
twice in one module gets `` #2``, `` #3``... in order of appearance.

Each mutant in turn runs the whole Tier-1 suite with ``-x`` in one copy of
the repository, the module's own test file first.  A mutant is killed when the
suite fails, or times out (a hang), and survives when it passes.  A survivor
must be listed, with a one-line argument, in
``tests/data/equivalent_mutants.json``, and a listed mutant must survive, or
the run exits 1.  A survivor costs a whole suite run, so this is not part
of Tier-1; `tests/test_mutate.py` only checks that every listed mutant still
names a site.

    python3 tests/mutate.py                  # construction, geometry, tessellation
    python3 tests/mutate.py exact fibonacci  # other modules
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hexphi"
EQUIVALENTS = ROOT / "tests" / "data" / "equivalent_mutants.json"
DEFAULT_MODULES = ("construction", "geometry", "tessellation")
_TIMEOUT_S = 300  # a suite run takes about 25 s; a mutant past this counts as a hang

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
}


class Mutant(NamedTuple):
    name: str
    source: str  # the whole mutated module


def _functions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Each function or method with its dotted qualified name, outer ones first."""
    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)
    yield from visit(tree, "")


def _own_nodes(nodes: list[ast.AST]) -> Iterator[ast.AST]:
    """`nodes` and all below them in source order, not entering nested
    functions (they are visited on their own) or f-strings (whose inner
    positions are unreliable)."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.JoinedStr)):
            yield node
            yield from _own_nodes(ast.iter_child_nodes(node))


def _sites(tree: ast.Module) -> Iterator[tuple[str, ast.AST, str, object, object]]:
    """(function, node, field, its value before, after) for each mutation
    site: ``ops`` of a comparison, ``op`` of arithmetic, ``value`` of an int."""
    for qualname, function in _functions(tree):
        for node in _own_nodes(function.body):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    ops = list(node.ops)
                    ops[i] = _FLIPS[type(op)]()
                    yield qualname, node, "ops", node.ops, ops
            elif isinstance(node, ast.BinOp) and type(node.op) in _FLIPS:
                yield qualname, node, "op", node.op, _FLIPS[type(node.op)]()
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool)
            ):
                yield qualname, node, "value", node.value, node.value + 1


def _context(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> ast.AST:
    """What a mutant's name shows: a comparison or an operation itself, and
    for a constant the expression or simple statement around it
    (``segments[1:]`` rather than ``1``, ``-1 if c1 < c2 else 1`` rather
    than ``-1``)."""
    if not isinstance(node, ast.Constant):
        return node
    around = parents[node]
    while not isinstance(around, ast.stmt) and (
        not isinstance(around, ast.expr) or isinstance(around, (ast.Slice, ast.UnaryOp))
    ):
        around = parents[around]
    if isinstance(around, ast.stmt) and hasattr(around, "body"):
        return node  # a compound statement: show the constant alone
    return around


def mutants(module: str) -> Iterator[Mutant]:
    """Every single-site mutant of ``hexphi.<module>``, in source order."""
    raw = (PACKAGE / f"{module}.py").read_bytes()
    starts = [0]  # the byte offset of each line, as ast's col_offset counts bytes
    for line in raw.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    tree = ast.parse(raw)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    seen: dict[str, int] = {}
    for qualname, node, field, before, after in _sites(tree):
        context = _context(node, parents)
        was = ast.unparse(context)
        setattr(node, field, after)
        now = ast.unparse(context)
        replacement = ast.unparse(node) if field == "value" else f"({ast.unparse(node)})"
        setattr(node, field, before)
        name = f"{module}.{qualname}: {was} -> {now}"
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name += f" #{seen[name]}"
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        yield Mutant(name, (raw[:start] + replacement.encode() + raw[end:]).decode())


def load_equivalents() -> dict[str, str]:
    """The accepted equivalent mutants: name -> one-line argument."""
    return {entry["mutant"]: entry["why"] for entry in json.loads(EQUIVALENTS.read_text())}


def _run_suite(copy: Path, module: str) -> str:
    """"killed", "survived" or "timeout": the suite in `copy`, the module's own
    test file first (pytest skips it when it meets it again under tests/).
    tests/test_mutate.py checks this tool's names against the source, which a
    mutant changes, so it is left out."""
    own = f"tests/test_{module}.py"
    first = [own] if (copy / own).exists() else []
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += ["--ignore=tests/test_mutate.py", *first, "tests"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def run(modules: list[str]) -> int:
    """Run every mutant of `modules`, one after another; print one line each
    and the counts.  Exit status 1 when a survivor is not an accepted
    equivalent, or an accepted one is killed or no longer a site."""
    accepted = load_equivalents()
    work = [(module, mutant) for module in modules for mutant in mutants(module)]
    counts = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    stale = {name for name in accepted if name.split(".", 1)[0] in modules}
    stale -= {mutant.name for _, mutant in work}
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="hexphi-mutate-") as scratch:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        copy = shutil.copytree(ROOT, Path(scratch) / "repo", ignore=ignore)
        for module, mutant in work:
            target = copy / "src" / "hexphi" / f"{module}.py"
            original = target.read_text()
            target.write_text(mutant.source)
            try:
                outcome = _run_suite(copy, module)
            finally:
                target.write_text(original)
            if mutant.name in accepted:
                if outcome == "survived":
                    outcome = "equivalent"
                else:
                    stale.add(mutant.name)
            counts[outcome] += 1
            print(f"{outcome:10} {mutant.name}", flush=True)
    print(f"{len(work)} mutants of {', '.join(modules)} in {time.monotonic() - began:.0f} s: "
          + ", ".join(f"{n} {outcome}" for outcome, n in counts.items()))
    for name in sorted(stale):
        print(f"accepted, but killed or no longer a site: {name}")
    return 1 if counts["survived"] or stale else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mutate.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", default=list(DEFAULT_MODULES),
                        help="hexphi modules to mutate (default: %(default)s)")
    args = parser.parse_args(argv)
    unknown = [module for module in args.modules if not (PACKAGE / f"{module}.py").is_file()]
    if unknown:
        parser.error(f"no such module in {PACKAGE}: {', '.join(unknown)}")
    return run(args.modules)


if __name__ == "__main__":
    sys.exit(main())
