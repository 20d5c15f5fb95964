"""Single-site mutation testing of hexphi's modules, stdlib only.

Each mutant changes one site inside a function of one module:

- a comparison operator flips: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swap;
- ``+`` and ``-`` swap, and ``*`` becomes ``+``;
- a negation ``-x`` becomes ``x``;
- an int constant n becomes n + 1.

A mutant is named by its module, its function and its source text before and
after, for example ``geometry._lower_half: sy < 0 -> sy <= 0``, never by line
number, so a name survives edits elsewhere in the file.  The text is the
mutated expression, or for a constant the expression around it.  A name met
twice in one module gets `` #2``, `` #3``... in order of appearance.

The unmutated suite runs first, once, in one copy of the repository.  If it
fails, every mutant would count as killed, so the run exits 1 at once.
Otherwise each mutant in turn runs the whole Tier-1 suite with ``-x`` in that
copy, the module's own test file first.  A mutant is killed when the suite
fails, or runs past `TIMEOUT_FACTOR` times as long as the unmutated one did
(a hang), and survives when it passes.  A survivor must be listed, with a
one-line argument, in ``tests/data/equivalent_mutants.json``, and a listed
mutant must survive, or the run exits 1.  A survivor costs a whole suite run,
so this is not part of Tier-1; `tests/test_mutate.py` only checks that every
listed mutant still names a site.

A target is a module, or one function of it as ``module.function``; a
function takes its nested functions with it, and a class its methods.  Only
the accepted mutants of the targets are checked for staleness.

    python3 tests/mutate.py                  # construction, geometry, tessellation
    python3 tests/mutate.py fibonacci cli    # other modules
    python3 tests/mutate.py exact.to_decimals exact._decimals   # some functions
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
# a surviving mutant runs the whole suite, as the unmutated run does, so a
# mutant past this multiple of that run's time counts as a hang
TIMEOUT_FACTOR = 4

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


def _defined(module: str) -> set[str]:
    """The qualified names a target may give in `module`: each function or
    method, and each class (a method's name less its last part)."""
    functions = {name for name, _ in _functions(ast.parse((PACKAGE / f"{module}.py").read_bytes()))}
    return functions | {name.rpartition(".")[0] for name in functions if "." in name}


def _own_nodes(nodes: list[ast.AST]) -> Iterator[ast.AST]:
    """`nodes` and all below them in source order, not entering nested
    functions (they are visited on their own) or f-strings (whose inner
    positions are unreliable)."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.JoinedStr)):
            yield node
            yield from _own_nodes(ast.iter_child_nodes(node))


def _within(qualname: str, functions: tuple[str, ...] | None) -> bool:
    """Whether `qualname` is one of `functions` or lies inside one; any, for None."""
    return functions is None or any(
        qualname == function or qualname.startswith(function + ".") for function in functions
    )


def _sites(tree: ast.Module) -> Iterator[tuple[str, ast.AST, str, object, object]]:
    """(function, node, field, its value before, after) for each mutation
    site: ``ops`` of a comparison, ``op`` of arithmetic, ``value`` of an int;
    for a negation, field None and the operand that takes the node's place."""
    for qualname, function in _functions(tree):
        for node in _own_nodes(function.body):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    ops = list(node.ops)
                    ops[i] = _FLIPS[type(op)]()
                    yield qualname, node, "ops", node.ops, ops
            elif isinstance(node, ast.BinOp) and type(node.op) in _FLIPS:
                yield qualname, node, "op", node.op, _FLIPS[type(node.op)]()
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                yield qualname, node, None, node, node.operand
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


def mutants(module: str, functions: tuple[str, ...] | None = None) -> Iterator[Mutant]:
    """Every single-site mutant of ``hexphi.<module>``, in source order; only
    those within `functions`, qualified names in the module, when given.  A
    name's `` #2`` counts the whole module, so it does not depend on them."""
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
        if field is None:  # a negation: its operand alone
            now = ast.unparse(after)
            replacement = f"({now})"
        else:
            setattr(node, field, after)
            now = ast.unparse(context)
            replacement = ast.unparse(node) if field == "value" else f"({ast.unparse(node)})"
            setattr(node, field, before)
        name = f"{module}.{qualname}: {was} -> {now}"
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name += f" #{seen[name]}"
        if not _within(qualname, functions):
            continue
        start = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        yield Mutant(name, (raw[:start] + replacement.encode() + raw[end:]).decode())


def load_equivalents() -> dict[str, str]:
    """The accepted equivalent mutants: name -> one-line argument."""
    return {entry["mutant"]: entry["why"] for entry in json.loads(EQUIVALENTS.read_text())}


def _run_suite(copy: Path, module: str | None, timeout: float | None = None) -> str:
    """"passed", "failed" or "timeout": the suite in `copy`, with ``-x``, the
    module's own test file first when a module is named (pytest skips it when
    it meets it again under tests/).  tests/test_mutate.py checks this tool's
    names against the source, which a mutant changes, so it is left out."""
    own = f"tests/test_{module}.py"
    first = [own] if module and (copy / own).exists() else []
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += ["--ignore=tests/test_mutate.py", *first, "tests"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def _targets(names: list[str]) -> dict[str, tuple[str, ...] | None]:
    """module -> the functions named in it, or None for the whole module."""
    targets: dict[str, tuple[str, ...] | None] = {}
    for name in names:
        module, _, function = name.partition(".")
        if not function or targets.get(module, ()) is None:
            targets[module] = None
        else:
            targets[module] = (*targets.get(module, ()), function)
    return targets


def _targeted(name: str, targets: dict[str, tuple[str, ...] | None]) -> bool:
    """Whether the mutant `name` lies within `targets`."""
    module, _, qualname = name.partition(":")[0].partition(".")
    return module in targets and _within(qualname, targets[module])


def run(names: list[str]) -> int:
    """Run every mutant of the modules or ``module.function``s `names`, one
    after another; print one line each and the counts.  Exit status 1 when
    the unmutated suite fails, when a survivor is not an accepted equivalent,
    or when an accepted one within the targets is killed or no longer a site."""
    accepted = load_equivalents()
    targets = _targets(names)
    work = [(module, mutant) for module, functions in targets.items()
            for mutant in mutants(module, functions)]
    counts = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    stale = {name for name in accepted if _targeted(name, targets)}
    stale -= {mutant.name for _, mutant in work}
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="hexphi-mutate-") as scratch:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        copy = shutil.copytree(ROOT, Path(scratch) / "repo", ignore=ignore)
        started = time.monotonic()
        if _run_suite(copy, None) != "passed":
            print("the unmutated suite fails, so no mutant can be judged", file=sys.stderr)
            return 1
        clean = time.monotonic() - started
        timeout = TIMEOUT_FACTOR * clean
        print(f"unmutated suite passed in {clean:.0f} s; a mutant past {timeout:.0f} s is a hang",
              flush=True)
        for module, mutant in work:
            target = copy / "src" / "hexphi" / f"{module}.py"
            original = target.read_text()
            target.write_text(mutant.source)
            try:
                outcome = _run_suite(copy, module, timeout)
            finally:
                target.write_text(original)
            outcome = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            if mutant.name in accepted:
                if outcome == "survived":
                    outcome = "equivalent"
                else:
                    stale.add(mutant.name)
            counts[outcome] += 1
            print(f"{outcome:10} {mutant.name}", flush=True)
    print(f"{len(work)} mutants of {', '.join(names)} in {time.monotonic() - began:.0f} s: "
          + ", ".join(f"{n} {outcome}" for outcome, n in counts.items()))
    for name in sorted(stale):
        print(f"accepted, but killed or no longer a site: {name}")
    return 1 if counts["survived"] or stale else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mutate.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_MODULES),
                        metavar="module[.function]",
                        help="hexphi modules or functions to mutate (default: %(default)s)")
    args = parser.parse_args(argv)
    unknown = [module for module in _targets(args.targets)
               if not (PACKAGE / f"{module}.py").is_file()]
    if unknown:
        parser.error(f"no such module in {PACKAGE}: {', '.join(unknown)}")
    for module, functions in _targets(args.targets).items():
        defined = _defined(module)
        missing = [function for function in functions or () if function not in defined]
        if missing:
            parser.error(f"no such function in {module}: {', '.join(missing)}")
    return run(args.targets)


if __name__ == "__main__":
    sys.exit(main())
