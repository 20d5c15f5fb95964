"""The mutation tool's names stay valid: the run itself takes a whole suite
per surviving mutant, so it stays out of Tier-1 (see `tests/mutate.py`)."""

from __future__ import annotations

import ast

import mutate


def test_every_accepted_equivalent_names_a_site():
    accepted = mutate.load_equivalents()
    assert accepted
    modules = {name.split(".", 1)[0] for name in accepted}
    names = {mutant.name for module in modules for mutant in mutate.mutants(module)}
    for name, why in accepted.items():
        assert name in names, name
        assert why.strip() and "\n" not in why, name


def test_each_mutant_is_one_valid_change_with_a_unique_name():
    for module in mutate.DEFAULT_MODULES:
        original = ast.dump(ast.parse((mutate.PACKAGE / f"{module}.py").read_text()))
        mutants = list(mutate.mutants(module))
        assert mutants
        assert len({mutant.name for mutant in mutants}) == len(mutants)
        for mutant in mutants:
            assert mutant.name.startswith(f"{module}.")
            assert ast.dump(ast.parse(mutant.source)) != original, mutant.name


def test_a_mutant_changes_only_its_site():
    source = (mutate.PACKAGE / "geometry.py").read_text()
    (mutant,) = [m for m in mutate.mutants("geometry") if m.name.endswith("sy < 0 -> sy <= 0")]
    assert mutant.source == source.replace("sy < 0 or", "(sy <= 0) or", 1)


def test_a_function_target_takes_the_function_and_what_it_nests():
    whole = list(mutate.mutants("exact"))
    chosen = list(mutate.mutants("exact", ("QuadExt.inverse", "_rounded")))
    owners = {"exact.QuadExt.inverse", "exact._rounded"}
    assert chosen and chosen == [m for m in whole if m.name.split(":")[0] in owners]
    assert mutate._targets(["exact.sign", "exact", "cli.main", "cli._parse"]) == {
        "exact": None, "cli": ("main", "_parse"),
    }


def test_a_class_target_takes_its_methods():
    assert {"QuadExt", "QuadExt.__add__", "_sum"} <= mutate._defined("exact")
    methods = list(mutate.mutants("exact", ("QuadExt",)))
    assert methods and all(m.name.startswith("exact.QuadExt.") for m in methods)


def test_a_negation_gives_way_to_its_operand():
    source = (mutate.PACKAGE / "exact.py").read_text()
    negations = list(mutate.mutants("exact", ("QuadExt.__neg__",)))
    assert [m.name for m in negations] == [f"exact.QuadExt.__neg__: -{x} -> {x}" for x in "abcd"]
    assert negations[1].source == source.replace("((-a, -b, -c", "((-a, (b), -c", 1)
