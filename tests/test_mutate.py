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
