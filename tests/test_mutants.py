"""The mutation harness's declarations still match the code; the harness itself runs in its own CI job."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_old_text_occurs_exactly_once(mutant):
    assert mutant.path.startswith("src/treea1/")
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old


def test_each_mutant_declares_an_outcome_and_an_equivalent_one_argues_it():
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutant.expected in ("killed", "equivalent"), mutant.name
        assert bool(mutant.why) == (mutant.expected == "equivalent"), mutant.name
        # a killed mutant names the tests file its first failure is in, and an equivalent one names none
        assert bool(mutant.module) == (mutant.expected == "killed"), mutant.name
        if mutant.module:
            assert mutant.module.startswith("tests/") and (ROOT / mutant.module).is_file(), mutant.name
            assert mutant.module != mutants.DECLARATIONS_TEST, mutant.name
