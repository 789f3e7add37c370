"""Every committed mutant (``tests/_mutants.py``) still applies to the
source, and names tests that exist. Whether the tests kill it is the
runner's question, which takes a copy of the checkout per mutant."""

import re

import pytest

from _mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_applies(mutant):
    assert mutant.path.startswith("src/")
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.killers
    for test in mutant.killers:
        path, *names = re.sub(r"\[.*\]$", "", test).split("::")
        text = (ROOT / path).read_text()
        # each class and function of the id is defined in its file
        for name in names:
            assert re.search(rf"^\s*(class|def) {name}\b", text, re.M), test
