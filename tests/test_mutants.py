"""Every committed mutant (``tests/_mutants.py``) still applies to the
source, and names tests that exist. Whether the tests kill it is the
runner's question, which takes a copy of the checkout per mutant."""

import pytest

from _mutants import MUTANTS, ROOT, _pytest


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_applies(mutant):
    assert mutant.path.startswith("src/")
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.killers


def test_killers_are_collected():
    # whole ids, parameters included: pytest exits 4 on one it cannot find
    killers = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.killers))
    run = _pytest(ROOT, killers, "--collect-only")
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert set(killers) <= set(run.stdout.splitlines())
