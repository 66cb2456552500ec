"""Every mutant in ``tests/mutants.py`` still applies to the package.

Each entry's old text must occur exactly once under ``src/``: when an edit
moves or rewords it, this test fails until the entry is brought up to date,
so the mutant gate cannot quietly stop testing anything.  No mutant runs
here; ``python3 tests/mutants.py`` runs them.
"""

import pytest

from mutants import MUTANTS, SRC, occurrences


def test_mutant_names_are_distinct():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert mutant.old in (SRC / "nadops" / mutant.module).read_text(encoding="utf-8")
    assert occurrences(mutant.old) == 1, mutant.name
    assert mutant.tests
