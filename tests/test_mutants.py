"""The mutants table of `tests/mutants.py` stays applicable to the code it names."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_exactly_once_in_its_file():
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name


def test_each_mutant_names_tests_that_exist():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        assert mutant.found in changes, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name)}\(", source, re.MULTILINE), test
