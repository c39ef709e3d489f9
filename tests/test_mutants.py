"""The mutant table stays applicable: each snippet occurs exactly once in its file."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}" for i in range(len(MUTANTS))])
def test_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, mutant.invariant
    assert mutant.replacement != mutant.snippet and mutant.kills
    for test in mutant.kills:
        assert (ROOT / test.split("::")[0]).is_file(), test
