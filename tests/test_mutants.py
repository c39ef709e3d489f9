"""The mutant table stays applicable: each snippet occurs exactly once in its file, each killer exists."""

import ast

import pytest

from mutants import MUTANTS, ROOT, select


def _defines(path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines the nested classes and function ``names``, outermost first."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}" for i in range(len(MUTANTS))])
def test_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, mutant.invariant
    assert mutant.replacement != mutant.snippet and mutant.kills
    for test in mutant.kills:
        path, *names = test.split("::")
        assert (ROOT / path).is_file(), test
        # A parametrized id names its function before the "[".
        assert names and _defines(ROOT / path, [*names[:-1], names[-1].split("[")[0]]), test


def test_selector_takes_row_numbers_and_path_substrings():
    dataflow = [i for i, mutant in enumerate(MUTANTS) if mutant.path == "src/spikesim/dataflow.py"]
    assert dataflow and select(["dataflow.py"]) == dataflow
    assert select(["3", "dataflow.py", "0"]) == [3, *dataflow, 0]
    assert select([]) == list(range(len(MUTANTS)))
    with pytest.raises(SystemExit, match="no mutant row's path holds 'nowhere.py'"):
        select(["nowhere.py"])
