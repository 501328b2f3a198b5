"""The mutation list stays in step with the code it mutates.

``tests/mutants.py`` runs the mutants; this only checks the list, cheaply:
a refactor that removes or rewrites a mutated line fails here until the
list is updated on purpose.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert Path(path).parts[0] == "tests" and Path(path).name.startswith("test_")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or f"def {name.split('[')[0]}(" in source
