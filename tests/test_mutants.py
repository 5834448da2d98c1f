"""Every mutant of tools/mutants.py still names one line of src/.

The mutation run itself is not part of this suite (it runs pytest once per
mutant); this only keeps its list from going stale unnoticed, and checks
that a mutant's edits are made together.
"""

import importlib.util
import pathlib
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("pdwell_mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_mutant_line_exists_once(mutants):
    assert mutants.MUTANTS
    assert mutants.stale() == []


def test_a_mutant_applies_all_its_edits(mutants, tmp_path):
    m = next(m for m in mutants.MUTANTS if len(m.edits) > 1)
    src = mutants._copy_src(tmp_path / "src")
    mutants._apply(m, src)
    lines = (src / "pdwell" / m.file).read_text().splitlines()
    for line, replacement in m.edits:
        assert mutants._matches(lines, line) == []
        assert len(mutants._matches(lines, replacement)) == 1
