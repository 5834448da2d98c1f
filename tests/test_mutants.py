"""Every mutant of tools/mutants.py still names one line of src/.

The mutation run itself is not part of this suite (it runs pytest once per
mutant); this only keeps its list from going stale unnoticed.
"""

import importlib.util
import pathlib
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_mutant_line_exists_once():
    spec = importlib.util.spec_from_file_location("pdwell_mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mutants
    try:
        spec.loader.exec_module(mutants)
        assert mutants.MUTANTS
        assert mutants.stale() == []
    finally:
        del sys.modules[spec.name]
