"""The mutation catalogue in tools/mutants.py must stay applicable: each
entry's `old` string occurs exactly once in its file, and its test file
defines the test it names (and the parametrize id, if the node id has one).
Running the mutants is on demand (python3 tools/mutants.py)."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _catalogue(), ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    test_file, node = mutant.test.split("::")
    function, _, param_id = node.rstrip("]").partition("[")
    source = (ROOT / test_file).read_text()
    assert f"def {function}(" in source
    assert not param_id or f'"{param_id}"' in source
