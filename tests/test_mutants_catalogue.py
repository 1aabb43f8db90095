"""The mutant catalogue of ``tools/mutants.py`` still applies to the code.

The check itself runs outside Tier-1 (it runs pytest once per mutant); this
only reads the catalogue and compiles each mutated file, so a refactor that
moves a mutated text or renames a killing test fails here first."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", mutants.CATALOGUE, ids=lambda m: m.name)
def test_entry_applies_once_compiles_and_names_tests_that_exist(m):
    mutants.mutated(m)  # raises unless the old text occurs once and the result compiles
    assert m.new != m.old
    assert m.tests
    for target in m.tests:
        path, _, test = target.partition("::")
        assert path.startswith("tests/test_") and path != "tests/test_bench_hooks.py"
        source = (ROOT / path).read_text()
        if test:
            assert re.search(rf"^def {re.escape(test)}\(", source, re.M), target


def test_memory_cap_turns_a_large_allocation_into_memory_error():
    """A mutant that allocates before its guard fails a test under the cap
    instead of filling memory; this 8 GB list is refused at once."""
    proc = subprocess.run([sys.executable, "-c", "[0] * 10**9"], capture_output=True, text=True,
                          preexec_fn=mutants.cap_memory, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("MemoryError")
