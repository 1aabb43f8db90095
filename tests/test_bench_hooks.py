"""The benchmark's trace hooks still find what they patch.

``perfbench/run.py`` traces each layer by replacing ``vars(owner)[attr]`` for
every ``LAYERS`` entry, so a traced ``value`` or ``query`` must be defined on
the class (or module) the entry names, not inherited.  The harness is loaded
read-only here: no bytecode is written next to it.
"""

import importlib.util
import os
import sys

import pytest

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves_where_the_harness_patches_it(run):
    api = run.import_program()
    assert run.LAYERS
    for owner_path, attr, name, *_ in run.LAYERS:
        owner = run.layer_owner(api, owner_path)
        assert attr in vars(owner), f"{name}: {owner_path} defines no {attr} of its own"
        assert callable(vars(owner)[attr]), name
