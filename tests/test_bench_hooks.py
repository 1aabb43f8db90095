"""The benchmark's trace hooks still find what they patch, and still count.

``perfbench/run.py`` traces each layer by replacing ``vars(owner)[attr]`` for
every ``LAYERS`` entry, so a traced ``value`` or ``query`` must be defined on
the class (or module) the entry names, not inherited.  And the program must
still call through those entries: each workload's traced run must read above
zero on every metric that ``EXERCISED`` in ``perfbench/test_perfbench.py``
lists for it.  The harness is loaded read-only here: no bytecode is written
next to it, and its test module is parsed, not imported.
"""

import ast
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
RUN_PY = os.path.join(PERFBENCH, "run.py")


def _exercised() -> dict:
    """The ``EXERCISED`` literal of the harness's own tests."""
    with open(os.path.join(PERFBENCH, "test_perfbench.py")) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "EXERCISED" for t in node.targets))


EXERCISED = _exercised()


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


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_run_exercises_every_listed_layer(run, name):
    out = run.run_benchmark(name, 0, 0, True, params=run.TINY[name], setup_probes=0)
    assert out["result"]["correct"]
    metrics = out["result"]["metrics"]
    for metric in EXERCISED[name]:
        assert metrics[metric]["value"] > 0, metric


def test_traced_verify_evaluates_each_sandwich_once(run):
    """A sandwich item's check_sandwich reads the sandwich by value() on
    every set, through one tabulate call, and its check_submodular reads the
    sandwich's exact table: the planted sum and each of its two terms are
    valued once per set too, so adding the terms in integers skips no
    value() call.  The corpus items read their own tables and tabulate
    nothing."""
    params = run.TINY["verify"]
    out = run.run_benchmark("verify", 0, 0, True, params=params, setup_probes=0)
    assert out["result"]["correct"]
    layers = out["trace"]["layers"]
    sets = params["sandwiches"] << params["n"]
    assert sets == 512
    assert layers["adversarial.sandwich.value"]["calls"] == sets
    assert layers["functions.sum.value"]["calls"] == sets
    assert layers["functions.additive.value"]["calls"] == sets
    assert layers["functions.budget_additive.value"]["calls"] == sets
    items = out["provenance"]["prefix"]
    sandwich_items = range(items - params["sandwiches"], items)
    tabulated = [span[2] for span in out["trace"]["spans"] if span[3] == "verify.tabulate"]
    assert sorted(tabulated) == list(sandwich_items)


def test_traced_sweep_hashes_once_per_noisy_query(run):
    """Two of the three error levels are noisy and every cell makes the same
    queries, so a third of the queries hash nothing and the rest hash once."""
    params = run.TINY["sweep"]
    assert params["deltas"] == [0.0, 0.5, 1 - 1e-9]
    out = run.run_benchmark("sweep", 0, 0, True, params=params, setup_probes=0)
    assert out["result"]["correct"]
    layers = out["trace"]["layers"]
    hashes, queries = layers["noise.subset_unit"]["calls"], layers["sets.query"]["calls"]
    assert queries == 9174
    assert 3 * hashes == 2 * queries


def test_traced_sweep_at_zero_epsilon_hashes_nothing(run):
    params = {**run.TINY["sweep"], "deltas": [0.0]}
    out = run.run_benchmark("sweep", 0, 0, True, params=params, setup_probes=0)
    assert out["result"]["correct"]
    layers = out["trace"]["layers"]
    assert layers["sets.query"]["calls"] > 0
    assert layers["noise.subset_unit"]["calls"] == 0


@pytest.mark.parametrize("name, calls, queries", [
    ("greedy-scale", 5, 4840),  # sum of expected_greedy_queries(n, 16), n = 64, 66, ..., 72
    ("sweep", 132, 2178),
])
def test_traced_greedy_sees_the_shared_round_loop(run, name, calls, queries):
    """The harness traces greedy_cardinality by its name in ``experiments``;
    the round loop it delegates to must still count every query there."""
    out = run.run_benchmark(name, 0, 0, True, params=run.TINY[name], setup_probes=0)
    assert out["result"]["correct"]
    layer = out["trace"]["layers"]["solvers.greedy_cardinality"]
    assert (layer["calls"], layer["queries"]) == (calls, queries)


def test_traced_greedy_scale_values_every_query(run):
    """The weight kernel's memo skips only the Fraction build: every query
    on the trap still reaches the trap's value() and the additive value()."""
    out = run.run_benchmark("greedy-scale", 0, 0, True, params=run.TINY["greedy-scale"],
                            setup_probes=0)
    assert out["result"]["correct"]
    layers = out["trace"]["layers"]
    assert layers["sets.query"]["calls"] == 4840
    assert layers["functions.greedy_trap.value"]["calls"] == 4840
    assert layers["functions.additive.value"]["calls"] == 4840
