"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SPEC = run.load_spec()
with open(run.REFERENCES) as _fh:
    REFS = json.load(_fh)

# Per-layer metrics that must read above zero on each workload's traced run:
# proof that the wrappers sit where the workload's callers look them up.
EXERCISED = {
    "decoy": ["experiments.decoy_greedy.self_s", "experiments.decoy_greedy.us_per_query",
              "adversarial.draw_hidden_set.calls", "experiments.emit_report.bytes"],
    "sweep": ["solvers.brute_force.queries", "solvers.greedy_cardinality.queries",
              "noise.subset_unit.calls", "sets.query.calls", "functions.coverage.value.calls",
              "functions.sum.value.calls", "experiments.emit_report.bytes"],
    "verify": ["adversarial.sandwich.value.calls", "verify.tabulate.self_s",
               "verify.check_submodular.ns_per_pair", "verify.check_monotone.examined",
               "verify.check_sandwich.examined", "functions.additive.value.calls"],
    "greedy-scale": ["solvers.greedy_cardinality.us_per_query", "sets.query.calls",
                     "functions.greedy_trap.value.calls", "functions.additive.value.calls"],
}


def _originals(api):
    return [vars(run.layer_owner(api, owner))[attr] for owner, attr, *_ in run.LAYERS]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    out = run.run_benchmark(name, 0, 0, bool(trace), params=run.TINY[name], setup_probes=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] >= 0
    if trace:
        for metric in EXERCISED[name]:
            assert result["metrics"][metric]["value"] > 0, metric
        assert out["provenance"]["traced_digest"] == out["provenance"]["digest"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        assert len(out["provenance"]["setup_samples_s"]) == 2
    assert any(line.split()[0] == "failed_fraction" for line in out["table"][1:])


def test_tracing_restores_the_program():
    api = run.import_program()
    before = _originals(api)
    run.run_benchmark("greedy-scale", 0, 0, True, params=run.TINY["greedy-scale"])
    assert _originals(api) == before


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_reference_fails_every_item(trace):
    out = run.run_benchmark("decoy", 0, 0, trace, params=run.TINY["decoy"],
                            reference="0" * 64, setup_probes=0)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert out["provenance"]["failed_fraction"] == 1


@pytest.mark.parametrize("seed", [REFS["default_seed"], REFS["confirmation_seed"]])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_stored_reference_holds(name, seed):
    failed, digest = run.prefix_digest(name, seed)
    assert failed == 0
    assert digest == REFS["digests"][name][str(seed)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decoy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
