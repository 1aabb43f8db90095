"""The committed benchmark records are whole and agree with the benchmark's
declaration.  Runs no benchmark.

A ``BENCH_*.json`` file at the repository root is a list of run objects, each
the ``provenance`` and ``result`` lines that ``perfbench/run.py`` printed,
kept unchanged.  Every run must have checked its outputs (``correct`` true,
``failed`` 0), report the end-to-end metrics that ``BENCHMARK.json`` declares,
in its order and units, and, wherever it stores a reference digest, match it.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["end_to_end"]]


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_runs_are_whole_and_correct(path):
    with open(path) as fh:
        runs = json.load(fh)
    assert isinstance(runs, list) and runs
    declared = _declared_metrics()
    for i, run in enumerate(runs):
        assert isinstance(run, dict) and set(run) == {"provenance", "result"}, i
        provenance, result = run["provenance"], run["result"]
        assert result["correct"] is True, i
        assert result["failed"] == 0, i
        metrics = [(name, m["unit"]) for name, m in result["metrics"].items()]
        assert metrics == declared, i
        if provenance.get("reference") is not None:
            assert provenance["digest"] == provenance["reference"], i


def test_the_baseline_is_committed():
    assert os.path.join(ROOT, "BENCH_baseline.json") in BENCH_FILES
