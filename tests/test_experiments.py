import argparse
import contextlib
import io
import json
import math
import operator
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import approxsub.cli as cli
from approxsub import adversarial, experiments
from approxsub.adversarial import (
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    power_law_params,
)
from approxsub.cli import EXIT_COUNTEREXAMPLE, EXIT_PASS, _emit, _load_json
from approxsub.experiments import (
    REPORT_COLUMNS,
    _sandwich_greedy_fast,
    emit_report,
    instance_corpus,
    planted_optimum_escapes,
    run_distinguishability,
    run_noise_sweep,
    run_sampling_validation,
    run_trap,
    sampling_union_bound,
)
from approxsub.functions import CoverageFunction, instance_from_dict, instance_to_dict
from approxsub.noise import noise_from_dict
from approxsub.sets import Subset, ValueOracle
from approxsub.solvers import expected_greedy_queries, greedy_cardinality
from approxsub.verify import check_monotone, check_sandwich, check_submodular


def shared_coverage(n=12, alpha=5):
    return CoverageFunction(alpha, [list(range(alpha))] * n)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def test_corpus_size_and_validity():
    corpus = instance_corpus(0)
    assert len(corpus) >= 30
    assert all(inst.n <= 12 for inst in corpus)
    # Spot-check structural validity on the smallest instances.
    for inst in corpus[:6]:
        assert check_submodular(inst, inst.n).passed
        assert check_monotone(inst, inst.n).passed


def test_corpus_seeded_reproducibility():
    a = instance_corpus(4)
    b = instance_corpus(4)
    assert [instance_to_dict(x) for x in a] == [instance_to_dict(x) for x in b]


# ---------------------------------------------------------------------------
# Fast decoy-greedy equivalence
# ---------------------------------------------------------------------------

class _EscapeCounting(ValueOracle):
    def __init__(self, sw):
        super().__init__(sw.n)
        self.sw = sw
        self.escapes = 0

    def value(self, s):
        return self.sw.value(s)

    def query(self, s):
        if not self.sw.band.holds(self.sw.g.value(s), self.sw.fh.value(s)):
            self.escapes += 1
        return super().query(s)


@pytest.mark.parametrize("n,h,alpha,k,eps,seed", [
    (16, 8, 2, 4, 0.3, 0),
    (16, 8, 2, 4, 0.3, 5),
    (24, 12, 3, 6, 0.2, 1),
    (24, 12, 3, 8, 0.45, 2),
    (32, 16, 4, 10, 0.15, 7),
    (32, 16, 2, 5, 0.6, 9),
    (12, 5, 3, 4, 0.25, 11),
])
def test_fast_greedy_matches_generic(n, h, alpha, k, eps, seed):
    params = HardPairParams(n=n, h=h, alpha=alpha, k=k, epsilon=eps)
    hidden = draw_hidden_set(n, h, seed)
    pair = build_monotone_pair(params, hidden)
    oracle = _EscapeCounting(build_sandwich(pair))
    res = greedy_cardinality(oracle, k)
    mask, value, escapes, queries = _sandwich_greedy_fast(params, hidden)
    assert res.chosen.mask == mask
    assert res.value == value
    assert oracle.escapes == escapes
    assert res.queries_used == queries == expected_greedy_queries(n, k)


def test_distinguishability_runner():
    rows, summary = run_distinguishability(256, 0.45, trials=5, seed=3)
    assert len(rows) == 5
    for row in rows:
        assert row["queries"] == expected_greedy_queries(256, row["k"])
        if row["band_escapes"] == 0:
            assert row["ratio"] <= row["bound"] + 1e-12
    # At this small scale the decoy sits inside the band even at the planted
    # optimum, so the runner flags the summary as report-only.
    assert summary["report_only"] is True
    assert not planted_optimum_escapes(run_params(256, 0.45))


def run_params(n, beta):
    return power_law_params(n, beta)


def test_distinguishability_rejects_bad_params():
    with pytest.raises(ValueError):
        run_distinguishability(100, 0.25, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_distinguishability(1 << 15, 0.25, trials=1, seed=0)


# ---------------------------------------------------------------------------
# Noise sweep
# ---------------------------------------------------------------------------

def test_noise_sweep_rows_and_bounds():
    instances = instance_corpus(1)[:4]
    rows = run_noise_sweep(instances, k=4, delta_grid=[0.0, 0.5], seeds=[0, 1])
    assert len(rows) == 4 * 2 * 2
    assert all(r["ok"] for r in rows)
    for r in rows:
        if r["epsilon"] == 0.0:
            assert r["ratio"] >= 1 - (1 - 1 / 4) ** 4 - 1e-12


def test_noise_sweep_coverage_corpus_k8():
    from approxsub.functions import CoverageFunction
    from approxsub.solvers import greedy_bound

    coverage = [inst for inst in instance_corpus(1)
                if isinstance(inst, CoverageFunction) and inst.n >= 10][:3]
    rows = run_noise_sweep(coverage, k=8, delta_grid=[0.5], seeds=list(range(20)))
    floor = greedy_bound(8, 0.5 / 8)
    assert min(r["ratio"] for r in rows) >= floor - 1e-12
    # Seed-major row order.
    seeds = [r["seed"] for r in rows]
    assert seeds == sorted(seeds)


# ---------------------------------------------------------------------------
# Trap
# ---------------------------------------------------------------------------

def test_run_trap_reports_both_values_and_flag():
    rows, summary = run_trap(16, 0.5, 64)
    assert summary["claimed_greedy_value"] == pytest.approx(4.21875)
    assert summary["measured_greedy_value"] == pytest.approx(float(Fraction(1089, 64)))
    assert summary["discrepancy"] is True
    assert "escape" in summary["note"]
    assert rows[0]["baseline"] == pytest.approx(4.21875)
    assert rows[0]["value"] == pytest.approx(17.015625)


def test_run_trap_curve():
    from approxsub.experiments import run_trap_curve

    rows = run_trap_curve([16, 64], beta=0.5)
    assert len(rows) == 2
    # Greedy escapes the trap after one filler pick, so the measured ratio
    # stays near 1 instead of decaying with the budget.
    assert all(r["ratio"] > 0.9 for r in rows)
    assert rows[0]["n"] == 64 and rows[1]["n"] == 256


# ---------------------------------------------------------------------------
# Sampling validation
# ---------------------------------------------------------------------------

def test_sampling_validation_within_prediction():
    f = shared_coverage()
    rows, summary = run_sampling_validation(
        f, epsilon=0.1, confidence_constant=3.0, trials=40, seed=0,
        k=4, width=0.5,
    )
    assert summary["m"] == 746
    assert summary["prediction"] < 1.0  # informative, not capped
    assert summary["violating_fraction"] <= summary["prediction"]
    assert len(rows) == 40
    assert rows[0]["baseline"] == expected_greedy_queries(12, 4)


def test_sampling_validation_zero_variance_never_violates():
    f = shared_coverage()
    _, summary = run_sampling_validation(
        f, epsilon=0.1, confidence_constant=3.0, trials=10, seed=0,
        k=4, width=0.0,
    )
    assert summary["violating_fraction"] == 0.0


def test_sampling_validation_tiny_constant_fails_visibly():
    # A deliberately undersized budget constant makes violations routine.
    f = shared_coverage()
    _, summary = run_sampling_validation(
        f, epsilon=0.1, confidence_constant=0.1, trials=20, seed=3,
        k=4, width=1.0,
    )
    assert summary["m"] == 25
    assert summary["violating_fraction"] > 0.5


def test_sampling_union_bound_shape():
    tight = sampling_union_bound(42, 746, 0.1, 0.5)
    loose = sampling_union_bound(42, 373, 0.1, 0.5)
    assert tight < loose <= 1.0
    assert tight == pytest.approx(
        42 * (math.exp(-0.04 * 373 / 3) + math.exp(-0.04 * 373 / 2))
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "r.csv")


def test_emit_report_deterministic_bytes(tmp_path):
    rows, _ = run_distinguishability(256, 0.45, trials=3, seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, p1, "csv")
    rows2, _ = run_distinguishability(256, 0.45, trials=3, seed=1)
    emit_report(rows2, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)


def test_structured_report_round_trip(tmp_path):
    rows, _ = run_trap(16, 0.5, 64)
    path = tmp_path / "r.json"
    emit_report(rows, path, "structured")
    doc = json.loads(path.read_text())
    back = [dict(zip(doc["columns"], r)) for r in doc["rows"]]
    assert len(back) == len(rows)
    for col in REPORT_COLUMNS:
        orig = rows[0].get(col)
        got = back[0][col]
        if isinstance(orig, Fraction):
            orig = float(orig)
        if orig == "" or orig is None:
            assert got in ("", None)
        else:
            assert got == orig
    # Emitting the parsed rows again reproduces the document byte for byte.
    path2 = tmp_path / "r2.json"
    emit_report(back, path2, "structured")
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_submodular_pass(tmp_path, capsys):
    inst = instance_corpus(2)[0]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    code = cli.main(["verify", "--property", "submodular", "--instance", str(path)])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_monotone_counterexample(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "additive", "weights": [1, -2, 3]}))
    code = cli.main(["verify", "--property", "monotone", "--instance", str(path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_concentration(capsys):
    code = cli.main(["verify", "--property", "concentration", "--n", "100",
                     "--h", "50", "--set-size", "40", "--epsilon", "0.5"])
    assert code == 0
    code = cli.main(["verify", "--property", "concentration", "--n", "100",
                     "--h", "10", "--set-size", "10", "--epsilon", "0.5"])
    assert code == 2  # precondition rejection


def test_cli_verify_sandwich_construction(tmp_path, capsys):
    cfg = {"construction": {"n": 12, "h": 5, "alpha": 2, "k": 5, "epsilon": 0.3},
           "seed": 8, "mode": "exhaustive"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--property", "sandwich", "--config", str(path)])
    assert code == 0


def test_cli_verify_sandwich_instance_noise(tmp_path, capsys):
    inst = instance_corpus(2)[1]
    cfg = {"instance": instance_to_dict(inst),
           "noise": {"kind": "consistent", "epsilon": 0.2, "seed": 4},
           "mode": "exhaustive"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--property", "sandwich", "--config", str(path)])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_cli_trap_curve(capsys):
    code = cli.main(["trap", "--curve", "16", "64"])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(lines) == 2


def test_cli_trap_surfaces_discrepancy(capsys):
    code = cli.main(["trap"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4.218750" in out
    assert "17.015625" in out
    assert "DISCREPANCY" in out


def test_cli_distinguish_writes_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = cli.main(["distinguish", "--n", "256", "--beta", "0.45",
                     "--trials", "3", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 4


def test_cli_sweep_with_config(tmp_path, capsys):
    cfg = {"k": 3, "delta_grid": [0.0, 0.5], "seeds": [0, 1],
           "count": 3, "sizes": [8]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_sample_runs(capsys):
    code = cli.main(["sample"])
    assert code == 0
    out = capsys.readouterr().out
    assert "violating_fraction" in out


def test_cli_generate_all_constructions(tmp_path, capsys):
    for construction, extra in [
        ("monotone", ["--n", "1024", "--beta", "0.3"]),
        ("coverage", ["--n", "1024", "--beta", "0.3"]),
        ("trap", ["--n", "64", "--beta", "0.5", "--k", "16"]),
    ]:
        code = cli.main(["generate", "--construction", construction] + extra)
        assert code == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["construction"] == construction


def _assert_rejected(capsys, argv):
    """Exit 2 with a one-line ``error:`` message on stderr and no traceback."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flags", [["--mode", "bogus"], ["--mode", "mc", "--trials", "0"],
                                   ["--epsilon", "inf"], ["--epsilon", "nan"],
                                   ["--epsilon=-inf"], ["--mode", "mc", "--epsilon", "inf"]])
def test_cli_concentration_rejects_bad_mode_flags(capsys, flags):
    """A non-finite epsilon once raised OverflowError: a traceback and exit 1."""
    _assert_rejected(capsys, ["verify", "--property", "concentration", "--n", "100",
                              "--h", "50", "--set-size", "40", "--epsilon", "0.5"] + flags)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_cli_concentration_huge_epsilon_passes(capsys, mode):
    """eps = 1e308 once overflowed in eps ** 2; the band then holds every
    overlap, and eps^2 mu = inf gives the reference 1."""
    code = cli.main(["verify", "--property", "concentration", "--n", "100", "--h", "50",
                     "--set-size", "40", "--epsilon", "1e308", "--mode", mode, "--trials", "100"])
    assert code == 0
    assert capsys.readouterr().out.endswith("measured=1.000000 reference=1.000000 [pass]\n")


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 2000).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(-2, max(n, 0) + 2), st.integers(-2, max(n, 0) + 2))),
       st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 0.0, -0.5, 1.0, 10.0]),
                 st.floats(allow_nan=True, allow_infinity=True)))
def test_cli_exact_concentration_never_fails_or_raises(sizes, epsilon):
    """The exact method has no counterexample to find: the reference is a
    valid Chernoff lower bound on the exact probability for every eps > 0.
    So main returns 0 or 2 (one error line), never 1 or a traceback."""
    n, h, set_size = sizes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--property", "concentration", "--mode", "exact",
                         "--n", str(n), "--h", str(h), "--set-size", str(set_size),
                         f"--epsilon={epsilon!r}"])
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == "", (code, out.getvalue(), err.getvalue())


def test_cli_sandwich_rejects_unsampled_inconsistent_noise(tmp_path, capsys):
    cfg = {"instance": {"kind": "additive", "weights": [1, 2, 3]},
           "noise": {"kind": "inconsistent", "width": 0.5, "epsilon": 0.3, "seed": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _assert_rejected(capsys, ["verify", "--property", "sandwich", "--config", str(path)])


def test_cli_sweep_rejects_string_budget(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"k": "4", "count": 1, "sizes": [8], "seeds": [0]}))
    _assert_rejected(capsys, ["sweep", "--config", str(path)])


@pytest.mark.parametrize("k", [0, -1])
def test_cli_sweep_rejects_budget_below_one(tmp_path, capsys, k):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"k": k, "count": 1, "sizes": [8], "seeds": [0]}))
    _assert_rejected(capsys, ["sweep", "--config", str(path)])


@pytest.mark.parametrize("argv", [["sweep"], ["sample"], ["verify", "--property", "sandwich"]])
def test_cli_rejects_non_object_config(tmp_path, capsys, argv):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    _assert_rejected(capsys, argv + ["--config", str(path)])


def test_cli_sweep_rejects_directory_config(tmp_path, capsys):
    _assert_rejected(capsys, ["sweep", "--config", str(tmp_path)])


def test_cli_distinguish_rejects_negative_trials(capsys):
    _assert_rejected(capsys, ["distinguish", "--n", "256", "--beta", "0.45", "--trials", "-1"])


def test_cli_sample_rejects_negative_trials(tmp_path, capsys):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"trials": -1}))
    _assert_rejected(capsys, ["sample", "--config", str(path)])


@pytest.mark.parametrize("n", [21, 30])
def test_cli_sample_rejects_large_ground_set(tmp_path, capsys, n):
    """Guarded before the 2^n value-range pass, so this returns at once."""
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"n": n}))
    _assert_rejected(capsys, ["sample", "--config", str(path)])


@pytest.mark.parametrize("argv", [
    # --curve alone parses to [], which once fell through to the default trap
    ["trap", "--curve"],
    # k^(1 - beta) underflows to 0, and the trap once built Fraction(1, 0)
    ["trap", "--beta", "1e9"],
    ["generate", "--construction", "trap", "--n", "64", "--beta", "1e9"],
    # k^(1 - beta) and n^(1 - beta/2) once overflowed converting k or n to a float
    ["trap", "--k", "1" + "0" * 400],
    ["generate", "--construction", "monotone", "--n", "1" + "0" * 400, "--beta", "0.25"],
    # n^(beta - 1/2) once raised ZeroDivisionError at n = 0, with a traceback
    ["distinguish", "--n", "0", "--trials", "1"],
    ["generate", "--construction", "coverage", "--n", "0", "--beta", "0.25"],
], ids=["trap-empty-curve", "trap-beta", "generate-trap-beta", "trap-huge-k", "generate-huge-n",
        "distinguish-zero-n", "generate-zero-n"])
def test_cli_rejects_degenerate_construction(capsys, argv):
    _assert_rejected(capsys, argv)


_GUARDED = {  # each path builds O(n) lists once past the ground-set guard
    "trap": ["trap", "--k", "16", "--n", "64"],
    "trap-curve": ["trap", "--curve", "16"],
    "generate-monotone": ["generate", "--construction", "monotone", "--n", "256",
                          "--beta", "0.45"],
    "generate-coverage": ["generate", "--construction", "coverage", "--n", "256",
                          "--beta", "0.45"],
    "generate-trap": ["generate", "--construction", "trap", "--n", "64", "--beta", "0.5"],
    "distinguish": ["distinguish", "--n", "256", "--beta", "0.45", "--trials", "1"],
    "distinguish-no-trials": ["distinguish", "--n", "256", "--beta", "0.45", "--trials", "0"],
    "sandwich": ["verify", "--property", "sandwich"],
}


@pytest.mark.parametrize("case", sorted(_GUARDED))
def test_cli_ground_set_guard_covers_every_path(tmp_path, capsys, monkeypatch, case):
    """One constant guards every path; a small value stands in for 2^14."""
    argv = _GUARDED[case]
    if case == "sandwich":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"construction": {"n": 12, "h": 5, "alpha": 2, "k": 5,
                                                     "epsilon": 0.3}}))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(adversarial, "MAX_N", 8)
    _assert_rejected(capsys, argv)


def test_ground_set_guard_sits_at_2_14():
    assert adversarial.MAX_N == 1 << 14
    power_law_params(1 << 14, 0.45)
    for build in (lambda n: power_law_params(n, 0.45), lambda n: draw_hidden_set(n, 1, 0),
                  lambda n: build_greedy_trap(16, 0.5, n)):
        with pytest.raises(ValueError, match="guarded"):
            build((1 << 14) + 1)


def _distinguish_on_bound(monkeypatch, capsys, below):
    """Run ``distinguish`` with the gap bound moved onto the trial's exact
    greedy value, or an exact 10^-30 below it."""
    params = power_law_params(256, 0.45)
    _, value, escapes, _ = _sandwich_greedy_fast(params, draw_hidden_set(256, params.h, 0))
    assert escapes == 0
    ratio = value / params.k - (Fraction(1, 10 ** 30) if below else 0)
    monkeypatch.setattr(experiments, "gap_bound", lambda p: ratio)
    rows, _ = run_distinguishability(256, 0.45, 1, 0)
    code = cli.main(["distinguish", "--n", "256", "--beta", "0.45", "--trials", "1"])
    capsys.readouterr()
    return rows[0]["ok"], code


def test_distinguish_row_exactly_on_the_bound_passes(monkeypatch, capsys):
    assert _distinguish_on_bound(monkeypatch, capsys, below=False) == (True, EXIT_PASS)


def test_distinguish_decides_the_bound_exactly(monkeypatch, capsys):
    """A value 10^-30 over the bound once passed inside the float rule's 1e-12 slack."""
    assert _distinguish_on_bound(monkeypatch, capsys, below=True) == (False, EXIT_COUNTEREXAMPLE)


def test_zero_trials_report_empty_summaries():
    rows, summary = run_distinguishability(256, 0.45, trials=0, seed=0)
    assert rows == [] and summary["trials"] == 0
    assert summary["zero_escape_fraction"] == summary["mean_ratio"] == 0.0
    rows, summary = run_sampling_validation(shared_coverage(), 0.1, 3.0, trials=0)
    assert rows == [] and summary["trials"] == 0
    assert summary["violating_fraction"] == 0.0


def test_cli_verify_submodular_report_lines(tmp_path, capsys):
    """The report line, check count and witness for a pass and a failure."""
    cases = [
        ({"kind": "coverage", "universe_size": 4, "covers": [[0, 1], [1, 2], [2, 3], [0]]}, 0,
         "submodular coverage(n=4): pass (136 checks)\n"),
        ({"kind": "budget_additive", "weights": [5, -5, 5, 2], "budget": 5}, 1,
         "submodular budget_additive(n=4): FAIL (45 checks); counterexample: "
         "(Subset(n=4, elements=[1]), Subset(n=4, elements=[0, 2]))\n"),
    ]
    path = tmp_path / "inst.json"
    for inst, code, line in cases:
        path.write_text(json.dumps(inst))
        assert cli.main(["verify", "--property", "submodular", "--instance", str(path)]) == code
        assert capsys.readouterr().out == line


def test_readme_cli_lines_parse():
    """Every command in README's CLI block is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln.split() for ln in block.splitlines() if ln.startswith("approxsub ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README lists a command the parser rejects: {' '.join(argv)}")


def test_cli_parameter_rejection_exit_code(capsys):
    code = cli.main(["distinguish", "--n", "100", "--beta", "0.25", "--trials", "1"])
    assert code == 2



_SANDWICH_SAMPLED = {"construction": {"n": 10, "h": 4, "alpha": 2, "k": 3, "epsilon": 0.3,
                                      "family": "coverage"},
                     "seed": 1, "mode": "sampled"}


def _deep_sum(depth):
    """An additive instance nested in ``depth`` one-term sums, as JSON text."""
    return ('{"kind": "sum", "terms": [' * depth + '{"kind": "additive", "weights": [1, 2]}'
            + "]}" * depth)



_ADDITIVE = {"kind": "additive", "weights": [1, 2, 3]}
# (id, universe_size, covers, message) of coverage instances the CLI must refuse.
_BAD_COVERAGE = [
    ("coverage-bool-universe", True, [[0]], "universe_size must be an integer, got True"),
    ("coverage-float-universe", 4.5, [[0]], "universe_size must be an integer, got 4.5"),
    ("coverage-int-covers", 4, [5, 3],
     "each entry of covers must be a list of integer elements, got 5"),
    ("coverage-bool-cover", 4, [True],
     "each entry of covers must be a list of integer elements, got True"),
    ("coverage-bool-element", 4, [[True]],
     "each entry of covers must be a list of integer elements, got [True]"),
    ("coverage-float-element", 4, [[0, 0.5]],
     "each entry of covers must be a list of integer elements, got [0, 0.5]"),
    ("coverage-scalar-covers", 4, 5, "covers must be a list, got 5"),
]
_NUMBER = "must be a number or a {'num', 'den'} object, got"
_INTEGER_PARTS = "given as an object needs an integer 'num' and a nonzero integer 'den', got"
# (id, instance, message) of list and number keys the CLI must refuse.
_BAD_NUMBERS = [
    ("additive-int-weights", {"kind": "additive", "weights": 5}, "weights must be a list, got 5"),
    ("concave-int-table", {"kind": "concave_cardinality", "table": 3},
     "table must be a list, got 3"),
    ("sum-int-terms", {"kind": "sum", "terms": 5}, "terms must be a list, got 5"),
    ("additive-str-weights", {"kind": "additive", "weights": "ab"},
     "weights must be a list, got 'ab'"),
    ("additive-null-weight", {"kind": "additive", "weights": [None, 1]},
     f"each entry of weights {_NUMBER} None"),
    ("budget-list-budget", {"kind": "budget_additive", "weights": [1, 2], "budget": [3]},
     f"budget {_NUMBER} [3]"),
    ("budget-null-budget", {"kind": "budget_additive", "weights": [1, 2], "budget": None},
     f"budget {_NUMBER} None"),
    ("budget-list-weight", {"kind": "budget_additive", "weights": [[1], 2], "budget": 1},
     f"each entry of weights {_NUMBER} [1]"),
    ("concave-str-entry", {"kind": "concave_cardinality", "table": [0, "1"]},
     f"each entry of table {_NUMBER} '1'"),
    ("additive-str-num", {"kind": "additive", "weights": [{"num": "1", "den": 2}]},
     f"each entry of weights {_INTEGER_PARTS} {{'num': '1', 'den': 2}}"),
    ("budget-float-den", {"kind": "budget_additive", "weights": [1], "budget": {"num": 1,
                                                                             "den": 2.0}},
     f"budget {_INTEGER_PARTS} {{'num': 1, 'den': 2.0}}"),
    ("concave-zero-den", {"kind": "concave_cardinality", "table": [0, {"num": 1, "den": 0}]},
     f"each entry of table {_INTEGER_PARTS} {{'num': 1, 'den': 0}}"),
]
_HUGE_INT = {"kind": "additive", "weights": [10 ** 400, 1, 2]}
_INF_SUM = {"kind": "sum", "terms": [  # {0} and {1} are a finite counterexample
    {"kind": "budget_additive", "weights": [2, -1, 0], "budget": 1},
    {"kind": "additive", "weights": [0.5, 0, 1e308]},
    {"kind": "additive", "weights": [0, 0, 1e308]}]}
_INF_ADDITIVE = {"kind": "additive", "weights": [1e308, 1e308, 1]}

@pytest.mark.parametrize("argv, text", [
    (["sample"], '{"k": 0}'),
    (["sample"], '{"k": -2}'),
    (["sample"], '{"confidence_constant": -1}'),
    (["sample"], '{"confidence_constant": 0}'),
    (["verify", "--property", "sandwich"], json.dumps({**_SANDWICH_SAMPLED, "trials": -3})),
    (["verify", "--property", "monotone"], '{"kind": "additive", "weights": [1, {"num": 1, "den": 0}]}'),
    (["verify", "--property", "monotone"], '{"kind": "additive", "weights": [1, NaN]}'),
    (["verify", "--property", "submodular"], '{"kind": "additive", "weights": [1, 1e400]}'),
    (["verify", "--property", "monotone"], '{"kind": "concave_cardinality", "table": [0, Infinity]}'),
    (["sweep"], '{"count": -1}'),
    (["sweep"], '{"seeds": [Infinity], "sizes": [6], "count": 1}'),
    (["sample"], '{"n": 5, "trials": 2, "width": NaN}'),
    (["verify", "--property", "sandwich"],
     json.dumps({**_SANDWICH_SAMPLED, "trials": 5,
                 "construction": {**_SANDWICH_SAMPLED["construction"], "n": math.inf}})),
    (["verify", "--property", "sandwich"],
     '{"instance": {"kind": "additive", "weights": [1, 2]}, "mode": "sampled", "trials": 5, '
     '"seed": 1, "noise": {"kind": "inconsistent", "width": 0.5, "m": 2, "epsilon": Infinity}}'),
    # an unknown family once built the monotone pair; a missing key must still exit 2
    (["verify", "--property", "sandwich"],
     json.dumps({"construction": {**_SANDWICH_SAMPLED["construction"], "family": "bogus"}})),
    (["verify", "--property", "sandwich"],
     json.dumps({"construction": {"n": 10, "h": 4, "alpha": 2, "epsilon": 0.3}})),
    # sample's fixture was built before any guard ran
    (["sample"], '{"n": 100000000000000000000}'),
    (["sample"], '{"n": 1000000000}'),
    (["sample"], '{"alpha": 100000000000000000000}'),
    # 745,471,995 samples per queried set, about 6 GB in one batch
    (["sample"], '{"epsilon": 1e-4}'),
    (["verify", "--property", "sandwich"],
     json.dumps({"instance": {"kind": "additive", "weights": [1, 2]}, "mode": "sampled",
                 "trials": 5, "seed": 1, "noise": {"kind": "inconsistent", "width": 0.5,
                                                   "m": 2 ** 24 + 1, "epsilon": 0.3}})),
    # deep sum nesting: RecursionError in the JSON decoder, or in the package
    pytest.param(["sweep"], '{"instances": [' + _deep_sum(2000) + "]}", id="sweep-sum-depth-2000"),
    pytest.param(["verify", "--property", "submodular"], _deep_sum(2000),
                 id="submodular-sum-depth-2000"),
    # draws that overflow a float: a nan estimate was once counted as a
    # counterexample (exit 1), and the sample rows below exited 0; both warned
    (["verify", "--property", "sandwich"],
     json.dumps({"instance": {"kind": "additive", "weights": [1, 2]},
                 "noise": {"kind": "inconsistent", "width": 1e308, "m": 50, "epsilon": 0.3}})),
    # instance objects once dropped the keys their kind does not read and exited 0
    (["verify", "--property", "monotone"], '{"kind": "additive", "weights": [1, 2], "budget": 3}'),
    (["verify", "--property", "submodular"],
     json.dumps({"kind": "sum", "terms": [{"kind": "coverage", "universe_size": 2,
                                           "covers": [[0], [1]], "weights": [1, 2]}]})),
    (["verify", "--property", "monotone"],
     '{"kind": "concave_cardinality", "table": [0, 1, 1], "n": 2}'),
    (["sweep"], '{"instances": [{"kind": "additive", "weights": [1, 2], "n": 2}], "k": 1}'),
    (["sample"], json.dumps({"instance": {"kind": "budget_additive", "weights": [1, 2],
                                          "budget": 2, "cap": 1}, "trials": 1, "k": 1})),
    (["verify", "--property", "sandwich"],
     json.dumps({"instance": {"kind": "additive", "weights": [1, 2], "weight": 3},
                 "noise": {"kind": "consistent", "epsilon": 0.3}})),    # a stray key in a number object was once ignored
    (["verify", "--property", "monotone"],
     '{"kind": "additive", "weights": [{"num": 1, "den": 2, "dne": 7}, 1]}'),
    # b * eps^2 underflows to 0 and once raised ZeroDivisionError
    (["sample"], '{"epsilon": 1e-320}'),
    (["sample"], '{"width": 1e308, "trials": 2}'),
    (["sample"], '{"width": 1e308, "trials": 2, "family": "additive-bounded"}'),
    # an int weight past the float range once raised OverflowError with a traceback
    pytest.param(["sweep"], json.dumps({"instances": [_HUGE_INT], "k": 2, "seeds": [0]}),
                 id="sweep-int-1e400"),
    pytest.param(["sample"], json.dumps({"instance": _HUGE_INT, "trials": 1, "k": 2}),
                 id="sample-int-1e400"),
    pytest.param(["verify", "--property", "submodular"], json.dumps(_HUGE_INT),
                 id="submodular-int-1e400"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _HUGE_INT,
                             "noise": {"kind": "consistent", "epsilon": 0.1}}),
                 id="sandwich-int-1e400"),
    # values that overflow to inf once made the float tolerance inf, so a
    # finite counterexample passed (exit 0), and monotone warned
    pytest.param(["verify", "--property", "submodular"], json.dumps(_INF_SUM),
                 id="submodular-sum-inf"),
    pytest.param(["verify", "--property", "monotone"], json.dumps(_INF_SUM),
                 id="monotone-sum-inf"),
    # F = f = inf once failed the band test (exit 1) and the sweep's guarantee
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _INF_ADDITIVE,
                             "noise": {"kind": "consistent", "epsilon": 0.1}}),
                 id="sandwich-additive-inf"),
    pytest.param(["sweep"], json.dumps({"instances": [_INF_ADDITIVE], "k": 2, "seeds": [0]}),
                 id="sweep-additive-inf"),
    # a missing block or band once exited 2 with only a KeyError repr
    pytest.param(["verify", "--property", "sandwich"], json.dumps({"instance": _ADDITIVE}),
                 id="sandwich-no-noise"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE,
                             "noise": {"kind": "inconsistent", "width": 0.5, "m": 2}}),
                 id="sandwich-no-band-epsilon"),
    # a JSON boolean once counted as 0 or 1 and exited 0
    pytest.param(["sample"], '{"n": 6, "trials": true, "k": true}', id="sample-bool-counts"),
    pytest.param(["sample"], '{"n": true, "trials": 1, "k": 1}', id="sample-bool-n"),
    pytest.param(["sample"], '{"n": 6, "trials": 1, "k": 1, "seed": true}', id="sample-bool-seed"),
    pytest.param(["sweep"], '{"k": true, "sizes": [6], "count": 1, "seeds": [0]}',
                 id="sweep-bool-k"),
    pytest.param(["sweep"], '{"k": 2, "sizes": [6], "count": 1, "seeds": [true]}',
                 id="sweep-bool-seed"),
    pytest.param(["sweep"], '{"k": 2, "sizes": [true], "count": true, "seeds": [0]}',
                 id="sweep-bool-size-count"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"construction": {**_SANDWICH_SAMPLED["construction"], "alpha": True}}),
                 id="sandwich-bool-alpha"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({**_SANDWICH_SAMPLED, "trials": True}), id="sandwich-bool-trials"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "width": 0.5,
                                                              "m": True, "epsilon": 0.3}}),
                 id="sandwich-bool-m"),
    # a missing key once exited 2 with only a KeyError repr
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE,
                             "noise": {"kind": "inconsistent", "epsilon": 0.3, "m": 2}}),
                 id="sandwich-no-width"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3,
                                                              "width": 0.1, "B": 3}}),
                 id="sandwich-no-b"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"noise": {"kind": "consistent", "epsilon": 0.3}}),
                 id="sandwich-no-instance"),
    # a non-integer seed once exited 2 with only the TypeError of operator.index
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE,
                             "noise": {"kind": "consistent", "epsilon": 0.3, "seed": 1.5}}),
                 id="sandwich-float-seed"),
    # a real-valued key that is not a number once exited 2 naming no key, or
    # was read as 0 or 1: a sandwich FAIL (exit 1), or exit 0
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE,
                             "noise": {"kind": "consistent", "epsilon": "0.3"}}),
                 id="sandwich-str-epsilon"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3,
                                                              "width": "0.1", "m": 4}}),
                 id="sandwich-str-width"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3,
                                                              "width": 0.1, "B": 3, "b": "1"}}),
                 id="sandwich-str-b"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"construction": {**_SANDWICH_SAMPLED["construction"],
                                              "epsilon": "0.3"}}),
                 id="sandwich-str-construction-epsilon"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3,
                                                              "width": True, "m": 4}}),
                 id="sandwich-bool-width"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE,
                             "noise": {"kind": "consistent", "epsilon": False}}),
                 id="sandwich-bool-epsilon"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": "0.3",
                                                              "width": 0.1, "m": 4}}),
                 id="sandwich-str-band-epsilon"),
    pytest.param(["verify", "--property", "sandwich"],
                 json.dumps({"instance": _ADDITIVE, "noise": {
                     "kind": "inconsistent", "epsilon": 0.3, "width": 0.1, "B": [3], "b": 1,
                     "confidence_constant": None}}),
                 id="sandwich-list-B"),
    pytest.param(["sweep"], '{"delta_grid": [true], "sizes": [6], "count": 1, "seeds": [0]}',
                 id="sweep-bool-delta"),
    pytest.param(["sweep"], '{"delta_grid": ["0.5"], "sizes": [6], "count": 1, "seeds": [0]}',
                 id="sweep-str-delta"),
    pytest.param(["sample"], '{"n": 5, "trials": 2, "epsilon": "0.1"}', id="sample-str-epsilon"),
    pytest.param(["sample"], '{"n": 5, "trials": 2, "width": true}', id="sample-bool-width"),
    pytest.param(["sample"], '{"n": 5, "trials": 2, "confidence_constant": null}',
                 id="sample-null-confidence-constant"),
    # coverage instances once read true as 1, a bare number as a bitmask and
    # a true element as 1 (exit 0), or blamed "<<" for a float element
    *[pytest.param(["verify", "--property", "submodular"],
                   json.dumps({"kind": "coverage", "universe_size": u, "covers": c}), id=i)
      for i, u, c, _ in _BAD_COVERAGE],
    # with no trial to build an estimator, a bad family or width once exited 0
    pytest.param(["sample"], '{"n": 5, "trials": 0, "family": "bogus"}',
                 id="sample-zero-trials-bad-family"),
    pytest.param(["sample"], '{"n": 5, "trials": 0, "width": -1}',
                 id="sample-zero-trials-negative-width"),
    # a list or number key of the wrong type once exited 2 naming no key
    *[pytest.param(["verify", "--property", "submodular"], json.dumps(d), id=i)
      for i, d, _ in _BAD_NUMBERS],
])
@pytest.mark.filterwarnings("error")
def test_cli_rejects_malformed_input(tmp_path, capsys, argv, text):
    """Each input once exited 0 or 1, with or without a traceback; none
    may warn."""
    path = tmp_path / "in.json"
    path.write_text(text)
    flag = "--instance" if argv[-1] in ("monotone", "submodular") else "--config"
    _assert_rejected(capsys, argv + [flag, str(path)])


@pytest.mark.parametrize("cfg, message", [
    ({"instance": _ADDITIVE},
     "error: a sandwich config with an 'instance' needs a 'noise' block: "
     "it builds the noisy oracle F checked against the instance\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "width": 0.5, "m": 2}},
     "error: the noise block needs 'epsilon': the sandwich check tests "
     "F against the band (1 +- epsilon) f\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "consistent", "seed": 2}},
     "error: the noise block needs 'epsilon': the sandwich check tests "
     "F against the band (1 +- epsilon) f\n"),
    ({"construction": {**_SANDWICH_SAMPLED["construction"], "alpha": True}},
     "error: alpha must be an integer, got True\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "m": 2}},
     "error: an inconsistent noise block needs 'width', each draw's spread\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": 0.1,
                                       "B": 3}},
     "error: a noise block with 'B' needs 'b', the lower value bound\n"),
    ({"noise": {"kind": "consistent", "epsilon": 0.3}},
     "error: a sandwich config needs a 'construction' or an 'instance'\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": 0.3, "seed": 1.5}},
     "error: seed must be an integer, got 1.5\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": 0.0, "seed": [1]}},
     "error: seed must be an integer, got [1]\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": "0.3"}},
     "error: epsilon must be a number, got '0.3'\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": "0.1",
                                       "m": 4}},
     "error: width must be a number, got '0.1'\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": 0.1,
                                       "B": 3, "b": "1"}},
     "error: b must be a number, got '1'\n"),
    ({"construction": {**_SANDWICH_SAMPLED["construction"], "epsilon": "0.3"}},
     "error: epsilon must be a number, got '0.3'\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": True,
                                       "m": 4}},
     "error: width must be a number, got True\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": False}},
     "error: epsilon must be a number, got False\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": [0.3], "width": 0.1,
                                       "m": 4}},
     "error: epsilon must be a number, got [0.3]\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": 0.1,
                                       "B": None, "b": 1}},
     "error: B must be a number, got None\n"),
    ({"instance": _ADDITIVE, "noise": {"kind": "inconsistent", "epsilon": 0.3, "width": 0.1,
                                       "B": 3, "b": 1, "confidence_constant": "3"}},
     "error: confidence_constant must be a number, got '3'\n"),
], ids=["no-noise", "inconsistent-no-epsilon", "consistent-no-epsilon", "bool-alpha",
        "no-width", "no-b", "no-instance", "float-seed", "list-seed-zero-epsilon",
        "str-epsilon", "str-width", "str-b", "str-construction-epsilon", "bool-width",
        "bool-epsilon", "list-band-epsilon", "null-B", "str-confidence-constant"])
def test_cli_sandwich_names_the_key(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--property", "sandwich", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("prop, checks", [("submodular", 10), ("monotone", 4)],
                         ids=["submodular-sum-depth-450", "monotone-sum-depth-450"])
def test_cli_gives_deep_sums_a_verdict(tmp_path, capsys, prop, checks):
    """A one-term sum 450 deep once exited 2 from a RecursionError: reading
    its exact table took two stack frames per level."""
    path = tmp_path / "in.json"
    path.write_text(_deep_sum(450))
    assert cli.main(["verify", "--property", prop, "--instance", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{prop} sum(n=2): pass ({checks} checks)\n"
    assert captured.err == ""


_SEEDED_SANDWICHES = {
    "construction": {"construction": _SANDWICH_SAMPLED["construction"]},
    "consistent-noise": {"instance": _ADDITIVE,
                         "noise": {"kind": "consistent", "epsilon": 0.3}},
    "sampled-noise": {"instance": _ADDITIVE,
                      "noise": {"kind": "inconsistent", "width": 0.5, "epsilon": 0.3, "m": 2},
                      "mode": "sampled", "trials": 5, "seed": 1},
}


@pytest.mark.parametrize("seed", [None, [], 1.5], ids=["null", "list", "float"])
@pytest.mark.parametrize("case", sorted(_SEEDED_SANDWICHES))
def test_cli_sandwich_rejects_non_integer_seed(tmp_path, capsys, case, seed):
    """A null or empty seed once reached np.random.default_rng and drew OS
    entropy, so two runs on the same config differed."""
    cfg = json.loads(json.dumps(_SEEDED_SANDWICHES[case]))
    (cfg["noise"] if "noise" in cfg else cfg)["seed"] = seed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _assert_rejected(capsys, ["verify", "--property", "sandwich", "--config", str(path)])


@pytest.mark.parametrize("value", [[1], "x", None, 3])
@pytest.mark.parametrize("block", ["noise", "construction"])
def test_cli_sandwich_rejects_non_object_block(tmp_path, capsys, block, value):
    """A list noise block once crashed with AttributeError and exit 1."""
    cfg = {"instance": _ADDITIVE, "noise": value} if block == "noise" else {block: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _assert_rejected(capsys, ["verify", "--property", "sandwich", "--config", str(path)])


@pytest.mark.parametrize("universe_size, covers, message", [c[1:] for c in _BAD_COVERAGE],
                         ids=[c[0] for c in _BAD_COVERAGE])
def test_cli_coverage_message_names_the_key(tmp_path, capsys, universe_size, covers, message):
    """Each instance once exited 0, or 2 with a message that named no key."""
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"kind": "coverage", "universe_size": universe_size,
                                "covers": covers}))
    assert cli.main(["verify", "--property", "submodular", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("instance, message", [c[1:] for c in _BAD_NUMBERS],
                         ids=[c[0] for c in _BAD_NUMBERS])
def test_cli_instance_message_names_the_key(tmp_path, capsys, instance, message):
    """Each instance once exited 2 with a TypeError that named no key."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(instance))
    assert cli.main(["verify", "--property", "submodular", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("instance, kind, key", [
    ({"kind": "additive"}, "additive", "weights"),
    ({"kind": "budget_additive", "weights": [1]}, "budget_additive", "budget"),
    ({"kind": "budget_additive", "budget": 1}, "budget_additive", "weights"),
    ({"kind": "coverage", "covers": [[0]]}, "coverage", "universe_size"),
    ({"kind": "coverage", "universe_size": 2}, "coverage", "covers"),
    ({"kind": "concave_cardinality"}, "concave_cardinality", "table"),
    ({"kind": "sum"}, "sum", "terms"),
    ({"kind": "sum", "terms": [_ADDITIVE, {"kind": "budget_additive", "weights": [1, 2, 3]}]},
     "budget_additive", "budget"),
], ids=["additive-weights", "budget-budget", "budget-weights", "coverage-universe-size",
        "coverage-covers", "concave-table", "sum-terms", "sum-term-budget"])
def test_cli_instance_missing_key_names_kind_and_key(tmp_path, capsys, instance, kind, key):
    """Each instance once exited 2 with only the KeyError repr, such as
    ``error: 'weights'``."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(instance))
    assert cli.main(["verify", "--property", "monotone", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an instance of kind {kind!r} needs the key {key!r}\n"


@pytest.mark.parametrize("value", [0.5, 3, "ab", {"a": 1}, None, True])
@pytest.mark.parametrize("key", ["sizes", "seeds", "delta_grid", "instances"])
def test_cli_sweep_list_key_must_be_a_list(tmp_path, capsys, key, value):
    """A scalar, string or object once exited 2 with "'float' object is not
    iterable", or for a string blamed its first character; the message names
    the key."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({key: value}))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be a list, got {value!r}\n"


@pytest.mark.parametrize("sizes", [[100_000_000], [8, 15], [0], [-3], [8.0], ["8"], [None], 8])
def test_cli_sweep_checks_sizes_before_building_instances(tmp_path, capsys, monkeypatch, sizes):
    def refuse(*args, **kwargs):
        raise AssertionError("instance_corpus called before the sizes were checked")

    monkeypatch.setattr(cli.experiments, "instance_corpus", refuse)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sizes": sizes}))
    _assert_rejected(capsys, ["sweep", "--config", str(path)])


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.5, 0.0, 0.5]),
    st.lists(st.one_of(st.integers(-2, 3), st.sampled_from([math.nan, math.inf])), max_size=2),
)
_STRAY = "stray"  # a key no config object knows
_BASES = {  # command: (valid small config, fields to spoil as (block or None, key))
    "sweep": ({"k": 2, "delta_grid": [0.0, 0.5], "seeds": [0], "sizes": [6], "count": 1},
              [(None, f) for f in ("k", "delta_grid", "seeds", "sizes", "count", "corpus_seed",
                                   _STRAY)]),
    "sample": ({"n": 5, "k": 2, "trials": 2, "epsilon": 0.5},
               [(None, f) for f in ("n", "alpha", "epsilon", "confidence_constant", "trials",
                                    "seed", "k", "width", "family", _STRAY)]),
    "sandwich": ({**_SANDWICH_SAMPLED, "trials": 20},
                 [("construction", f) for f in ("n", "h", "alpha", "k", "epsilon", "family",
                                                 _STRAY)]
                 + [(None, f) for f in ("seed", "mode", "trials", _STRAY)]),
    "sandwich-noise": ({"instance": {"kind": "additive", "weights": [1, 2, 3]},
                        "noise": {"kind": "inconsistent", "width": 0.5, "epsilon": 0.3,
                                  "m": 2, "seed": 1},
                        "mode": "sampled", "trials": 5, "seed": 1},
                       [("noise", f) for f in ("kind", "family", "width", "epsilon", "m", "seed",
                                               "B", "b", "confidence_constant", _STRAY)]
                       + [("instance", f) for f in ("kind", "weights", _STRAY)]
                       + [(None, f) for f in ("mode", "trials", "seed", _STRAY)]),
}
# The sampled estimator's other block form, m from the value range B, b.
_NOISE_RANGE = {"instance": {"kind": "additive", "weights": [1, 2]},
                "noise": {"kind": "inconsistent", "family": "additive-bounded", "width": 0.5,
                          "epsilon": 0.5, "B": 3, "b": 1, "confidence_constant": 0.5, "seed": 1}}
_FUZZ_BASES = {**_BASES, "sandwich-noise-range": (
    _NOISE_RANGE, [("noise", f) for f in ("family", "width", "m", "B", "b", "epsilon",
                                          "confidence_constant", _STRAY)])}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_BASES)), st.data())
def test_cli_never_raises_on_malformed_config(tmp_path_factory, command, data):
    """Whatever the config fields hold, main returns 0, 1 or 2 and raises
    nothing; a config with a stray key returns 2."""
    base, fields = _FUZZ_BASES[command]
    cfg = json.loads(json.dumps(base))
    spoiled = data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    for block, key in spoiled:
        (cfg[block] if block else cfg)[key] = data.draw(_junk)
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command] if command in ("sweep", "sample") else ["verify", "--property", "sandwich"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--config", str(path)])
    assert code in (0, 1, 2)
    if any(key == _STRAY for _, key in spoiled):
        assert code == 2


def _flag_values(*valid):
    """A flag's value: one of the given valid strings, or junk argparse or
    the runner must refuse."""
    return st.sampled_from(list(valid) + ["-1", "0", "nan", "inf", "1e400", "x", ""])


_FLAGS = {  # command prefix: flag -> values, None leaving the flag out
    ("distinguish",): {
        "--n": _flag_values("2", "16", "64", "256", "16385"),
        "--beta": _flag_values("0.25", "0.45", "0.5", "1", "1e9"),
        "--trials": _flag_values("1", "3"),
        "--seed": st.sampled_from([None, "0", "7", "-3", "x"]),
    },
    ("trap",): {
        "--k": _flag_values("1", "4", "12", "16", "10000000000"),
        "--n": _flag_values("8", "48", "64", "100", "16385"),
        "--beta": _flag_values("0.25", "0.5", "0.75", "1e9"),
        "--curve": st.one_of(st.none(), st.lists(_flag_values("4", "12", "16"), max_size=3)),
    },
    ("generate",): {
        "--construction": st.sampled_from(["monotone", "coverage", "trap", "bogus"]),
        "--n": _flag_values("64", "256", "4096", "16384", "16385"),
        "--beta": _flag_values("0.25", "0.45", "0.5", "1e9"),
        "--k": st.sampled_from([None, "4", "16", "-2", "x"]),
        "--seed": st.sampled_from([None, "0", "3", "x"]),
    },
    ("verify", "--property", "concentration"): {
        "--mode": st.sampled_from(["mc", "mc", "exact", "bogus"]),
        "--trials": _flag_values("1", "10", "1000"),
        "--n": _flag_values("10", "100", "2000"),
        "--h": _flag_values("5", "50", "500"),
        "--set-size": _flag_values("4", "40", "400"),
        "--epsilon": _flag_values("0.5", "0.9", "3"),
        "--seed": st.sampled_from([None, "0", "5"]),
    },
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_FLAGS)), st.data())
def test_cli_never_raises_on_malformed_flags(command, data):
    """Whatever the flags of distinguish, trap, generate and verify
    --property concentration hold, the CLI exits 0, 1 or 2 (argparse's own
    exit for a value it cannot parse) and raises nothing."""
    argv = list(command)
    for flag, values in _FLAGS[command].items():
        value = data.draw(values, label=flag)
        if value is not None:
            argv += [flag] + (value if isinstance(value, list) else [value])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv


_NUMBER = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 61, -2 ** 63, 1e308, -1e308, 0.5, -1.5,
                     5e-324, math.nan]),
    st.builds(lambda p, q: {"num": p, "den": q}, st.integers(-9, 10 ** 20), st.integers(-3, 7)),
)
_JUNK_NODE = st.sampled_from([None, "x", True, [], {}, 3, {"kind": "bogus"}, {"kind": None}])


def _instance_json(n):
    """Instance objects over n elements, nested in sums: valid shapes with
    spoiled numbers, plus junk kinds, stray keys and wrong lengths."""
    numbers = st.lists(_NUMBER, min_size=n, max_size=n)
    concave = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda steps: [sum(sorted(steps, reverse=True)[:i]) for i in range(n + 1)])
    leaf = st.one_of(
        st.builds(lambda w: {"kind": "additive", "weights": w}, numbers),
        st.builds(lambda w, b: {"kind": "budget_additive", "weights": w, "budget": b},
                  numbers, _NUMBER),
        st.builds(lambda u, c: {"kind": "coverage", "universe_size": u, "covers": c},
                  st.integers(0, 6),
                  st.lists(st.lists(st.integers(-1, 6), max_size=3), min_size=n, max_size=n)),
        st.builds(lambda t: {"kind": "concave_cardinality", "table": t},
                  st.one_of(concave, st.lists(_NUMBER, min_size=n + 1, max_size=n + 1))),
        st.builds(lambda w: {"kind": "additive", "weights": w}, st.lists(_NUMBER, max_size=n + 1)),
        st.builds(lambda w: {"kind": "additive", "weights": w, "stray": 1}, numbers),
        _JUNK_NODE,
    )
    return st.recursive(leaf, lambda inner: st.builds(
        lambda terms: {"kind": "sum", "terms": terms}, st.lists(inner, min_size=1, max_size=3)),
        max_leaves=5)


def _witness(out: str, n: int, prop: str):
    """The counterexample on a FAIL line: two subsets, or a subset and an element."""
    sets = [Subset.from_elements([int(e) for e in found.split(",") if e.strip()], n)
            for found in re.findall(r"elements=\[([\d, ]*)\]", out)]
    if prop == "submodular":
        return sets
    return sets[0], int(re.search(r"\), (\d+)\)$", out.strip()).group(1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["submodular", "monotone"]), st.integers(1, 5), st.data())
def test_cli_never_raises_on_malformed_instance(tmp_path_factory, prop, n, data):
    """Whatever the instance JSON holds, ``verify --property submodular`` and
    ``monotone`` exit 0, 1 or 2, raise and warn nothing, and exit 1 only on
    a witness whose own ``value()``s violate the property exactly."""
    doc = data.draw(_instance_json(n))
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(doc))
    stdout = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--property", prop, "--instance", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        fn = instance_from_dict(doc)
        F = lambda s: Fraction(fn.value(s))  # noqa: E731  exact, floats included
        if prop == "submodular":
            s, t = _witness(stdout.getvalue(), fn.n, prop)
            assert F(s.union(t)) + F(s.intersection(t)) > F(s) + F(t)
        else:
            s, a = _witness(stdout.getvalue(), fn.n, prop)
            assert a not in s and F(s.add(a)) < F(s)


# ---------------------------------------------------------------------------
# Config objects go to the runners whole: the previous handlers as references
# ---------------------------------------------------------------------------
# The three handlers below are verbatim as they stood when the CLI read each
# config key with its own cfg.get(key, default) and dropped unknown keys (the
# sandwich branch of _cmd_verify as a handler of its own; relative imports
# made absolute).  On every valid config the CLI must match them in exit
# code, stdout, stderr and report bytes.

def previous_cmd_sweep(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    k = cfg.get("k", 4)
    delta_grid = cfg.get("delta_grid", [0.0, 0.5, 1.0 - 1e-9])
    seeds = cfg.get("seeds", list(range(10)))
    if "instances" in cfg:
        instances = [instance_from_dict(d) for d in cfg["instances"]]
    else:
        sizes = tuple(operator.index(size) for size in cfg.get("sizes", (8, 10)))
        if not all(1 <= size <= experiments.SWEEP_MAX_N for size in sizes):
            raise ValueError(f"sweep sizes must be in 1..{experiments.SWEEP_MAX_N}, got {sizes}")
        corpus = experiments.instance_corpus(cfg.get("corpus_seed", args.seed), sizes=sizes)
        count = cfg.get("count", len(corpus))
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        instances = corpus[:count]
    rows = experiments.run_noise_sweep(instances, k, delta_grid, seeds)
    _emit(rows, args)
    bad = [r for r in rows if not r.get("ok", True)]
    print(f"sweep: {len(rows)} runs, {len(bad)} below the guarantee")
    return EXIT_COUNTEREXAMPLE if bad else EXIT_PASS


def previous_cmd_sample(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    if "instance" in cfg:
        f = instance_from_dict(cfg["instance"])
    else:
        # Default fixture: every element covers the same shared block, so the
        # value range over nonempty sets is a single point.
        from approxsub.functions import CoverageFunction

        n = cfg.get("n", 12)
        shared = list(range(cfg.get("alpha", 5)))
        f = CoverageFunction(cfg.get("alpha", 5), [shared] * n)
    rows, summary = experiments.run_sampling_validation(
        f,
        epsilon=cfg.get("epsilon", 0.1),
        confidence_constant=cfg.get("confidence_constant", 3.0),
        trials=cfg.get("trials", 100),
        seed=cfg.get("seed", args.seed),
        k=cfg.get("k", 4),
        width=cfg.get("width", 0.5),
        family=cfg.get("family", "uniform-relative"),
    )
    _emit(rows, args)
    print(json.dumps({"summary": summary}, sort_keys=True))
    ok = summary["violating_fraction"] <= summary["prediction"] + 1e-12
    return EXIT_PASS if ok else EXIT_COUNTEREXAMPLE


def previous_cmd_verify_sandwich(args):
    if not args.config:
        raise ValueError("--config required for the sandwich check")
    cfg = _load_json(args.config)
    if "construction" in cfg:
        c = cfg["construction"]
        if not isinstance(c, dict):
            raise ValueError(f"a construction must be a JSON object, got {type(c).__name__}")
        from approxsub.adversarial import HardPairParams

        params = HardPairParams(
            n=c["n"], h=c["h"], alpha=c["alpha"], k=c["k"], epsilon=c["epsilon"],
        )
        hidden = draw_hidden_set(params.n, params.h,
                                 operator.index(cfg.get("seed", args.seed)))
        pair = (build_coverage_pair if c.get("family") == "coverage"
                else build_monotone_pair)(params, hidden)
        F = build_sandwich(pair)
        f = pair.fh
        epsilon = params.epsilon
        n = params.n
    else:
        f = instance_from_dict(cfg["instance"])
        F = noise_from_dict(f, cfg["noise"])
        if not isinstance(F, ValueOracle):
            raise ValueError("an inconsistent noise block needs 'm' or 'B' for the "
                             "sandwich check (a sampled estimator)")
        epsilon = cfg["noise"]["epsilon"]
        n = f.n
    mode = cfg.get("mode", args.mode or "exhaustive")
    report = check_sandwich(
        F, f, epsilon, n, mode=mode,
        trials=cfg.get("trials", args.trials), seed=cfg.get("seed", args.seed),
    )
    print(f"sandwich {report.instance}: {'pass' if report.passed else 'FAIL'} "
          f"({report.examined} sets)")
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


_PREVIOUS = {"sweep": ("_cmd_sweep", previous_cmd_sweep),
             "sample": ("_cmd_sample", previous_cmd_sample),
             "sandwich": ("_cmd_verify", previous_cmd_verify_sandwich)}
_CONSTRUCTION = {"n": 12, "h": 5, "alpha": 2, "k": 5, "epsilon": 0.3}
_VALID_CONFIGS = [  # (command, config or None, extra flags)
    # tests above
    ("sweep", {"k": 3, "delta_grid": [0.0, 0.5], "seeds": [0, 1], "count": 3, "sizes": [8]}, []),
    ("sample", None, []),
    ("sandwich", {"construction": _CONSTRUCTION, "seed": 8, "mode": "exhaustive"}, []),
    ("sandwich", {"instance": instance_to_dict(instance_corpus(2)[1]),
                  "noise": {"kind": "consistent", "epsilon": 0.2, "seed": 4},
                  "mode": "exhaustive"}, []),
    *[("sandwich", cfg, []) for _, cfg in sorted(_SEEDED_SANDWICHES.items())],
    *[("sandwich" if command.startswith("sandwich") else command, base, [])
      for command, (base, _) in sorted(_BASES.items())],
    # README config sketches
    ("sweep", {"k": 4, "delta_grid": [0, 0.5], "seeds": [0, 1], "count": 8, "sizes": [8, 10]},
     []),
    ("sandwich", {"instance": _ADDITIVE,
                  "noise": {"kind": "consistent", "epsilon": 0.2, "seed": 4}}, []),
    ("sandwich", {"construction": _CONSTRUCTION}, []),
    # every default, every key and each form of each config object
    ("sweep", None, ["--seed", "3"]),
    ("sweep", {"count": 2}, []),
    ("sweep", {"sizes": [6, 7], "corpus_seed": 5, "count": 4, "k": 2, "seeds": [3]}, []),
    ("sweep", {"instances": [_ADDITIVE, {"kind": "sum", "terms": [_ADDITIVE, _ADDITIVE]}],
               "k": 2, "delta_grid": [0.25, 0.9], "seeds": [0, 7]}, []),
    ("sample", {"trials": 7}, ["--seed", "11"]),
    ("sample", {"n": 6, "alpha": 3, "epsilon": 0.3, "confidence_constant": 2.0, "trials": 4,
                "seed": 9, "k": 3, "width": 1.0, "family": "additive-bounded"}, []),
    ("sample", {"alpha": 70, "n": 4, "trials": 3}, []),  # past the exact coverage table
    ("sample", {"instance": _ADDITIVE, "trials": 5, "k": 2}, []),
    ("sandwich", {"construction": {**_CONSTRUCTION, "family": "monotone"}, "seed": 2}, []),
    ("sandwich", {"construction": {**_CONSTRUCTION, "family": "coverage"}},
     ["--mode", "sampled", "--trials", "300", "--seed", "5"]),
    ("sandwich", {"instance": _ADDITIVE,
                  "noise": {"kind": "inconsistent", "family": "additive-bounded", "width": 0.5,
                            "B": 6, "b": 1, "epsilon": 0.4, "confidence_constant": 2.0,
                            "seed": 2}, "mode": "sampled", "trials": 40}, []),
    ("sandwich", {"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": 0.3}},
     ["--seed", "6"]),
    ("sandwich", _NOISE_RANGE, []),
]


def _cli_outcome(argv, out):
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("command, cfg, flags, fmt", [
    pytest.param(command, cfg, flags, fmt, id=f"{command}-{i}-{fmt}")
    for i, (command, cfg, flags) in enumerate(_VALID_CONFIGS)
    # a sandwich check writes no report; the default sweep (1.3 s) runs once
    for fmt in (["csv"] if command == "sandwich" or cfg is None and command == "sweep"
                else ["csv", "structured"])
])
def test_cli_matches_previous_handlers(tmp_path, monkeypatch, command, cfg, flags, fmt):
    argv = [command] if command != "sandwich" else ["verify", "--property", "sandwich"]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    out = tmp_path / "report.out"
    argv += flags + ["--out", str(out), "--format", fmt]
    got = _cli_outcome(argv, out)
    name, previous = _PREVIOUS[command]
    with monkeypatch.context() as m:
        m.setattr(cli, name, previous)
        want = _cli_outcome(argv, out)
    assert got == want
    assert got[0] in (0, 1) and got[2] == ""
    assert (got[3] is None) == (command == "sandwich")


_STRAY_CONFIGS = {  # one stray, misspelled or misplaced key per config object
    "sweep": (["sweep"], {"kk": 99}),
    "sweep-instances": (["sweep"], {"instances": [_ADDITIVE], "sizes": [8], "k": 2}),
    "sample": (["sample"], {"epsilom": 0.5}),
    "sample-instance": (["sample"], {"instance": _ADDITIVE, "n": 3, "trials": 1, "k": 2}),
    "sandwich": (["verify", "--property", "sandwich"],
                 {"construction": _CONSTRUCTION, "trails": 5}),
    "sandwich-noise": (["verify", "--property", "sandwich"],
                       {**_SEEDED_SANDWICHES["consistent-noise"], "epsilon": 0.3}),
    "construction": (["verify", "--property", "sandwich"],
                     {"construction": {**_CONSTRUCTION, "familly": "coverage"}}),
    "construction-beta": (["verify", "--property", "sandwich"],
                          {"construction": {**_CONSTRUCTION, "beta": 0.25}}),
    "consistent-noise": (["verify", "--property", "sandwich"],
                         {"instance": _ADDITIVE,
                          "noise": {"kind": "consistent", "epsilon": 0.3, "sead": 1}}),
    "consistent-noise-width": (["verify", "--property", "sandwich"],
                               {"instance": _ADDITIVE,
                                "noise": {"kind": "consistent", "epsilon": 0.3, "width": 0.5}}),
    "inconsistent-noise": (["verify", "--property", "sandwich"],
                           {**_SEEDED_SANDWICHES["sampled-noise"],
                            "noise": {**_SEEDED_SANDWICHES["sampled-noise"]["noise"],
                                      "withd": 0.1}}),
}


@pytest.mark.parametrize("case", sorted(_STRAY_CONFIGS))
def test_cli_rejects_stray_key(tmp_path, capsys, case):
    """Each of these once ran with the key ignored and exited 0."""
    argv, cfg = _STRAY_CONFIGS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _assert_rejected(capsys, argv + ["--config", str(path)])


_NEGATIVE_SEEDS = {  # (argv, config or None, the message's key and value)
    "distinguish": (["distinguish", "--n", "256", "--trials", "5", "--seed", "-1"], None,
                    "seed", -1),
    "generate": (["generate", "--construction", "monotone", "--n", "256", "--beta", "0.25",
                  "--seed", "-1"], None, "seed", -1),
    "sweep-flag": (["sweep", "--seed", "-1"], None, "seed", -1),
    "sweep-corpus-seed": (["sweep"], {"corpus_seed": -2}, "corpus_seed", -2),
    "sandwich-construction": (["verify", "--property", "sandwich"],
                              {"construction": _CONSTRUCTION, "seed": -3}, "seed", -3),
    "sandwich-inconsistent-noise": (["verify", "--property", "sandwich"],
                                    {"instance": _ADDITIVE,
                                     "noise": {"kind": "inconsistent", "epsilon": 0.3,
                                               "width": 0.1, "m": 2, "seed": -1}}, "seed", -1),
    "sample": (["sample"], {"seed": -1}, "seed", -1),
    "concentration-mc": (["verify", "--property", "concentration", "--mode", "mc", "--n", "100",
                          "--h", "50", "--set-size", "40", "--epsilon", "0.5", "--seed", "-1"],
                         None, "seed", -1),
}


@pytest.mark.parametrize("case", list(_NEGATIVE_SEEDS))
def test_cli_negative_seed_names_its_key(tmp_path, capsys, case):
    """Each once exited 2 with numpy's "expected non-negative integer",
    which names no key."""
    argv, cfg, key, value = _NEGATIVE_SEEDS[case]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be a nonnegative integer, got {value}\n"


@pytest.mark.parametrize("argv, cfg", [
    (["sweep"], {"seeds": [-1], "count": 1, "sizes": [6], "k": 2, "delta_grid": [0.5]}),
    (["verify", "--property", "sandwich"],
     {"instance": _ADDITIVE, "noise": {"kind": "consistent", "epsilon": 0.3, "seed": -1}}),
    (["verify", "--property", "sandwich"], {**_SEEDED_SANDWICHES["sampled-noise"], "seed": -1}),
], ids=["sweep-seeds", "consistent-noise", "sampled-check"])
def test_cli_negative_seed_without_numpy_generator_runs(tmp_path, capsys, argv, cfg):
    """Sweep's seeds and a consistent noise seed feed a hash, and the sampled
    check's seed a random.Random: negative values give a verdict there."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(argv + ["--config", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_cli_subcommands_take_only_the_shared_flags_they_read():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shared = {name: sorted(flag for action in p._actions for flag in action.option_strings
                           if flag in cli._SHARED_FLAGS)
              for name, p in subparsers.choices.items()}
    assert shared == {
        "verify": ["--config", "--format", "--out", "--seed"],
        "distinguish": ["--format", "--out", "--seed"],
        "sweep": ["--config", "--format", "--out", "--seed"],
        "trap": ["--format", "--out"],
        "sample": ["--config", "--format", "--out", "--seed"],
        "generate": ["--out", "--seed"],
    }
    assert sum(map(len, shared.values())) == 19


@pytest.mark.parametrize("argv", [
    ["distinguish", "--n", "256", "--trials", "1", "--config", "/nonexistent.json"],
    ["trap", "--seed", "5"],
    ["trap", "--config", "/nonexistent.json"],
    ["generate", "--construction", "trap", "--n", "64", "--beta", "0.5",
     "--config", "/nonexistent.json"],
    ["generate", "--construction", "trap", "--n", "64", "--beta", "0.5",
     "--format", "structured"],
], ids=["distinguish-config", "trap-seed", "trap-config", "generate-config", "generate-format"])
def test_cli_refuses_a_shared_flag_its_handler_ignores(capsys, argv):
    """Each once exited 0 with the flag ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"alpha": -1}, {"alpha": 0}, {"n": 0}, {"n": -2},
                                 {"n": 21}, {"alpha": 2 ** 24 + 1}],
                         ids=["alpha-negative", "alpha-zero", "n-zero", "n-negative",
                              "n-past-20", "alpha-past-2-24"])
def test_cli_sample_fixture_names_both_bounds(tmp_path, capsys, cfg):
    """alpha = -1 once printed "negative shift count", alpha = 0 blamed the
    lower value bound b, and n = 0 printed "need at least one element"."""
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sample", "--config", str(path)]) == 2
    n, alpha = cfg.get("n", 12), cfg.get("alpha", 5)
    assert capsys.readouterr().err == (
        f"error: the fixture is guarded at 1 <= n <= 20 and 1 <= alpha <= {2 ** 24}, "
        f"got n={n}, alpha={alpha}\n")
