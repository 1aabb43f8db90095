"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion verdict
lines alongside the pytest output.
"""

import math
import time
from fractions import Fraction

import pytest

import approxsub.cli as cli
from approxsub.adversarial import (
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    gap_bound,
)
from approxsub.experiments import (
    instance_corpus,
    run_distinguishability,
    run_sampling_validation,
    run_trap,
)
from approxsub.functions import CoverageFunction, curvature
from approxsub.matroids import PartitionMatroid
from approxsub.noise import ConsistentNoiseOracle
from approxsub.sets import Subset
from approxsub.solvers import (
    brute_force,
    curvature_bound,
    curvature_topk,
    expected_greedy_queries,
    greedy_bound,
    greedy_cardinality,
    greedy_matroid,
    matroid_bound,
)
from approxsub.verify import (
    check_concentration,
    check_monotone,
    check_sandwich,
    check_submodular,
)
from conftest import max_over_budget, override_sets

# (n, h, alpha, k) with alpha <= k <= h <= n/2, n <= 12
PAIR_FIXTURES = [
    (8, 4, 2, 3),
    (8, 4, 1, 2),
    (10, 5, 3, 4),
    (10, 4, 2, 3),
    (12, 6, 3, 4),
    (12, 5, 2, 4),
    (12, 6, 5, 6),
]


def _verdict(num, desc, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {desc}"
    if extra:
        line += f" -- {extra}"
    print(line)
    return ok


def _pairs(fixture, epsilon=0.25):
    n, h, alpha, k = fixture
    params = HardPairParams(n=n, h=h, alpha=alpha, k=k, epsilon=epsilon)
    hidden = draw_hidden_set(n, h, seed=n * 1000 + h * 100 + alpha * 10 + k)
    return params, build_monotone_pair(params, hidden), build_coverage_pair(params, hidden)


def test_criterion_01_construction_validity():
    start = time.time()
    ok = True
    for fixture in PAIR_FIXTURES:
        n = fixture[0]
        _, mono, cov = _pairs(fixture)
        for fn in (mono.fh, mono.g, cov.fh, cov.g):
            ok = ok and check_submodular(fn, n).passed
            ok = ok and check_monotone(fn, n).passed
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    assert _verdict(
        1, "planted pairs pass exhaustive submodularity and monotonicity",
        ok, f"{len(PAIR_FIXTURES)} fixtures x 4 functions in {elapsed:.1f}s",
    )


def test_criterion_02_sandwich_validity():
    ok = True
    # Piecewise decoy oracle against its planted representative, exhaustive.
    for fixture, eps in [((10, 5, 3, 4), 0.25), ((12, 6, 3, 4), 0.5),
                         ((12, 5, 2, 4), 0.125)]:
        params, mono, _ = _pairs(fixture, epsilon=eps)
        sw = build_sandwich(mono)
        ok = ok and check_sandwich(sw, mono.fh, eps, params.n).passed
    # Persistent multiplicative noise, exhaustive, both error levels.
    corpus = instance_corpus(0)
    picks = [next(i for i in corpus if i.n == n) for n in (8, 10, 12)]
    for inst in picks:
        for eps in (0.1, 0.25):
            F = ConsistentNoiseOracle(inst, eps, seed=7)
            ok = ok and check_sandwich(F, inst, eps, inst.n).passed
    # Trap override sets at n=64, exact rational comparisons.
    trap = build_greedy_trap(16, 0.5, 64)
    lo = 1 - trap.epsilon
    hi = 1 + trap.epsilon
    count = 0
    for s in override_sets(trap):
        Fv = trap.value(s)
        fv = trap.f.value(s)
        assert isinstance(Fv, (int, Fraction)) and isinstance(fv, (int, Fraction))
        ok = ok and (lo * fv <= Fv <= hi * fv)
        count += 1
    ok = ok and count == len(trap.c_elements)
    # Off the override family the oracle equals its representative.
    a = Subset.from_elements(trap.a_elements, 64)
    for s in (a, a.add(trap.b_elements[0]),
              a.add(trap.c_elements[0]).add(trap.c_elements[1])):
        ok = ok and trap.value(s) == trap.f.value(s)
    assert _verdict(2, "band property holds for decoy, noise, and trap oracles", ok,
                    f"{count} trap override sets checked exactly")


def test_criterion_03_gap_inequality():
    ok = True
    min_slack = None
    for fixture in PAIR_FIXTURES:
        n, _, _, k = fixture
        params, mono, cov = _pairs(fixture)
        bound = gap_bound(params)
        for pair in (mono, cov):
            max_g = max_over_budget(pair.g, n, k)
            max_fh = max_over_budget(pair.fh, n, k)
            ok = ok and (max_g <= bound * max_fh)
            slack = float(1 - Fraction(max_g) / (bound * max_fh))
            min_slack = slack if min_slack is None else min(min_slack, slack)
    assert _verdict(3, "decoy maximum within the gap fraction of the planted maximum",
                    ok, f"smallest relative slack {min_slack:.4f}")


CONCENTRATION_GRID = [
    # (n, h, |S|, eps, mc_seed), all with eps^2 mu > 1
    (100, 50, 40, 0.5, 101),
    (64, 32, 48, 0.4, 102),
    (120, 60, 60, 0.35, 103),
    (200, 80, 100, 0.3, 104),
    (500, 200, 300, 0.2, 105),
]


def test_criterion_04_concentration():
    ok = True
    worst_gap = None
    for n, h, s, eps, seed in CONCENTRATION_GRID:
        exact = check_concentration(n, h, s, eps, method="exact")
        assert float(exact.epsilon) ** 2 * float(exact.mu) > 1
        ok = ok and exact.measured >= exact.reference
        mc = check_concentration(n, h, s, eps, method="mc",
                                 trials=1_000_000, seed=seed)
        se = math.sqrt(max(exact.measured * (1 - exact.measured), 1e-12) / 1_000_000)
        ok = ok and abs(mc.measured - exact.measured) <= 3 * se
        gap = exact.measured - exact.reference
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    assert _verdict(4, "exact overlap band probability beats the exponential "
                       "reference; Monte Carlo agrees within 3 SE",
                    ok, f"{len(CONCENTRATION_GRID)} grid points, "
                        f"smallest margin {worst_gap:.4f}")


def test_criterion_05_greedy_guarantee():
    corpus = instance_corpus(0)
    assert len(corpus) >= 30
    runs = 0
    failures = 0
    for idx, inst in enumerate(corpus):
        k = (2, 4, 6)[idx % 3]
        for eps in (0.0, 0.5 / k, 1.0 / k):
            bound = greedy_bound(k, eps)
            for seed in range(10):
                F = ConsistentNoiseOracle(inst, eps, seed)
                res = greedy_cardinality(F, k)
                opt = brute_force(F, k)
                runs += 1
                floor = bound * float(opt.value)
                if float(res.value) < floor:
                    failures += 1
    grid_ok = all(
        greedy_bound(k, (i / 50) / k) >= 1 - 1 / math.e - 16 * (i / 50)
        for k in (2, 4, 6) for i in range(50)
    )
    ok = failures == 0 and grid_ok
    assert _verdict(5, "noisy greedy clears its closed-form guarantee on every run",
                    ok, f"{runs} runs over {len(corpus)} instances; "
                        f"{failures} failures; delta-grid floor "
                        f"{'holds' if grid_ok else 'BROKEN'}")


MATROID_FIXTURES = [
    # (blocks per element, capacities)
    ([0, 0, 0, 1, 1, 2, 2, 2], [1, 2, 1]),
    ([0, 1, 2, 3, 0, 1, 2, 3], [1, 1, 1, 1]),
    ([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], [2, 1, 2]),
    ([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], [1, 1, 1, 1, 1]),
    ([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], [2, 3]),
]


def test_criterion_06_matroid_guarantee():
    corpus = instance_corpus(0)
    runs = 0
    failures = 0
    for blocks, caps in MATROID_FIXTURES:
        n = len(blocks)
        matroid = PartitionMatroid(blocks, caps)
        k = matroid.rank()
        bases = [inst for inst in corpus if inst.n == n][:2]
        assert bases, f"no corpus instances with n={n}"
        for f in bases:
            opt_f = brute_force(f, matroid)  # representative's optimum
            for eps in (0.0, 0.5 / k, 1.0 / k):
                bound = matroid_bound(k, eps)
                for seed in range(10):
                    F = ConsistentNoiseOracle(f, eps, seed)
                    res = greedy_matroid(F, matroid)
                    runs += 1
                    floor = bound * float(opt_f.value)
                    if float(res.value) < floor:
                        failures += 1
    ok = failures == 0
    assert _verdict(6, "noisy matroid greedy clears its guarantee against the "
                       "representative's optimum", ok,
                    f"{runs} runs on {len(MATROID_FIXTURES)} partition fixtures; "
                    f"{failures} failures")


CURVATURE_FIXTURES = [
    CoverageFunction(3 + 8, [[0, 1, 2, 3 + i] for i in range(8)]),
    CoverageFunction(2 + 16, [[0, 1, 2 + 2 * i, 3 + 2 * i] for i in range(8)]),
    CoverageFunction(3 + 10, [[i % 3, 3 + i] for i in range(10)]),
    CoverageFunction(1 + 12, [[0, 1 + i] for i in range(12)]),
]


def test_criterion_07_curvature_route():
    runs = 0
    failures = 0
    surrogate_ok = True
    for f in CURVATURE_FIXTURES:
        n = f.n
        c = curvature(f)
        assert c < 1
        k = max(2, n // 3)
        for eps in (0.1, 0.25):
            bound = curvature_bound(float(c), eps)
            for seed in range(3):
                F = ConsistentNoiseOracle(f, eps, seed)
                res = curvature_topk(F, k)
                opt = brute_force(F, k)
                runs += 1
                floor = bound * float(opt.value)
                if float(res.value) < floor:
                    failures += 1
            # Two-sided additive-surrogate sandwich, exhaustive.
            F = ConsistentNoiseOracle(f, eps, 11)
            singles = [F.value(Subset(n, 1 << a)) for a in range(n)]
            lo = (1 - eps) / (1 + eps)
            hi = (1 / (1 - float(c))) * (1 + eps) / (1 - eps)
            for mask in range(1 << n):
                s = Subset(n, mask)
                Fv = F.value(s)
                Fa = sum(singles[e] for e in s.elements())
                if not (lo * Fv <= Fa + 1e-12 and Fa <= hi * Fv + 1e-12):
                    surrogate_ok = False
    ok = failures == 0 and surrogate_ok
    assert _verdict(7, "singleton-surrogate solver clears the curvature guarantee; "
                       "surrogate sandwich holds exhaustively", ok,
                    f"{runs} solver runs; surrogate sandwich "
                    f"{'holds' if surrogate_ok else 'BROKEN'}")


def test_criterion_08_distinguishability_at_scale():
    start = time.time()
    rows, summary = run_distinguishability(4096, 0.25, trials=100, seed=20260810)
    elapsed = time.time() - start
    ok = elapsed < 300
    ok = ok and len(rows) == 100
    bound = summary["gap_bound"]
    for row in rows:
        ok = ok and row["queries"] == expected_greedy_queries(4096, row["k"])
        if row["band_escapes"] == 0:
            ok = ok and row["ratio"] <= bound + 1e-12
    assert _verdict(8, "100 scaled trials finish fast; zero-escape trials stay "
                       "under the gap bound", ok,
                    f"{elapsed:.1f}s; zero-escape fraction "
                    f"{summary['zero_escape_fraction']:.2f} (reported, not asserted); "
                    f"mean ratio {summary['mean_ratio']:.3f} vs bound {bound:.3f}")


def test_criterion_09_trap_reproduction(tmp_path, capsys):
    rows, summary = run_trap(16, 0.5, 64)
    trap = build_greedy_trap(16, 0.5, 64)
    lo = 1 - trap.epsilon
    band_exact = all(
        lo * trap.f.value(s) <= trap.value(s) <= trap.f.value(s)
        for s in override_sets(trap)
    )
    ok = band_exact
    ok = ok and summary["claimed_greedy_value"] == pytest.approx(4.21875)
    ok = ok and rows[0]["baseline"] == pytest.approx(4.21875)
    ok = ok and rows[0]["value"] == pytest.approx(float(summary["measured_greedy_value"]))
    ok = ok and summary["discrepancy"] is True and summary["note"]
    # The CLI surfaces both values and the discrepancy flag.
    code = cli.main(["trap"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "4.218750" in out and "DISCREPANCY" in out
    assert _verdict(9, "trap built and band-checked exactly; predicted and measured "
                       "greedy values both reported with the discrepancy flag", ok,
                    f"claimed {summary['claimed_greedy_value']:.6f}, "
                    f"measured {summary['measured_greedy_value']:.6f}")


def test_criterion_10_sampling_rule():
    f = CoverageFunction(5, [list(range(5))] * 12)
    # Informative-prediction fixture: width 0.5 keeps the union bound below 1.
    _, tight = run_sampling_validation(f, epsilon=0.1, confidence_constant=3.0,
                                       trials=200, seed=1000, k=4, width=0.5)
    ok = tight["prediction"] < 1.0
    ok = ok and tight["violating_fraction"] <= tight["prediction"]
    # Contrast fixture: width 1.0, where halving m produces visible failures.
    _, full = run_sampling_validation(f, epsilon=0.1, confidence_constant=3.0,
                                      trials=200, seed=1000, k=4, width=1.0)
    _, half = run_sampling_validation(f, epsilon=0.1, confidence_constant=1.5,
                                      trials=200, seed=1000, k=4, width=1.0)
    ok = ok and full["violating_fraction"] <= full["prediction"]
    ok = ok and half["violating_fraction"] <= half["prediction"]
    ok = ok and half["violating_trials"] > full["violating_trials"]
    assert _verdict(10, "sampled-oracle band failures stay below the union-bounded "
                        "prediction; halving the sample budget measurably hurts", ok,
                    f"m={tight['m']}: measured {tight['violating_fraction']:.3f} vs "
                    f"prediction {tight['prediction']:.3f}; "
                    f"violating trials {full['violating_trials']} -> "
                    f"{half['violating_trials']} at half budget")


def test_criterion_11_cli_determinism(tmp_path):
    ok = True
    specs = [
        (["trap", "--format", "csv"], "trap"),
        (["distinguish", "--n", "256", "--beta", "0.45", "--trials", "5",
          "--seed", "3", "--format", "csv"], "distinguish"),
        (["trap", "--format", "structured"], "trap-structured"),
    ]
    for base_args, name in specs:
        outs = []
        for rep in range(2):
            out = tmp_path / f"{name}-{rep}.out"
            code = cli.main(base_args + ["--out", str(out)])
            ok = ok and code == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    assert _verdict(11, "identical config and seeds reproduce reports byte for byte",
                    ok, f"{len(specs)} experiment reruns compared")
